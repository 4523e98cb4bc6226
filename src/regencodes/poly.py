"""Dense univariate polynomial helpers over a Field.

Polynomials are plain lists of int coefficients, ascending degree, not
normalized (trailing zeros allowed).  Only the routines on the encoding
hot path take a counter.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .counting import OpCounter
from .errors import DimensionMismatch, DivisionByZero
from .gf import Field


def trim(p: Sequence[int]) -> list[int]:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def padded(p: Sequence[int], length: int) -> list[int]:
    p = list(p)
    if len(p) > length:
        raise ValueError(f"polynomial of {len(p)} coefficients longer than {length}")
    return p + [0] * (length - len(p))


def poly_sub(field: Field, a: Sequence[int], b: Sequence[int]) -> list[int]:
    n = max(len(a), len(b))
    a = padded(a, n)
    b = padded(b, n)
    return [field.sub(x, y) for x, y in zip(a, b)]


def poly_scale(field: Field, a: Sequence[int], s: int,
               counter: OpCounter | None = None) -> list[int]:
    if counter is not None:
        counter.count_mul(len(a))
    return [field.mul(x, s) for x in a]


def poly_mul(field: Field, a: Sequence[int], b: Sequence[int],
             counter: OpCounter | None = None) -> list[int]:
    """Schoolbook product; on prime fields one int64 convolution, exact
    because q <= 65537 keeps every sum of products far below 2^63."""
    a = list(a)
    b = list(b)
    if not a or not b:
        return []
    if counter is not None:
        counter.count_mul(len(a) * len(b))
        counter.count_add(max(0, len(a) * len(b) - (len(a) + len(b) - 1)))
    if field.kind in ("prime", "fermat"):
        return (np.convolve(np.asarray(a, np.int64), np.asarray(b, np.int64)) % field.q).tolist()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(ai, bj))
    return out


def poly_divmod(field: Field, num: Sequence[int], den: Sequence[int],
                counter: OpCounter | None = None) -> tuple[list[int], list[int]]:
    """Schoolbook synchronous division; returns (quotient, remainder)."""
    den = trim(den)
    if not den:
        raise DivisionByZero("polynomial division by zero")
    num = list(num)
    lead_inv = field.inv(den[-1])
    deg_d = len(den) - 1
    rem = list(num)
    qlen = max(0, len(rem) - deg_d)
    quot = [0] * qlen
    for i in range(qlen - 1, -1, -1):
        c = rem[i + deg_d]
        if c == 0:
            continue
        factor = field.mul(c, lead_inv)
        quot[i] = factor
        for j, dj in enumerate(den):
            rem[i + j] = field.sub(rem[i + j], field.mul(factor, dj))
        if counter is not None:
            counter.count_mul(len(den) + 1)
            counter.count_add(len(den))
    return quot, rem[:deg_d]


def poly_eval(field: Field, p: Sequence[int], x: int,
              counter: OpCounter | None = None) -> int:
    """Horner evaluation."""
    acc = 0
    for c in reversed(list(p)):
        acc = field.add(field.mul(acc, x), c)
    if counter is not None and len(p) > 1:
        counter.count_mul(len(p) - 1)
        counter.count_add(len(p) - 1)
    return acc


def poly_eval_many(field: Field, p: Sequence[int], xs: Sequence[int],
                   counter: OpCounter | None = None) -> list[int]:
    """Horner evaluation at many points, vectorized across the points."""
    xs_arr = field.varray(list(xs))
    acc = field.varray([0] * len(xs))
    for c in reversed(list(p)):
        acc = field.vadd(field.vmul(acc, xs_arr), c)
    if counter is not None and len(p) > 1:
        counter.count_mul((len(p) - 1) * len(xs))
        counter.count_add((len(p) - 1) * len(xs))
    return acc.tolist()


def poly_from_roots(field: Field, roots: Sequence[int]) -> list[int]:
    """Monic polynomial with the given roots."""
    out = [1]
    for r in roots:
        out = poly_mul(field, out, [field.neg(r), 1])
    return out


def poly_derivative(field: Field, p: Sequence[int]) -> list[int]:
    out = []
    for i in range(1, len(p)):
        coeff = 0
        for _ in range(i):  # i * p[i] in the prime subfield
            coeff = field.add(coeff, p[i])
        out.append(coeff)
    return out


def lagrange_basis(field: Field, points: Sequence[int]) -> list[list[int]]:
    """Coefficient vectors of the Lagrange basis polynomials L_i.

    L_i has L_i(points[i]) = 1 and zeros at the other points.  Computed by
    synthetic division of the master root polynomial, O(n^2) total.
    """
    master = poly_from_roots(field, points)
    basis = []
    for i, x in enumerate(points):
        # master / (X - x) by synthetic division
        qlen = len(master) - 1
        quot = [0] * qlen
        carry = master[-1]
        for j in range(qlen - 1, -1, -1):
            quot[j] = carry
            carry = field.add(master[j], field.mul(carry, x))
        denom = poly_eval(field, quot, x)
        basis.append(poly_scale(field, quot, field.inv(denom)))
    return basis


def lagrange_interpolate(field: Field, points: Sequence[int], values: Sequence[int],
                         counter: OpCounter | None = None) -> list[int]:
    """Unique polynomial of degree < n through the n (point, value) pairs."""
    if len(points) != len(values):
        raise DimensionMismatch(f"{len(points)} points but {len(values)} values")
    n = len(points)
    if n == 0:
        return []
    basis = lagrange_basis(field, points)
    out = [0] * n
    for li, v in zip(basis, values):
        if v == 0:
            continue
        for j, c in enumerate(li):
            out[j] = field.add(out[j], field.mul(v, c))
    if counter is not None:
        counter.count_mul(n * n)
        counter.count_add(n * n)
    return out
