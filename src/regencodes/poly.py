"""Dense univariate polynomial helpers over a Field.

Polynomials are plain lists of int coefficients, ascending degree, not
normalized (trailing zeros allowed).  Only the routines on the encoding
hot path take a counter.  The arithmetic runs through the field's vector
kernels (Field.convolve, vmul, vsub), which hold every field-kind
decision; poly_eval alone is scalar Horner, the tests' reference.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .counting import OpCounter, charge
from .errors import DimensionMismatch, DivisionByZero
from .gf import Field
from .matrix import lagrange_rows


def trim(p: Sequence[int]) -> list[int]:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_mul(field: Field, a: Sequence[int], b: Sequence[int],
             counter: OpCounter | None = None) -> list[int]:
    """Schoolbook product, one Field.convolve."""
    if not len(a) or not len(b):
        return []
    charge(counter, len(a) * len(b), (len(a) - 1) * (len(b) - 1))
    return field.convolve(a, b).tolist()


def poly_divmod(field: Field, num: Sequence[int], den: Sequence[int],
                counter: OpCounter | None = None) -> tuple[list[int], list[int]]:
    """Schoolbook synchronous division; returns (quotient, remainder).  A
    step takes one quotient coefficient, then subtracts that multiple of
    the divisor from the remainder window with one vmul and one vsub.
    Every step is charged, also one whose leading coefficient is 0."""
    den = np.array(trim(den), dtype=np.int64)
    if not den.size:
        raise DivisionByZero("polynomial division by zero")
    lead_inv = field.inv(int(den[-1]))
    deg_d = len(den) - 1
    rem = np.array(num, dtype=np.int64)
    qlen = max(0, len(rem) - deg_d)
    quot = np.zeros(qlen, dtype=np.int64)
    charge(counter, qlen * (len(den) + 1), qlen * len(den))
    for i in range(qlen - 1, -1, -1):
        if rem[i + deg_d]:
            quot[i] = field.mul(int(rem[i + deg_d]), lead_inv)
            rem[i:i + deg_d + 1] = field.vsub(rem[i:i + deg_d + 1], field.vmul(den, quot[i]))
    return quot.tolist(), rem[:deg_d].tolist()


def poly_eval(field: Field, p: Sequence[int], x: int,
              counter: OpCounter | None = None) -> int:
    """Horner evaluation."""
    acc = 0
    for c in reversed(list(p)):
        acc = field.add(field.mul(acc, x), c)
    steps = max(0, len(p) - 1)
    charge(counter, steps, steps)
    return acc


def poly_eval_many(field: Field, p: Sequence[int], xs: Sequence[int],
                   counter: OpCounter | None = None) -> list[int]:
    """Horner evaluation at many points, vectorized across the points."""
    xs_arr = field.varray(list(xs))
    acc = np.zeros(len(xs), dtype=np.int64)
    for c in reversed(list(p)):
        acc = field.vadd(field.vmul(acc, xs_arr), c)
    steps = max(0, len(p) - 1) * len(xs)
    charge(counter, steps, steps)
    return acc.tolist()


def poly_from_roots(field: Field, roots: Sequence[int]) -> list[int]:
    """Monic polynomial with the given roots: multiplying by X - r is one
    shift and one vector subtraction per root."""
    out = np.zeros(len(roots) + 1, dtype=np.int64)
    out[0] = 1
    for r in roots:
        low = field.vmul(out, r)
        out[1:] = out[:-1]  # times X: the top coefficient is still 0
        out[0] = 0
        out = field.vsub(out, low)
    return out.tolist()


def poly_derivative(field: Field, p: Sequence[int]) -> list[int]:
    """Formal derivative: coefficient i times i, an element of the prime
    subfield (so i mod the characteristic)."""
    return field.vmul(p[1:], np.arange(1, len(p)) % field.characteristic).tolist()


def lagrange_basis(field: Field, points: Sequence[int]) -> np.ndarray:
    """Coefficients of the Lagrange basis polynomials L_i, row i ascending.

    L_i has L_i(points[i]) = 1 and zeros at the other points.  One synthetic
    division of the master root polynomial by X - x_i for all points at
    once, scaled by the weights prod_{s != i} 1/(x_i - x_s).  The transpose
    is the inverse of the Vandermonde matrix at the points.
    """
    x = np.array(points, dtype=np.int64)
    k = len(x)
    master = poly_from_roots(field, x)
    quot = np.empty((k, k), dtype=np.int64)
    carry = np.full(k, master[-1], dtype=np.int64)
    for j in range(k - 1, -1, -1):
        quot[:, j] = carry
        carry = field.vadd(field.vmul(carry, x), master[j])
    weights = lagrange_rows(field, x, x[:0])[1]
    return field.vmul(quot, weights[:, None])


def lagrange_interpolate(field: Field, points: Sequence[int], values: Sequence[int],
                         counter: OpCounter | None = None) -> list[int]:
    """Unique polynomial of degree < n through the n (point, value) pairs."""
    if len(points) != len(values):
        raise DimensionMismatch(f"{len(points)} points but {len(values)} values")
    n = len(points)
    if n == 0:
        return []
    out = field.matmul(field.varray(values)[None, :], lagrange_basis(field, points))[0]
    charge(counter, n * n, n * n)
    return out.tolist()
