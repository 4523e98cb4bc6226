"""Partially systematic Reed-Solomon (PSRS) codes.

An (n, k, d) PSRS code maps a d-symbol message c = [a b] (k systematic
symbols a, d-k auxiliary symbols b) to n codeword symbols such that a
appears verbatim in the k designated positions, the whole message is
recoverable from any d symbols, and a alone is recoverable from any k
symbols once b is known.

Two constructions are provided:

* evaluation form: the codeword is C(x) = Phi(x) + Gamma(x) * B(x)
  evaluated at n distinct points, where Phi interpolates a on the first
  k points, Gamma vanishes on them, and B carries b as coefficients;
* generator-polynomial form: c(x) = c0(x) + c1(x), with c0 the systematic
  RS codeword of a(x) under g0 (n-k roots) and c1 the systematic RS
  codeword of b(x) under g1 (n-d roots); a(x) occupies coefficient
  degrees n-k .. n-1, and erasure decoding is Forney's algorithm on the
  common root set.

A Fermat-field fast path evaluates via the number-theoretic transform
when the params are built with ntt=True, which takes the leading powers
of a canonical power-of-two root of unity as evaluation points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .counting import OpCounter
from .errors import (
    DecodeMismatch,
    DuplicatePosition,
    FieldTooSmall,
    IndexOutOfRange,
    InsufficientSymbols,
    ParamsInvalid,
    WrongFragmentCount,
)
from .gf import (
    Field,
    enumerate_points,
    ntt_evaluate,
    ntt_interpolate,
    ntt_points,
    primitive_element,
)
from .matrix import FieldMatrix, frozen, mat_solve
from .poly import (
    lagrange_basis,
    lagrange_interpolate,
    poly_derivative,
    poly_divmod,
    poly_eval,
    poly_eval_many,
    poly_from_roots,
    poly_mul,
    poly_sub,
)


@dataclass(frozen=True)
class PsrsMessage:
    """Message split into the systematic part a and auxiliary part b."""

    a: tuple[int, ...]
    b: tuple[int, ...]


@dataclass(frozen=True)
class PsrsParams:
    field: Field
    n: int
    k: int
    d: int
    form: str  # "eval" | "genpoly"
    points: tuple[int, ...] | None = None
    alpha: int | None = None
    ntt_size: int | None = None

    def check_message(self, msg: PsrsMessage) -> PsrsMessage:
        if len(msg.a) != self.k or len(msg.b) != self.d - self.k:
            raise ParamsInvalid(
                f"message shape ({len(msg.a)}, {len(msg.b)}) does not match (k={self.k}, d-k={self.d - self.k})"
            )
        return msg


def eval_params(field: Field, n: int, k: int, d: int,
                points: Sequence[int] | None = None, ntt: bool = False) -> PsrsParams:
    """Evaluation-form parameters; default points are the canonical enumeration."""
    if not 1 <= k <= d < n:
        raise ParamsInvalid(f"need 1 <= k <= d < n, got (n={n}, k={k}, d={d})")
    if n > field.q:
        raise FieldTooSmall(f"evaluation form needs n <= q, got n={n}, q={field.q}")
    ntt_size = None
    if ntt:
        if points is not None:
            raise ParamsInvalid("pass either explicit points or ntt=True, not both")
        pts = tuple(ntt_points(field, n))
        ntt_size = 1 << (n - 1).bit_length()  # the transform size ntt_points used
    elif points is None:
        pts = tuple(enumerate_points(field, n))
    else:
        pts = tuple(int(p) for p in points)
        if len(pts) != n or len(set(pts)) != n:
            raise ParamsInvalid("points must be n distinct field values")
    return PsrsParams(field=field, n=n, k=k, d=d, form="eval", points=pts, ntt_size=ntt_size)


def genpoly_params(field: Field, n: int, k: int, d: int,
                   alpha: int | None = None) -> PsrsParams:
    """Generator-polynomial-form parameters; alpha defaults to a primitive element."""
    if not 1 <= k <= d < n:
        raise ParamsInvalid(f"need 1 <= k <= d < n, got (n={n}, k={k}, d={d})")
    if n > field.q - 1:
        raise FieldTooSmall(f"generator form needs n <= q-1, got n={n}, q={field.q}")
    if alpha is None:
        alpha = primitive_element(field)
    return PsrsParams(field=field, n=n, k=k, d=d, form="genpoly", alpha=int(alpha))


def _require_form(params: PsrsParams, form: str):
    if params.form != form:
        raise ParamsInvalid(f"operation requires {form} form, params are {params.form}")


# ---------------------------------------------------------------------------
# cached per-params data
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _gamma(params: PsrsParams) -> tuple[int, ...]:
    return tuple(poly_from_roots(params.field, params.points[: params.k]))


@lru_cache(maxsize=None)
def _sys_basis(params: PsrsParams) -> np.ndarray:
    """Row i holds the coefficients of the Lagrange basis polynomial for point i;
    read-only."""
    basis = lagrange_basis(params.field, params.points[: params.k])
    return frozen(np.array(basis, dtype=np.int64))


@lru_cache(maxsize=None)
def _gen_matrix(params: PsrsParams) -> np.ndarray:
    field = params.field
    n, k, d = params.n, params.k, params.d
    pts = field.varray(params.points)
    gamma = list(_gamma(params))
    gamma_evals = field.varray(poly_eval_many(field, gamma, params.points))
    out = np.zeros((n, d), dtype=np.int64)
    out[:k, :k] = np.eye(k, dtype=np.int64)
    if n > k:
        # barycentric rows: Phi[l, i] = Gamma(x_l) / ((x_l - x_i) * Gamma'(x_i))
        sys_pts = pts[:k]
        # w_i = 1 / prod_{j != i} (x_i - x_j): row products of the difference
        # block with its zero diagonal set to 1
        block = field.vsub(sys_pts[:, None], sys_pts[None, :])
        np.fill_diagonal(block, 1)
        weights = field.vinv(field.vprod(block))
        diffs = field.vsub(pts[k:, None], sys_pts[None, :])
        out[k:, :k] = field.vmul(field.vmul(field.vinv(diffs), weights[None, :]),
                                 gamma_evals[k:, None])
    if d > k:
        col = gamma_evals.copy()
        for i in range(d - k):
            out[:, k + i] = col
            col = field.vmul(col, pts)
    return frozen(out)


@lru_cache(maxsize=None)
def _generator(params: PsrsParams, num_roots: int) -> tuple[int, ...]:
    """Generator polynomial with roots alpha^0 .. alpha^(num_roots-1):
    g0 has n-k roots, g1 has n-d."""
    field = params.field
    roots = [field.pow_(params.alpha, i) for i in range(num_roots)]
    return tuple(poly_from_roots(field, roots))


@lru_cache(maxsize=None)
def _gen_coeff_map(params: PsrsParams) -> np.ndarray:
    """d x n matrix, read-only: row i is the codeword polynomial of the i-th
    unit message."""
    rows = []
    for i in range(params.d):
        a = [0] * params.k
        b = [0] * (params.d - params.k)
        if i < params.k:
            a[i] = 1
        else:
            b[i - params.k] = 1
        rows.append(encode_genpoly(params, PsrsMessage(tuple(a), tuple(b))))
    return frozen(np.array(rows, dtype=np.int64))


# ---------------------------------------------------------------------------
# evaluation form
# ---------------------------------------------------------------------------

def coding_polynomial(params: PsrsParams, msg: PsrsMessage,
                      counter: OpCounter | None = None) -> list[int]:
    """Coefficients of C(x) = Phi(x) + Gamma(x) B(x), length d."""
    _require_form(params, "eval")
    params.check_message(msg)
    field = params.field
    k, d = params.k, params.d
    basis = _sys_basis(params)
    a_row = field.varray([list(msg.a)])
    phi = field.matmul(a_row, basis)[0]
    if counter is not None:
        counter.count_mul(k * k)
        counter.count_add(k * max(0, k - 1))
    c = np.zeros(d, dtype=np.int64)
    c[:k] = phi
    if d > k:
        delta = poly_mul(field, list(_gamma(params)), list(msg.b), counter)
        c = field.vadd(c, field.varray(delta + [0] * (d - len(delta))))
        if counter is not None:
            counter.count_add(d)
    return c.tolist()


def encode_eval(params: PsrsParams, msg: PsrsMessage,
                counter: OpCounter | None = None) -> list[int]:
    """Codeword symbols C(x_1) .. C(x_n); the first k equal msg.a."""
    c = coding_polynomial(params, msg, counter)
    field = params.field
    if params.ntt_size is not None:
        evals = ntt_evaluate(field, c, params.ntt_size, counter)
        return evals[: params.n]
    return poly_eval_many(field, c, params.points, counter)


def _check_positions(params: PsrsParams, pairs, minimum: int, zero_based: bool = False):
    lo, hi = (0, params.n - 1) if zero_based else (1, params.n)
    seen = set()
    for pos, _ in pairs:
        if not lo <= pos <= hi:
            raise IndexOutOfRange(f"position {pos} outside [{lo}, {hi}]")
        if pos in seen:
            raise DuplicatePosition(f"position {pos} supplied twice")
        seen.add(pos)
    if len(pairs) < minimum:
        raise InsufficientSymbols(f"got {len(pairs)} symbols, need at least {minimum}")
    if len(pairs) > params.n:
        raise WrongFragmentCount(f"got {len(pairs)} symbols for codeword length {params.n}")


def decode_full_eval(params: PsrsParams, symbols: Sequence[tuple[int, int]],
                     counter: OpCounter | None = None) -> PsrsMessage:
    """Recover (a, b) from any >= d (position, value) pairs (positions 1-based)."""
    _require_form(params, "eval")
    pairs = list(symbols)
    _check_positions(params, pairs, params.d)
    field = params.field
    if (
        params.ntt_size is not None
        and params.ntt_size == params.n == len(pairs)
        and sorted(p for p, _ in pairs) == list(range(1, params.n + 1))
    ):
        # complete codeword on a full root-of-unity set: one inverse transform
        by_pos = {p: v for p, v in pairs}
        c = ntt_interpolate(field, [by_pos[p] for p in range(1, params.n + 1)], counter)
    else:
        zs = [params.points[pos - 1] for pos, _ in pairs]
        ys = [val for _, val in pairs]
        c = lagrange_interpolate(field, zs, ys, counter)
    quot, rem = poly_divmod(field, c, list(_gamma(params)), counter)
    a = poly_eval_many(field, rem, params.points[: params.k], counter)
    b = quot + [0] * (params.d - params.k - len(quot))
    return PsrsMessage(tuple(a), tuple(b[: params.d - params.k]))


def decode_partial_eval(params: PsrsParams, symbols: Sequence[tuple[int, int]],
                        b: Sequence[int], counter: OpCounter | None = None) -> list[int]:
    """Recover a from any >= k symbols when b is already known."""
    _require_form(params, "eval")
    pairs = list(symbols)
    _check_positions(params, pairs, params.k)
    field = params.field
    if len(b) != params.d - params.k:
        raise ParamsInvalid(f"b has {len(b)} symbols, expected {params.d - params.k}")
    delta = poly_mul(field, list(_gamma(params)), list(b), counter)
    zs = [params.points[pos - 1] for pos, _ in pairs]
    dz = poly_eval_many(field, delta, zs, counter) if delta else [0] * len(zs)
    phi_vals = [field.sub(val, dv) for (_, val), dv in zip(pairs, dz)]
    phi = lagrange_interpolate(field, zs[: params.k], phi_vals[: params.k], counter)
    return poly_eval_many(field, phi, params.points[: params.k], counter)


def generator_matrix(params: PsrsParams) -> np.ndarray:
    """n x d matrix [Phi Delta], read-only; the top k rows are [I_k 0]."""
    _require_form(params, "eval")
    return _gen_matrix(params)


# ---------------------------------------------------------------------------
# generator-polynomial form
# ---------------------------------------------------------------------------

def _systematic_rs_poly(field: Field, data: Sequence[int], gen: Sequence[int],
                        shift: int, counter: OpCounter | None) -> list[int]:
    """x^shift * data(x) - (x^shift * data(x) mod gen): a multiple of gen."""
    shifted = [0] * shift + list(data)
    _, rem = poly_divmod(field, shifted, list(gen), counter)
    out = poly_sub(field, shifted, rem + [0] * (len(shifted) - len(rem)))
    return out


def encode_genpoly(params: PsrsParams, msg: PsrsMessage,
                   counter: OpCounter | None = None) -> list[int]:
    """Coefficients of c(x) = c0(x) + c1(x), length n; msg.a sits at degrees n-k..n-1."""
    _require_form(params, "genpoly")
    params.check_message(msg)
    field = params.field
    n, k, d = params.n, params.k, params.d
    c0 = _systematic_rs_poly(field, msg.a, _generator(params, n - k), n - k, counter)
    c = c0 + [0] * (n - len(c0))
    if d > k:
        c1 = _systematic_rs_poly(field, msg.b, _generator(params, n - d), n - d, counter)
        c1 = c1 + [0] * (n - len(c1))
        c = [field.add(x, y) for x, y in zip(c, c1)]
        if counter is not None:
            counter.count_add(n)
    return c[:n]


def _erasure_decode(field: Field, received: list[int], known: set[int], alpha: int,
                    rho: int, counter: OpCounter | None) -> list[int]:
    """Forney erasure decoding: fill the unknown coefficients of `received`.

    The codeword is assumed divisible by prod_{i<rho} (x - alpha^i); the
    erased positions are the complement of `known`.
    """
    n = len(received)
    erased = [i for i in range(n) if i not in known]
    if len(erased) > rho:
        raise InsufficientSymbols(f"{len(erased)} erasures exceed correction capacity {rho}")
    if not erased:
        return list(received)
    # syndromes of the erasure polynomial E = c - r: E(alpha^j) = -r(alpha^j)
    syn = []
    for j in range(rho):
        syn.append(field.neg(poly_eval(field, received, field.pow_(alpha, j), counter)))
    locators = [field.pow_(alpha, e) for e in erased]
    lam = [1]
    for x in locators:
        # lam *= (1 - x * X)
        nxt = [0] * (len(lam) + 1)
        for i, c in enumerate(lam):
            nxt[i] = field.add(nxt[i], c)
            nxt[i + 1] = field.sub(nxt[i + 1], field.mul(c, x))
        lam = nxt
    omega_full = poly_mul(field, syn, lam, counter)
    omega = omega_full[:rho]
    lam_deriv = poly_derivative(field, lam)
    out = list(received)
    for e, x in zip(erased, locators):
        xi = field.inv(x)
        num = poly_eval(field, omega, xi, counter)
        den = poly_eval(field, lam_deriv, xi, counter)
        out[e] = field.neg(field.mul(x, field.div(num, den)))
    return out


def decode_full_genpoly(params: PsrsParams, coeffs: Sequence[tuple[int, int]],
                        counter: OpCounter | None = None,
                        cross_check: bool = False) -> PsrsMessage:
    """Recover (a, b) from any >= d (degree, value) pairs (degrees 0-based)."""
    _require_form(params, "genpoly")
    pairs = list(coeffs)
    _check_positions(params, pairs, params.d, zero_based=True)
    field = params.field
    n, k, d = params.n, params.k, params.d
    received = [0] * n
    known = set()
    for deg, val in pairs:
        received[deg] = field.check(val)
        known.add(deg)
    c = _erasure_decode(field, received, known, params.alpha, n - d, counter)
    a = c[n - k:]
    c0 = _systematic_rs_poly(field, a, _generator(params, n - k), n - k, counter)
    c0 = c0 + [0] * (n - len(c0))
    c1 = poly_sub(field, c, c0)
    b = c1[n - d: n - k]
    msg = PsrsMessage(tuple(a), tuple(b))
    if cross_check:
        oracle = solve_full_genpoly_linear(params, pairs)
        if oracle != msg:
            raise DecodeMismatch(f"Forney result {msg} disagrees with linear solve {oracle}")
    return msg


def solve_full_genpoly_linear(params: PsrsParams,
                              coeffs: Sequence[tuple[int, int]]) -> PsrsMessage:
    """Independent oracle: solve the message from d codeword coefficients directly."""
    _require_form(params, "genpoly")
    pairs = list(coeffs)
    _check_positions(params, pairs, params.d, zero_based=True)
    field = params.field
    use = pairs[: params.d]
    cols = _gen_coeff_map(params).T[[deg for deg, _ in use]]  # d x d
    rhs = field.varray([[val] for _, val in use])
    vec = mat_solve(FieldMatrix(field, cols), rhs)[:, 0].tolist()
    return PsrsMessage(tuple(vec[: params.k]), tuple(vec[params.k:]))


def decode_partial_genpoly(params: PsrsParams, coeffs: Sequence[tuple[int, int]],
                           b: Sequence[int], counter: OpCounter | None = None) -> list[int]:
    """Recover a from any >= k coefficients of c(x) when b is already known."""
    _require_form(params, "genpoly")
    pairs = list(coeffs)
    _check_positions(params, pairs, params.k, zero_based=True)
    field = params.field
    n, k, d = params.n, params.k, params.d
    if len(b) != d - k:
        raise ParamsInvalid(f"b has {len(b)} symbols, expected {d - k}")
    if d > k:
        c1 = _systematic_rs_poly(field, list(b), _generator(params, n - d), n - d, counter)
        c1 = c1 + [0] * (n - len(c1))
    else:
        c1 = [0] * n
    received = [0] * n
    known = set()
    for deg, val in pairs:
        received[deg] = field.sub(field.check(val), c1[deg])
        known.add(deg)
    c0 = _erasure_decode(field, received, known, params.alpha, n - k, counter)
    return c0[n - k:]
