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

Both forms compute through the `gf` and `poly` kernels, and the decoders
check their input in `_check_symbols`.  The evaluation-form ones read only
the first d (full) or k (partial) pairs; `generator_matrix` builds [Phi Delta].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .counting import OpCounter, charge
from .errors import (
    DuplicatePosition,
    FieldTooSmall,
    IndexOutOfRange,
    InsufficientSymbols,
    ParamsInvalid,
)
from .gf import (
    Field,
    enumerate_points,
    ntt_evaluate,
    ntt_interpolate,
    ntt_points,
    powers,
    primitive_element,
)
from .matrix import frozen, systematic_generator
from .poly import (
    lagrange_basis,
    lagrange_interpolate,
    poly_derivative,
    poly_divmod,
    poly_eval_many,
    poly_from_roots,
    poly_mul,
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
        """`msg`, its shape and then its symbols checked."""
        if len(msg.a) != self.k or len(msg.b) != self.d - self.k:
            raise ParamsInvalid(
                f"message shape ({len(msg.a)}, {len(msg.b)}) does not match (k={self.k}, d-k={self.d - self.k})"
            )
        self.field.varray(msg.a)
        self.field.varray(msg.b)
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
        points = ntt_points(field, n)
        ntt_size = 1 << (n - 1).bit_length()  # the transform size ntt_points used
    elif points is None:
        points = enumerate_points(field, n)
    # every point source is checked: the encoding conditions rest on distinct points
    pts = field.varray(points)
    if pts.shape != (n,) or len(set(pts.tolist())) != n:
        raise ParamsInvalid("points must be n distinct field values")
    return PsrsParams(field=field, n=n, k=k, d=d, form="eval", points=tuple(pts.tolist()),
                      ntt_size=ntt_size)


def genpoly_params(field: Field, n: int, k: int, d: int) -> PsrsParams:
    """Generator-polynomial-form parameters; alpha is a primitive element."""
    if not 1 <= k <= d < n:
        raise ParamsInvalid(f"need 1 <= k <= d < n, got (n={n}, k={k}, d={d})")
    if n > field.q - 1:
        raise FieldTooSmall(f"generator form needs n <= q-1, got n={n}, q={field.q}")
    return PsrsParams(field=field, n=n, k=k, d=d, form="genpoly",
                      alpha=primitive_element(field))


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
    return frozen(lagrange_basis(params.field, params.points[: params.k]))


@lru_cache(maxsize=None)
def _generator(params: PsrsParams, num_roots: int) -> tuple[int, ...]:
    """Generator polynomial with roots alpha^0 .. alpha^(num_roots-1):
    g0 has n-k roots, g1 has n-d."""
    return tuple(poly_from_roots(params.field, powers(params.field, params.alpha, num_roots)))


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
    phi = field.matmul(field.varray(msg.a)[None, :], basis)[0]
    charge(counter, k * k, k * max(0, k - 1))
    c = np.zeros(d, dtype=np.int64)
    c[:k] = phi
    if d > k:
        # Gamma (k+1 coefficients) times B (d-k) has exactly d coefficients
        c = field.vadd(c, poly_mul(field, list(_gamma(params)), list(msg.b), counter))
        charge(counter, add=d)
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


def _check_symbols(params: PsrsParams, form: str, symbols, minimum: int,
                   b: Sequence[int] | None = None) -> tuple[list, np.ndarray]:
    """The (position, value) pairs of `symbols` and their values, after
    checking the form; the positions (1-based for eval, 0-based degrees for
    genpoly) in range, distinct and at least `minimum`; the values; a partial
    decode's known b."""
    _require_form(params, form)
    pairs = list(symbols)
    lo, hi = (1, params.n) if form == "eval" else (0, params.n - 1)
    seen = set()
    for pos, _ in pairs:
        if not lo <= pos <= hi:
            raise IndexOutOfRange(f"position {pos} outside [{lo}, {hi}]")
        if pos in seen:
            raise DuplicatePosition(f"position {pos} supplied twice")
        seen.add(pos)
    if len(pairs) < minimum:
        raise InsufficientSymbols(f"got {len(pairs)} symbols, need at least {minimum}")
    values = params.field.varray([val for _, val in pairs])
    if b is not None:
        if len(b) != params.d - params.k:
            raise ParamsInvalid(f"b has {len(b)} symbols, expected {params.d - params.k}")
        params.field.varray(b)
    return pairs, values


def decode_full_eval(params: PsrsParams, symbols: Sequence[tuple[int, int]],
                     counter: OpCounter | None = None) -> PsrsMessage:
    """Recover (a, b) from any >= d (position, value) pairs (positions 1-based):
    C interpolates the first d pairs, or, on a root-of-unity set, all n by
    one inverse transform."""
    pairs, values = _check_symbols(params, "eval", symbols, params.d)
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
        zs = [params.points[pos - 1] for pos, _ in pairs[: params.d]]
        c = lagrange_interpolate(field, zs, values[: params.d], counter)
    quot, rem = poly_divmod(field, c, list(_gamma(params)), counter)
    a = poly_eval_many(field, rem, params.points[: params.k], counter)
    return PsrsMessage(tuple(a), tuple(quot[: params.d - params.k]))


def decode_partial_eval(params: PsrsParams, symbols: Sequence[tuple[int, int]],
                        b: Sequence[int], counter: OpCounter | None = None) -> list[int]:
    """Recover a from any >= k symbols when b is already known: Phi
    interpolates C - Gamma B at the first k."""
    pairs, values = _check_symbols(params, "eval", symbols, params.k, b)
    field = params.field
    delta = poly_mul(field, list(_gamma(params)), list(b), counter)
    zs = [params.points[pos - 1] for pos, _ in pairs[: params.k]]
    phi_vals = field.vsub(values[: params.k], poly_eval_many(field, delta, zs, counter))
    phi = lagrange_interpolate(field, zs, phi_vals, counter)
    return poly_eval_many(field, phi, params.points[: params.k], counter)


def generator_matrix(params: PsrsParams) -> np.ndarray:
    """n x d matrix [Phi Delta], read-only, with Phi[l, i] = L_i(x_l), the
    systematic generator at the points, and Delta[l, j] = Gamma(x_l) x_l^j,
    Gamma(x_l) the product of x_l - x_s over the first k points; the top k
    rows are [I_k 0]."""
    _require_form(params, "eval")
    field = params.field
    n, k, d = params.n, params.k, params.d
    pts = np.array(params.points, dtype=np.int64)
    out = np.zeros((n, d), dtype=np.int64)
    out[:, :k] = systematic_generator(field, n, k, pts)
    gamma = field.vprod(field.vsub(pts[:, None], pts[None, :k]))
    out[:, k:] = field.vmul(gamma[:, None], powers(field, pts, d - k))
    return frozen(out)


# ---------------------------------------------------------------------------
# generator-polynomial form
# ---------------------------------------------------------------------------

def _systematic_rs_poly(field: Field, data: Sequence[int], gen: Sequence[int],
                        shift: int, n: int, counter: OpCounter | None) -> np.ndarray:
    """The n coefficients of x^shift * data(x) - (x^shift * data(x) mod gen),
    a multiple of gen."""
    out = np.zeros(n, dtype=np.int64)
    out[shift:shift + len(data)] = data
    out[:shift] = field.vneg(poly_divmod(field, out[:shift + len(data)], gen, counter)[1])
    return out


def encode_genpoly(params: PsrsParams, msg: PsrsMessage,
                   counter: OpCounter | None = None) -> list[int]:
    """Coefficients of c(x) = c0(x) + c1(x), length n; msg.a sits at degrees n-k..n-1."""
    _require_form(params, "genpoly")
    params.check_message(msg)
    field = params.field
    n, k, d = params.n, params.k, params.d
    c = _systematic_rs_poly(field, msg.a, _generator(params, n - k), n - k, n, counter)
    if d > k:
        c = field.vadd(c, _systematic_rs_poly(field, msg.b, _generator(params, n - d), n - d, n,
                                              counter))
        charge(counter, add=n)
    return c.tolist()


def _erasure_decode(field: Field, n: int, known: list[int], values: np.ndarray, alpha: int,
                    rho: int, counter: OpCounter | None) -> list[int]:
    """Forney erasure decoding: the n coefficients of the codeword whose
    coefficients at the degrees `known` are `values`.

    The codeword is assumed divisible by prod_{i<rho} (x - alpha^i); the
    erased positions are the complement of `known`, which the callers make
    at most rho: distinct degrees in [0, n-1], at least n - rho of them.
    """
    erased = np.setdiff1d(np.arange(n), known)
    out = np.zeros(n, dtype=np.int64)
    out[known] = values
    if not erased.size:
        return out.tolist()
    locators = powers(field, alpha, n)
    # syndromes of the erasure polynomial E = c - out: E(alpha^j) = -out(alpha^j)
    syn = field.vneg(poly_eval_many(field, out, locators[:rho], counter)).tolist()
    x = locators[erased]
    lam = poly_from_roots(field, x)[::-1]  # prod (1 - x_e X)
    omega = poly_mul(field, syn, lam, counter)[:rho]
    xi = field.vinv(x)
    num = poly_eval_many(field, omega, xi, counter)
    den = poly_eval_many(field, poly_derivative(field, lam), xi, counter)
    out[erased] = field.vneg(field.vmul(x, field.vmul(num, field.vinv(den))))
    return out.tolist()


def decode_full_genpoly(params: PsrsParams, coeffs: Sequence[tuple[int, int]],
                        counter: OpCounter | None = None) -> PsrsMessage:
    """Recover (a, b) from any >= d (degree, value) pairs (degrees 0-based)."""
    pairs, values = _check_symbols(params, "genpoly", coeffs, params.d)
    field = params.field
    n, k, d = params.n, params.k, params.d
    c = _erasure_decode(field, n, [deg for deg, _ in pairs], values, params.alpha, n - d, counter)
    a = c[n - k:]
    c0 = _systematic_rs_poly(field, a, _generator(params, n - k), n - k, n, counter)
    return PsrsMessage(tuple(a), tuple(field.vsub(c[n - d:n - k], c0[n - d:n - k]).tolist()))


def decode_partial_genpoly(params: PsrsParams, coeffs: Sequence[tuple[int, int]],
                           b: Sequence[int], counter: OpCounter | None = None) -> list[int]:
    """Recover a from any >= k coefficients of c(x) when b is already known."""
    pairs, values = _check_symbols(params, "genpoly", coeffs, params.k, b)
    field = params.field
    n, k, d = params.n, params.k, params.d
    # for d = k, b is empty and c1 = 0, at no cost
    c1 = _systematic_rs_poly(field, list(b), _generator(params, n - d), n - d, n, counter)
    known = [deg for deg, _ in pairs]
    c0 = _erasure_decode(field, n, known, field.vsub(values, c1[known]), params.alpha, n - k,
                         counter)
    return c0[n - k:]
