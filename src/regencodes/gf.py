"""Finite-field arithmetic for the codecs.

Three kinds of field are supported:

* prime fields GF(p) for primes p <= 65537,
* binary extension fields GF(2^m) for 1 <= m <= 16, with a fixed
  primitive reduction polynomial per degree (see REDUCTION_POLYS),
* the Fermat field GF(65537), a prime field whose multiplicative group
  has order 2^16 and therefore supports radix-2 number-theoretic
  transforms up to length 65536.

Scalar values and evaluation points are plain ints in [0, q).  The
scalar methods are the tests' reference arithmetic; the library computes
through the vectorized numpy kernels, which hold every field-kind
decision: log/antilog tables for binary fields, int64 modular arithmetic
and a table of inverses for prime fields.  `matmul` is the one product
kernel, behind `convolve` (by a Toeplitz matrix) and binary `dot`.
`vprod` multiplies along rows; `vsub_mul` and `vreduce` let an elimination
leave its updates unreduced mod p.  `powers` gives x^0 .. x^(count-1).

All objects are immutable after construction and all operations are
pure, so unrestricted concurrent use is safe.
"""

from __future__ import annotations

import array
import operator
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .counting import OpCounter, charge
from .errors import (
    DimensionMismatch,
    DivisionByZero,
    FieldTooSmall,
    NonPrimeModulus,
    NotPowerOfTwo,
    UnsupportedDegree,
    WrongField,
)

FERMAT_PRIME = 65537
FERMAT_GENERATOR = 3  # primitive root mod 65537; order 2^16

# Primitive polynomials, one per degree; bitmask includes the leading term.
# Degree 2 is x^2+x+1 and degree 16 is x^16+x^12+x^3+x+1.
REDUCTION_POLYS = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100010001000011,
    15: 0b1000000000000011,
    16: 0b10001000000001011,
}

_MAX_PRIME = FERMAT_PRIME


_INT64, _UINT64 = np.dtype(np.int64), np.dtype(np.uint64)


def as_int(value) -> int:
    """`value` as an int; one that is not an integer (a float, a string, a
    bool) raises ValueError, never folded to one."""
    if isinstance(value, bool):
        raise ValueError(f"expected an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError as exc:
        raise ValueError(f"expected an integer: {exc}") from exc


def int_array(data) -> np.ndarray:
    """`data` as an int64 array, `data` itself when it is one; a value that
    is not an integer (2.5, "3", True) or too wide for int64 raises ValueError."""
    try:
        if isinstance(data, (list, tuple)):
            try:  # a flat sequence of ints, read without numpy's type discovery
                a = np.frombuffer(array.array("q", data), _INT64)
                # a bool is 0 or 1: the type scan runs only on lists of those
                if not a.size or a.max() > 1 or bool not in map(type, data):
                    return a
                raise ValueError("symbols must be integers, got bool")
            except TypeError:
                pass  # nested, or not all integers: numpy tells which
        a = np.asarray(data)
        if a.dtype is _INT64:
            return a
        if a.dtype.kind == "O" or not a.size:
            return np.array([as_int(v) for v in a.flat], dtype=np.int64).reshape(a.shape)
        if a.dtype.kind not in "iu":
            raise ValueError(f"symbols must be integers, got {a.dtype}")
        if a.dtype == np.uint64 and a.max() > np.iinfo(np.int64).max:
            raise ValueError("array values outside field range")
        return a.astype(np.int64)
    except OverflowError as exc:
        raise ValueError("array values outside field range") from exc


class Field:
    """Base class; use prime_field / binary_field / fermat_field / field_new,
    which intern fields, so two fields are equal only when identical."""

    kind: str
    q: int

    # -- scalar API (ints in [0, q)) -------------------------------------

    def add(self, a: int, b: int) -> int:
        raise NotImplementedError

    def sub(self, a: int, b: int) -> int:
        raise NotImplementedError

    def neg(self, a: int) -> int:
        raise NotImplementedError

    def mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def inv(self, a: int) -> int:
        raise NotImplementedError

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise DivisionByZero("division by zero")
        return self.mul(a, self.inv(b))

    def pow_(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow_(self.inv(a), -e)
        r, base = 1, a
        while e:
            if e & 1:
                r = self.mul(r, base)
            base = self.mul(base, base)
            e >>= 1
        return r

    @property
    def characteristic(self) -> int:
        raise NotImplementedError

    def check(self, value: int) -> int:
        v = as_int(value)
        if not 0 <= v < self.q:
            raise ValueError(f"value {v} outside [0, {self.q})")
        return v

    # -- vectorized API (numpy int64 arrays of values) --------------------

    def varray(self, data) -> np.ndarray:
        """`data` as an int64 array (see int_array); any value outside
        [0, q) raises ValueError."""
        a = int_array(data)
        # read as unsigned, a negative value is at least 2^63 >= q
        if a.size and a.view(_UINT64).max() >= self.q:
            raise ValueError("array values outside field range")
        return a

    def vadd(self, a, b) -> np.ndarray:
        raise NotImplementedError

    def vsub(self, a, b) -> np.ndarray:
        raise NotImplementedError

    def vneg(self, a) -> np.ndarray:
        raise NotImplementedError

    def vmul(self, a, b) -> np.ndarray:
        raise NotImplementedError

    def matmul(self, a, b) -> np.ndarray:
        raise NotImplementedError

    def convolve(self, a, b) -> np.ndarray:
        """Coefficients of the product of polynomials a and b, empty if either
        is: one matmul of the Toeplitz matrix of a, entry [i, j] = a[i - j],
        by b."""
        a, b = np.asarray(a, np.int64), np.asarray(b, np.int64)
        if not a.size or not b.size:
            return np.zeros(0, np.int64)
        rows = np.lib.stride_tricks.sliding_window_view(np.pad(a, len(b) - 1), len(b))
        return self.matmul(rows[:, ::-1], b[:, None])[:, 0]

    def vprod(self, a) -> np.ndarray:
        """The product of each row of a 2-D array, by halving the rows."""
        a = np.asarray(a, np.int64)
        while a.shape[1] > 1:
            half = a.shape[1] // 2
            head = self.vmul(a[:, :half], a[:, half:2 * half])
            a = np.concatenate([head, a[:, 2 * half:]], axis=1) if a.shape[1] % 2 else head
        return a[:, 0] if a.shape[1] else np.ones(a.shape[0], dtype=np.int64)

    def dot(self, a: Sequence[int], b: Sequence[int]) -> int:
        """Inner product of two equal-length vectors of field values."""
        return int(self.matmul([a], np.reshape(b, (-1, 1)))[0, 0])

    def vsub_mul(self, a, b, c) -> np.ndarray:
        """a - b * c, broadcast, for field values b and c.  A prime field
        leaves the result unreduced, congruent mod p (see vreduce); a
        binary field returns field values."""
        return self.vsub(a, self.vmul(b, c))

    def vreduce(self, a) -> np.ndarray:
        """A new array of the field values congruent to `a`, an array built
        by vsub_mul."""
        return np.array(a, np.int64)


class PrimeField(Field):
    kind = "prime"

    def __init__(self, p: int):
        # the bound first: trial division then needs at most 256 candidates
        if p > _MAX_PRIME:
            raise NonPrimeModulus(f"primes above {_MAX_PRIME} are not supported")
        if _prime_factors(p) != [p]:
            raise NonPrimeModulus(f"{p} is not prime")
        self.p = p
        self.q = p
        # inverses by table: g^i and g^-i = g^(p-1-i) over the powers of a
        # primitive root g
        pw = powers(self, primitive_element(self), p - 1)
        self._inv = np.zeros(p, dtype=np.int64)
        self._inv[pw[1:]] = pw[:0:-1]
        self._inv[1] = 1

    @property
    def characteristic(self) -> int:
        return self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return int(self._inv[a])

    def vadd(self, a, b):
        return (np.asarray(a, np.int64) + np.asarray(b, np.int64)) % self.p

    def vsub(self, a, b):
        return (np.asarray(a, np.int64) - np.asarray(b, np.int64)) % self.p

    def vneg(self, a):
        return (-np.asarray(a, np.int64)) % self.p

    def vmul(self, a, b):
        return (np.asarray(a, np.int64) * np.asarray(b, np.int64)) % self.p

    def vinv(self, a):
        a = np.asarray(a, dtype=np.int64)
        if a.size and (a == 0).any():
            raise DivisionByZero("inverse of zero")
        return self._inv[a]

    def matmul(self, a, b):
        # products stay below (p-1)^2 * inner < 2^63 for the sizes in use
        return (np.asarray(a, np.int64) @ np.asarray(b, np.int64)) % self.p

    def dot(self, a, b):
        # products stay below (p-1)^2 < 2^33, so int64 sums of up to 2^30 are exact
        return int(np.asarray(a, np.int64) @ np.asarray(b, np.int64)) % self.p

    def vsub_mul(self, a, b, c):
        # |a| + (p-1)^2 per call: n calls on values of an n-row system stay
        # below n p^2 < 2^63
        return np.asarray(a, np.int64) - np.asarray(b, np.int64) * np.asarray(c, np.int64)

    def vreduce(self, a):
        return np.asarray(a, np.int64) % self.p

    def __repr__(self):
        return f"GF({self.p})"


class FermatField(PrimeField):
    kind = "fermat"

    def __init__(self):
        super().__init__(FERMAT_PRIME)

    def root_of_unity(self, order: int) -> int:
        """Element of exact multiplicative order `order` (a power of two)."""
        if order < 1 or order & (order - 1):
            raise NotPowerOfTwo(f"order {order} is not a power of two")
        if order > self.p - 1:
            raise UnsupportedDegree(f"no root of unity of order {order} in GF({self.p})")
        return pow(FERMAT_GENERATOR, (self.p - 1) // order, self.p)


class BinaryField(Field):
    kind = "binary"

    def __init__(self, m: int):
        if m not in REDUCTION_POLYS:
            raise UnsupportedDegree(f"degree {m} not in [1, 16]")
        self.m = m
        self.poly = REDUCTION_POLYS[m]
        self.q = 1 << m
        self._build_tables()

    def _build_tables(self):
        # log[0] = Z = 2(q-1) and exp is 0 on [Z, 2Z], so exp[log a + log b] needs
        # no zero test: two nonzero logs sum to at most 2(q-2) < Z
        q, zero = self.q, 2 * (self.q - 1)
        exp = np.zeros(2 * zero + 1, dtype=np.uint16)
        log = np.full(q, zero, dtype=np.int64)
        v = 1
        for i in range(q - 1):
            exp[i] = v
            log[v] = i
            v <<= 1
            if v & q:
                v ^= self.poly
        if v != 1 or len(set(exp[: q - 1].tolist())) != q - 1:
            raise UnsupportedDegree(f"reduction polynomial for m={self.m} is not primitive")
        exp[q - 1 : zero] = exp[: q - 1]
        self._exp = exp
        self._log = log
        self.omega = int(exp[1 % (q - 1)]) if q > 2 else 1  # primitive element

    @property
    def characteristic(self) -> int:
        return 2

    def add(self, a, b):
        return a ^ b

    sub = add

    def neg(self, a):
        return a

    def mul(self, a, b):
        return int(self._exp[self._log[a] + self._log[b]])

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return int(self._exp[self.q - 1 - self._log[a]])

    def vadd(self, a, b):
        return np.asarray(a, np.int64) ^ np.asarray(b, np.int64)

    vsub = vadd

    def vneg(self, a):
        return np.asarray(a, np.int64)

    def vmul(self, a, b):
        prod = self._exp[self._log[np.asarray(a, np.int64)] + self._log[np.asarray(b, np.int64)]]
        return prod.astype(np.int64)

    def vinv(self, a):
        a = np.asarray(a, dtype=np.int64)
        if a.size and (a == 0).any():
            raise DivisionByZero("inverse of zero")
        return self._exp[self.q - 1 - self._log[a]].astype(np.int64)

    def matmul(self, a, b):
        a = np.asarray(a, np.int64)
        b = np.asarray(b, np.int64)
        r, inner = a.shape
        inner2, c = b.shape
        if inner != inner2:
            raise DimensionMismatch(f"({r}x{inner}) @ ({inner2}x{c})")
        if r * inner * c == 0:
            return np.zeros((r, c), dtype=np.int64)
        out = np.empty((r, c), dtype=np.uint16)
        # chunk rows so the (rows, inner, c) product tensor stays small
        chunk = max(1, (1 << 21) // (inner * c))
        loga = self._log[a][:, :, None]
        logb = self._log[b][None, :, :]
        for lo in range(0, r, chunk):
            prod = self._exp[loga[lo : lo + chunk] + logb]
            out[lo : lo + chunk] = np.bitwise_xor.reduce(prod, axis=1)
        return out.astype(np.int64)

    def vprod(self, a):
        # the sum of the logs of a row; a zero entry, whose log is the
        # sentinel 2(q-1), makes the row's product zero
        logs = self._log[np.asarray(a, np.int64)]
        out = self._exp[logs.sum(axis=1) % (self.q - 1)].astype(np.int64)
        out[(logs == 2 * (self.q - 1)).any(axis=1)] = 0
        return out

    def __repr__(self):
        return f"GF(2^{self.m})"


_FIELD_CACHE: dict[tuple, Field] = {}
_FIELD_KINDS = {"prime": PrimeField, "binary": BinaryField, "fermat": FermatField}


def field_new(kind: str, parameter: int | None = None) -> Field:
    """Create (or fetch the cached) field of the given kind.

    kind "prime" takes the prime p, "binary" the degree m, "fermat" no
    parameter; a missing, extra or non-integer parameter raises ValueError.
    Instances are interned by kind and integer parameter, so repeated calls
    return the same object.
    """
    cls = _FIELD_KINDS.get(kind)
    if cls is None:
        raise ValueError(f"unknown field kind {kind!r}")
    if (parameter is None) != (cls is FermatField):
        raise ValueError(f"field kind {kind!r} takes {'one' if parameter is None else 'no'} parameter")
    key = (kind, None if parameter is None else as_int(parameter))
    f = _FIELD_CACHE.get(key)
    if f is None:
        f = _FIELD_CACHE[key] = cls() if parameter is None else cls(key[1])
    return f


def prime_field(p: int) -> PrimeField:
    return field_new("prime", p)  # type: ignore[return-value]


def binary_field(m: int) -> BinaryField:
    return field_new("binary", m)  # type: ignore[return-value]


def fermat_field() -> FermatField:
    return field_new("fermat")  # type: ignore[return-value]


def enumerate_points(field: Field, n: int) -> list[int]:
    """The canonical first n distinct evaluation points of a field.

    Prime and Fermat fields enumerate 1, 2, ..., n (0 appears last, only
    when n = q).  Binary fields enumerate powers of the primitive element
    1, w, w^2, ..., again with 0 appended last when n = q.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > field.q:
        raise FieldTooSmall(f"need {n} points but {field!r} has {field.q} elements")
    if field.kind != "binary":
        return [(i + 1) % field.q for i in range(n)]
    pts = field._exp[: min(n, field.q - 1)].tolist()  # type: ignore[attr-defined]
    return pts + [0] if n == field.q else pts


def _prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def primitive_element(field: Field) -> int:
    """Smallest generator of the multiplicative group."""
    if field.kind == "binary":
        return field.omega  # type: ignore[attr-defined]
    if field.kind == "fermat":
        return FERMAT_GENERATOR
    p = field.q
    if p == 2:
        return 1
    order = p - 1
    factors = _prime_factors(order)
    for g in range(2, p):
        if all(pow(g, order // f, p) != 1 for f in factors):
            return g
    raise NonPrimeModulus(f"no primitive root found for {p}")


def powers(field: Field, x, count: int) -> np.ndarray:
    """x^0 .. x^(count-1) along a new last axis, for one value x or an array
    of values; by doubling, one vmul per doubling."""
    x = np.asarray(x, np.int64)
    out = np.ones(x.shape + (count,), dtype=np.int64)
    if count > 1:
        out[..., 1] = x
    done = 1  # out[..., :done + 1] holds x^0 .. x^done
    while done + 1 < count:
        step = min(done, count - 1 - done)
        out[..., done + 1:done + 1 + step] = field.vmul(out[..., 1:step + 1], out[..., done, None])
        done += step
    return out


# ---------------------------------------------------------------------------
# number-theoretic transform on the Fermat field
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _bit_reverse_permutation(size: int) -> np.ndarray:
    bits = size.bit_length() - 1
    idx = np.arange(size)
    rev = np.zeros(size, dtype=np.int64)
    for _ in range(bits):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    return rev


def _require_fermat(field: Field) -> FermatField:
    if field.kind != "fermat":
        raise WrongField(f"NTT requires the Fermat field, got {field!r}")
    return field  # type: ignore[return-value]


def _check_size(size: int) -> int:
    if size < 1 or size & (size - 1):
        raise NotPowerOfTwo(f"size {size} is not a power of two")
    if size > FERMAT_PRIME - 1:
        raise NotPowerOfTwo(f"size {size} exceeds 65536")
    return size.bit_length() - 1


def _butterflies(a: np.ndarray, w: int, p: int) -> np.ndarray:
    """Iterative radix-2 transform of `a` with root w of order len(a)."""
    size = len(a)
    a = a[_bit_reverse_permutation(size)]
    span = 2
    while span <= size:
        half = span // 2
        w_span = pow(w, size // span, p)
        tw = np.empty(half, dtype=np.int64)
        acc = 1
        for i in range(half):
            tw[i] = acc
            acc = (acc * w_span) % p
        blocks = a.reshape(-1, span)
        even = blocks[:, :half].copy()
        odd = (blocks[:, half:] * tw) % p
        blocks[:, :half] = (even + odd) % p
        blocks[:, half:] = (even - odd) % p
        a = blocks.reshape(-1)
        span *= 2
    return a


def ntt_evaluate(
    field: Field,
    coeffs: Sequence[int] | Iterable[int],
    size: int,
    counter: OpCounter | None = None,
) -> list[int]:
    """Evaluate a polynomial at the size-th roots of unity, in root-power order.

    Output j is C(w^j) for w the canonical root of order `size`.  Agrees
    elementwise with naive Horner evaluation at those points.
    """
    f = _require_fermat(field)
    stages = _check_size(size)
    coeffs = list(coeffs)
    if len(coeffs) > size:
        raise ValueError(f"{len(coeffs)} coefficients exceed transform size {size}")
    p = f.p
    a = np.zeros(size, dtype=np.int64)
    a[: len(coeffs)] = f.varray(coeffs)
    if size == 1:
        return [int(a[0])]
    a = _butterflies(a, f.root_of_unity(size), p)
    charge(counter, (size // 2) * stages, size * stages)
    return a.tolist()


def ntt_interpolate(
    field: Field,
    evals: Sequence[int],
    counter: OpCounter | None = None,
) -> list[int]:
    """Inverse of ntt_evaluate: coefficients from all `size` evaluations."""
    f = _require_fermat(field)
    size = len(evals)
    stages = _check_size(size)
    p = f.p
    if size == 1:
        return [int(f.check(evals[0]))]
    # transform with w^-1, then scale by size^-1
    a = _butterflies(f.varray(evals), f.inv(f.root_of_unity(size)), p)
    n_inv = f.inv(size % p)
    a = (a * n_inv) % p
    charge(counter, (size // 2) * stages + size, size * stages)
    return a.tolist()


def ntt_points(field: Field, n: int) -> list[int]:
    """First n powers of the canonical root of unity of order next_pow2(n)."""
    f = _require_fermat(field)
    return powers(f, f.root_of_unity(1 << max(0, n - 1).bit_length()), n).tolist()
