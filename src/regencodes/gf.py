"""Finite-field arithmetic for the codecs.

Three kinds of field are supported:

* prime fields GF(p) for primes p <= 65537,
* binary extension fields GF(2^m) for 1 <= m <= 16, with a fixed
  primitive reduction polynomial per degree (see REDUCTION_POLYS),
* the Fermat field GF(65537), a prime field whose multiplicative group
  has order 2^16 and therefore supports radix-2 number-theoretic
  transforms up to length 65536.

Scalar values are plain ints in [0, q); Elem wraps one together with its
owning field and gives operator syntax.  Every field also exposes
vectorized numpy helpers (vadd/vmul/matmul/...) used by the matrix layer;
binary fields back them with log/antilog tables, prime fields with int64
modular arithmetic.  All objects are immutable after construction and all
operations are pure, so unrestricted concurrent use is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .counting import OpCounter
from .errors import (
    DimensionMismatch,
    DivisionByZero,
    FieldMismatch,
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


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


class Field:
    """Base class; use prime_field / binary_field / fermat_field / field_new."""

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

    def elem(self, value: int) -> "Elem":
        return Elem(self, self.check(value))

    def check(self, value: int) -> int:
        v = int(value)
        if not 0 <= v < self.q:
            raise ValueError(f"value {v} outside [0, {self.q})")
        return v

    # -- vectorized API (numpy int64 arrays of values) --------------------

    def varray(self, data) -> np.ndarray:
        a = np.asarray(data, dtype=np.int64)
        if a.size and ((a < 0).any() or (a >= self.q).any()):
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

    def vinv(self, a) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        if a.size and (a == 0).any():
            raise DivisionByZero("inverse of zero")
        return self.vpow(a, self.q - 2)

    def vpow(self, a, e: int) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        r = np.ones_like(a)
        base = a
        while e:
            if e & 1:
                r = self.vmul(r, base)
            base = self.vmul(base, base)
            e >>= 1
        return r

    def matmul(self, a, b) -> np.ndarray:
        raise NotImplementedError

    # -- identity / serialization -----------------------------------------

    def _key(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


class PrimeField(Field):
    kind = "prime"

    def __init__(self, p: int):
        if not _is_prime(p):
            raise NonPrimeModulus(f"{p} is not prime")
        if p > _MAX_PRIME:
            raise NonPrimeModulus(f"primes above {_MAX_PRIME} are not supported")
        self.p = p
        self.q = p

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
        # extended Euclid
        if a == 0:
            raise DivisionByZero("inverse of zero")
        t, new_t = 0, 1
        r, new_r = self.p, a
        while new_r:
            quot = r // new_r
            t, new_t = new_t, t - quot * new_t
            r, new_r = new_r, r - quot * new_r
        return t % self.p

    def vadd(self, a, b):
        return (np.asarray(a, np.int64) + np.asarray(b, np.int64)) % self.p

    def vsub(self, a, b):
        return (np.asarray(a, np.int64) - np.asarray(b, np.int64)) % self.p

    def vneg(self, a):
        return (-np.asarray(a, np.int64)) % self.p

    def vmul(self, a, b):
        return (np.asarray(a, np.int64) * np.asarray(b, np.int64)) % self.p

    def matmul(self, a, b):
        # products stay below (p-1)^2 * inner < 2^63 for the sizes in use
        return (np.asarray(a, np.int64) @ np.asarray(b, np.int64)) % self.p

    def _key(self):
        return (self.kind, self.p)

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

    def _key(self):
        return (self.kind, self.p)

    def __repr__(self):
        return "GF(65537)"


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
        q = self.q
        exp = np.zeros(max(2 * (q - 1), 1), dtype=np.int64)
        log = np.zeros(q, dtype=np.int64)
        v = 1
        for i in range(q - 1):
            exp[i] = v
            log[v] = i
            v <<= 1
            if v & q:
                v ^= self.poly
        if v != 1 or len(set(exp[: q - 1].tolist())) != q - 1:
            raise UnsupportedDegree(f"reduction polynomial for m={self.m} is not primitive")
        exp[q - 1 :] = exp[: q - 1]
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
        if a == 0 or b == 0:
            return 0
        return int(self._exp[int(self._log[a]) + int(self._log[b])])

    def inv(self, a):
        # exponentiation a^(q-2); table-backed multiplies underneath
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return self.pow_(a, self.q - 2)

    def vadd(self, a, b):
        return np.asarray(a, np.int64) ^ np.asarray(b, np.int64)

    vsub = vadd

    def vneg(self, a):
        return np.asarray(a, np.int64)

    def vmul(self, a, b):
        a = np.asarray(a, np.int64)
        b = np.asarray(b, np.int64)
        out = self._exp[self._log[a] + self._log[b]]
        zero = (a == 0) | (b == 0)
        return np.where(zero, 0, out)

    def matmul(self, a, b):
        a = np.asarray(a, np.int64)
        b = np.asarray(b, np.int64)
        r, inner = a.shape
        inner2, c = b.shape
        if inner != inner2:
            raise DimensionMismatch(f"({r}x{inner}) @ ({inner2}x{c})")
        if r * inner * c == 0:
            return np.zeros((r, c), dtype=np.int64)
        out = np.zeros((r, c), dtype=np.int64)
        # chunk rows so the (rows, inner, c) product tensor stays small
        chunk = max(1, (1 << 21) // max(1, inner * c))
        logb = self._log[b]
        bzero = b == 0
        for lo in range(0, r, chunk):
            hi = min(r, lo + chunk)
            ab = a[lo:hi]
            prod = self._exp[self._log[ab][:, :, None] + logb[None, :, :]]
            zero = (ab == 0)[:, :, None] | bzero[None, :, :]
            prod = np.where(zero, 0, prod)
            out[lo:hi] = np.bitwise_xor.reduce(prod, axis=1)
        return out

    def _key(self):
        return (self.kind, self.m, self.poly)

    def __repr__(self):
        return f"GF(2^{self.m})"


@dataclass(frozen=True)
class Elem:
    """A single field element: a value in [0, q) tied to its field."""

    field: Field
    value: int

    def _coerce(self, other) -> "Elem | None":
        if isinstance(other, Elem):
            if other.field != self.field:
                raise FieldMismatch(f"{self.field!r} vs {other.field!r}")
            return other
        if isinstance(other, int):
            return Elem(self.field, self.field.check(other))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Elem(self.field, self.field.add(self.value, o.value))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Elem(self.field, self.field.sub(self.value, o.value))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Elem(self.field, self.field.sub(o.value, self.value))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Elem(self.field, self.field.mul(self.value, o.value))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Elem(self.field, self.field.div(self.value, o.value))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Elem(self.field, self.field.div(o.value, self.value))

    def __neg__(self):
        return Elem(self.field, self.field.neg(self.value))

    def __pow__(self, e: int):
        return Elem(self.field, self.field.pow_(self.value, e))

    def __int__(self):
        return self.value

    def __bool__(self):
        return bool(self.value)

    def __repr__(self):
        return f"{self.value}"


_FIELD_CACHE: dict[tuple, Field] = {}


def field_new(kind: str, parameter: int | None = None) -> Field:
    """Create (or fetch the cached) field of the given kind.

    kind "prime" takes the prime p, "binary" the degree m, "fermat" no
    parameter.  Instances are interned so repeated calls return the same
    object.
    """
    if kind == "prime":
        key = ("prime", parameter)
    elif kind == "binary":
        key = ("binary", parameter)
    elif kind == "fermat":
        key = ("fermat",)
    else:
        raise ValueError(f"unknown field kind {kind!r}")
    f = _FIELD_CACHE.get(key)
    if f is None:
        if kind == "prime":
            f = PrimeField(int(parameter))
        elif kind == "binary":
            f = BinaryField(int(parameter))
        else:
            f = FermatField()
        _FIELD_CACHE[key] = f
    return f


def prime_field(p: int) -> PrimeField:
    return field_new("prime", p)  # type: ignore[return-value]


def binary_field(m: int) -> BinaryField:
    return field_new("binary", m)  # type: ignore[return-value]


def fermat_field() -> FermatField:
    return field_new("fermat")  # type: ignore[return-value]


def arith(a: Elem, b: Elem, op: str) -> Elem:
    """Binary field arithmetic on two elements of the same field."""
    if not isinstance(a, Elem) or not isinstance(b, Elem):
        raise TypeError("arith operates on Elem values")
    if a.field != b.field:
        raise FieldMismatch(f"{a.field!r} vs {b.field!r}")
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError(f"unknown op {op!r}")


def inv(a: Elem) -> Elem:
    if a.value == 0:
        raise DivisionByZero("inverse of zero")
    return Elem(a.field, a.field.inv(a.value))


def enumerate_points(field: Field, n: int) -> list[Elem]:
    """The canonical first n distinct evaluation points of a field.

    Prime and Fermat fields enumerate 1, 2, ..., n (0 appears last, only
    when n = q).  Binary fields enumerate powers of the primitive element
    1, w, w^2, ..., again with 0 appended last when n = q.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > field.q:
        raise FieldTooSmall(f"need {n} points but {field!r} has {field.q} elements")
    if field.kind in ("prime", "fermat"):
        return [Elem(field, (i + 1) % field.q) for i in range(n)]
    bf: BinaryField = field  # type: ignore[assignment]
    pts = []
    for i in range(min(n, field.q - 1)):
        pts.append(Elem(field, int(bf._exp[i])))
    if n == field.q:
        pts.append(Elem(field, 0))
    return pts


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
    if coeffs:
        a[: len(coeffs)] = f.varray(coeffs)
    if size == 1:
        return [int(a[0])]
    a = _butterflies(a, f.root_of_unity(size), p)
    if counter is not None:
        counter.count_mul((size // 2) * stages)
        counter.count_add(size * stages)
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
    if counter is not None:
        counter.count_mul((size // 2) * stages + size)
        counter.count_add(size * stages)
    return a.tolist()


def ntt_points(field: Field, n: int) -> list[Elem]:
    """First n powers of the canonical root of unity of order next_pow2(n)."""
    f = _require_fermat(field)
    size = 1
    while size < n:
        size *= 2
    w = f.root_of_unity(size)
    pts, acc = [], 1
    for _ in range(n):
        pts.append(Elem(f, acc))
        acc = (acc * w) % f.p
    return pts
