"""Dense linear algebra over a Field.

FieldMatrix wraps a numpy int64 array of field values together with its
field.  Products, Gauss-Jordan inversion, the LU factorization with
inverted factors, Vandermonde builders, the congruent transformation and
skew-symmetric validation live here, and so does the full-read solve of
a product-matrix data collector, which the rbt and mbr codecs share.
Ops that perform field arithmetic accept an explicit OpCounter.

Every codec keeps its message in one triangle of a symmetric (or skew)
matrix: `triangle` gives the slots of those symbols, row-major, and
`symmetric_from_triangle` fills the matrix from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .counting import OpCounter
from .errors import (
    DimensionMismatch,
    DuplicateIndex,
    DuplicatePoints,
    FieldMismatch,
    FieldTooSmall,
    IndexOutOfRange,
    NotSkewSymmetric,
    SingularMatrix,
    WrongMessageLength,
)
from .gf import Elem, Field, enumerate_points


def _values(data) -> list:
    out = []
    for row in data:
        out.append([int(v) for v in row])
    return out


class FieldMatrix:
    """Immutable-by-convention dense matrix of field values."""

    __slots__ = ("field", "a")

    def __init__(self, field: Field, data):
        if isinstance(data, np.ndarray):
            a = data.astype(np.int64, copy=True)
        else:
            a = np.array(_values(data), dtype=np.int64)
            if a.ndim == 1:  # empty row list
                a = a.reshape(0, 0)
        if a.ndim != 2:
            raise DimensionMismatch(f"expected 2-D data, got shape {a.shape}")
        if a.size and ((a < 0).any() or (a >= field.q).any()):
            raise ValueError("matrix entries outside field range")
        self.field = field
        self.a = a

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    def __getitem__(self, rc) -> int:
        r, c = rc
        return int(self.a[r, c])

    def elem(self, r: int, c: int) -> Elem:
        return Elem(self.field, int(self.a[r, c]))

    def tolist(self) -> list[list[int]]:
        return self.a.tolist()

    def row(self, r: int) -> list[int]:
        return self.a[r].tolist()

    def col(self, c: int) -> list[int]:
        return self.a[:, c].tolist()

    def copy(self) -> "FieldMatrix":
        return FieldMatrix(self.field, self.a)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldMatrix)
            and self.field == other.field
            and self.a.shape == other.a.shape
            and bool((self.a == other.a).all())
        )

    def __hash__(self):
        return hash((self.field, self.a.shape, self.a.tobytes()))

    def __repr__(self):
        return f"FieldMatrix({self.field!r}, {self.a.tolist()})"


def zeros(field: Field, rows: int, cols: int) -> FieldMatrix:
    return FieldMatrix(field, np.zeros((rows, cols), dtype=np.int64))


def identity(field: Field, n: int) -> FieldMatrix:
    return FieldMatrix(field, np.eye(n, dtype=np.int64))


def check_message(field: Field, u: Sequence[int], count: int) -> list[int]:
    """The message symbols as ints, range-checked before the length check."""
    u = field.varray(u).tolist()
    if len(u) != count:
        raise WrongMessageLength(f"got {len(u)} symbols, B={count}")
    return u


@lru_cache(maxsize=None)
def triangle(rows: int, offset: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """(row, col) index arrays of the upper triangle of a rows x cols block,
    row-major; offset 0 keeps the diagonal, offset 1 leaves it out."""
    slots = np.triu_indices(rows, offset, cols)
    for idx in slots:
        idx.setflags(write=False)
    return slots


def symmetric_from_triangle(field: Field, size: int, slots: tuple[np.ndarray, np.ndarray],
                            values: Sequence[int], skew: bool = False) -> FieldMatrix:
    """size x size matrix holding `values` on `slots` and their mirror images
    below the diagonal, negated when `skew`."""
    vals = np.array(values, dtype=np.int64)
    rows, cols = slots
    a = np.zeros((size, size), dtype=np.int64)
    a[rows, cols] = vals
    a[cols, rows] = field.vneg(vals) if skew else vals
    return FieldMatrix(field, a)


def _same_field(a: FieldMatrix, b: FieldMatrix):
    if a.field != b.field:
        raise FieldMismatch(f"{a.field!r} vs {b.field!r}")


def mat_mul(a: FieldMatrix, b: FieldMatrix, counter: OpCounter | None = None) -> FieldMatrix:
    """Product; counts rows*cols*inner multiplications."""
    _same_field(a, b)
    if a.cols != b.rows:
        raise DimensionMismatch(f"({a.rows}x{a.cols}) @ ({b.rows}x{b.cols})")
    out = a.field.matmul(a.a, b.a)
    if counter is not None:
        counter.count_mul(a.rows * b.cols * a.cols)
        counter.count_add(a.rows * b.cols * max(0, a.cols - 1))
    return FieldMatrix(a.field, out)


def mat_add(a: FieldMatrix, b: FieldMatrix, counter: OpCounter | None = None) -> FieldMatrix:
    _same_field(a, b)
    if a.a.shape != b.a.shape:
        raise DimensionMismatch(f"{a.a.shape} vs {b.a.shape}")
    if counter is not None:
        counter.count_add(a.rows * a.cols)
    return FieldMatrix(a.field, a.field.vadd(a.a, b.a))


def mat_sub(a: FieldMatrix, b: FieldMatrix, counter: OpCounter | None = None) -> FieldMatrix:
    _same_field(a, b)
    if a.a.shape != b.a.shape:
        raise DimensionMismatch(f"{a.a.shape} vs {b.a.shape}")
    if counter is not None:
        counter.count_add(a.rows * a.cols)
    return FieldMatrix(a.field, a.field.vsub(a.a, b.a))


def mat_neg(a: FieldMatrix, counter: OpCounter | None = None) -> FieldMatrix:
    if counter is not None and a.field.characteristic != 2:
        counter.count_add(a.rows * a.cols)
    return FieldMatrix(a.field, a.field.vneg(a.a))


def transpose(a: FieldMatrix) -> FieldMatrix:
    return FieldMatrix(a.field, a.a.T)


def submatrix_rows(a: FieldMatrix, indices: Sequence[int]) -> FieldMatrix:
    """Rows of `a` in the exact order given (0-based indices)."""
    idx = list(indices)
    seen = set()
    for i in idx:
        if not 0 <= i < a.rows:
            raise IndexOutOfRange(f"row {i} outside [0, {a.rows})")
        if i in seen:
            raise DuplicateIndex(f"row {i} requested twice")
        seen.add(i)
    if not idx:
        return zeros(a.field, 0, a.cols)
    return FieldMatrix(a.field, a.a[idx, :])


def _gauss_jordan(field: Field, aug: np.ndarray, counter: OpCounter | None) -> np.ndarray:
    """In-place Gauss-Jordan with first-nonzero pivoting; returns aug."""
    n = aug.shape[0]
    width = aug.shape[1]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if aug[r, col] != 0:
                piv = r
                break
        if piv is None:
            raise SingularMatrix(f"zero pivot column {col}")
        if piv != col:
            aug[[col, piv]] = aug[[piv, col]]
        pv = int(aug[col, col])
        if pv != 1:
            aug[col] = field.vmul(aug[col], field.inv(pv))
        factors = aug[:, col].copy()
        factors[col] = 0
        update = field.vmul(factors[:, None], aug[col][None, :])
        aug[:] = field.vsub(aug, update)
        if counter is not None:
            counter.count_mul(width + 1)  # pivot inverse + row scale
            counter.count_mul((n - 1) * width)
            counter.count_add((n - 1) * width)
    return aug


def mat_inv(a: FieldMatrix, counter: OpCounter | None = None) -> FieldMatrix:
    """Gauss-Jordan inverse; raises SingularMatrix at the first zero pivot column."""
    if a.rows != a.cols:
        raise DimensionMismatch(f"cannot invert {a.rows}x{a.cols}")
    n = a.rows
    if n == 0:
        return zeros(a.field, 0, 0)
    aug = np.concatenate([a.a.copy(), np.eye(n, dtype=np.int64)], axis=1)
    aug = _gauss_jordan(a.field, aug, counter)
    return FieldMatrix(a.field, aug[:, n:])


def solve_cost(n: int, cols: int) -> tuple[int, int]:
    """(mul, add) that mat_solve counts for an n x n system with `cols`
    right-hand sides: per pivot, the pivot inverse, the pivot row scale and
    n-1 row updates of width n + cols."""
    width = n + cols
    return n * (n * width + 1), n * (n - 1) * width


@dataclass(frozen=True)
class FactoredInverse:
    """The inverse of a square matrix kept as two triangular factors,
    a^-1 = second @ first with `first` unit triangular.  A block that is
    leading (or trailing) on both sides is the factored inverse of the same
    block of a, which `block` takes."""

    field: Field
    first: np.ndarray
    second: np.ndarray

    @property
    def rows(self) -> int:
        return self.first.shape[0]

    def block(self, part: slice) -> FactoredInverse:
        return FactoredInverse(self.field, self.first[part, part], self.second[part, part])


def mat_solve(a: FieldMatrix | FactoredInverse, b: FieldMatrix,
              counter: OpCounter | None = None) -> FieldMatrix:
    """Solve a @ x = b for x via Gauss-Jordan on the augmented system, or,
    when `a` comes factored, by its two triangular products: n^2 mul and
    n(n-1) add per column of b, the unit diagonal being free."""
    _same_field(a, b)
    if isinstance(a, FactoredInverse):
        if a.rows != b.rows:
            raise DimensionMismatch(f"rhs has {b.rows} rows, expected {a.rows}")
        if counter is not None:
            counter.count_mul(b.cols * a.rows * a.rows)
            counter.count_add(b.cols * a.rows * (a.rows - 1))
        return FieldMatrix(a.field, a.field.matmul(a.second, a.field.matmul(a.first, b.a)))
    if a.rows != a.cols:
        raise DimensionMismatch(f"coefficient matrix {a.rows}x{a.cols} not square")
    if a.rows != b.rows:
        raise DimensionMismatch(f"rhs has {b.rows} rows, expected {a.rows}")
    n = a.rows
    if n == 0:
        return zeros(a.field, 0, b.cols)
    aug = np.concatenate([a.a.copy(), b.a.copy()], axis=1)
    aug = _gauss_jordan(a.field, aug, counter)
    return FieldMatrix(a.field, aug[:, n:])


@dataclass(frozen=True)
class TriangularInverses:
    """P A = L U, kept as the inverses of its factors: a[perm] = L U with L
    unit lower triangular and U upper triangular.  Arrays are read-only;
    `mul` and `add` are the counted cost of building them."""

    perm: np.ndarray
    l_inv: np.ndarray
    u_inv: np.ndarray
    mul: int
    add: int


def lu_inverses(field: Field, a: np.ndarray) -> TriangularInverses:
    """LU with first-nonzero row pivoting, then L^-1 and U^-1.

    Every elimination and inversion step is one vectorized row update.
    Counts follow the structure: an update touches only the triangle a
    factor occupies, and a product with a unit diagonal entry is free.
    The pivot inverses are computed once and reused for U^-1.  Raises
    SingularMatrix at the first column without a nonzero pivot.
    """
    n = a.shape[0]
    lu = np.array(a, dtype=np.int64)
    perm = np.arange(n)
    piv_inv = np.empty(n, dtype=np.int64)
    mul = add = 0
    for j in range(n):
        if lu[j, j] == 0:
            nz = np.flatnonzero(lu[j:, j])
            if not nz.size:
                raise SingularMatrix(f"zero pivot column {j}")
            p = j + int(nz[0])
            lu[[j, p]] = lu[[p, j]]
            perm[[j, p]] = perm[[p, j]]
        piv_inv[j] = field.inv(int(lu[j, j]))
        below = slice(j + 1, None)
        lu[below, j] = field.vmul(lu[below, j], piv_inv[j])  # column j of L
        lu[below, below] = field.vsub(lu[below, below],
                                      field.vmul(lu[below, j, None], lu[None, j, below]))
        m = n - 1 - j
        mul += 1 + m + m * m
        add += m * m
    # L^-1 = E_{n-2} ... E_0 with E_j = I - l_j e_j^t; row j of the partial
    # product is nonzero in columns 0..j only, with a unit diagonal
    l_inv = np.eye(n, dtype=np.int64)
    for j in range(n - 1):
        rows, cols = slice(j + 1, None), slice(None, j + 1)
        l_inv[rows, cols] = field.vsub(l_inv[rows, cols],
                                       field.vmul(lu[rows, j, None], l_inv[None, j, cols]))
        mul += (n - 1 - j) * j
        add += (n - 1 - j) * (j + 1)
    # U^-1 by backward Gauss-Jordan on [U | I]: scale row j, then clear
    # column j above it; row j of the right half is nonzero in columns j..n-1
    u_inv = np.eye(n, dtype=np.int64)
    for j in range(n - 1, -1, -1):
        cols = slice(j, None)
        u_inv[j, cols] = field.vmul(u_inv[j, cols], piv_inv[j])
        u_inv[:j, cols] = field.vsub(u_inv[:j, cols],
                                     field.vmul(lu[:j, j, None], u_inv[None, j, cols]))
        mul += (n - 1 - j) + j * (n - j)
        add += j * (n - j)
    for arr in (perm, l_inv, u_inv):
        arr.setflags(write=False)
    return TriangularInverses(perm, l_inv, u_inv, mul, add)


def data_collector(psi: FieldMatrix, k: int, nodes: Sequence[int],
                   order: Sequence[int]) -> tuple[FieldMatrix, FieldMatrix]:
    """Phi_DC and Delta_DC of a product-matrix data collector: the first k
    and the remaining columns of psi's rows, the row of node nodes[j]
    (1-based) placed in row order[j]-1."""
    rows = np.zeros((k, psi.cols), dtype=np.int64)
    rows[[g - 1 for g in order]] = psi.a[[i - 1 for i in nodes]]
    return FieldMatrix(psi.field, rows[:, :k]), FieldMatrix(psi.field, rows[:, k:])


def collector_inverse(phi_dc: FieldMatrix, counter: OpCounter | None) -> FieldMatrix:
    """Phi_DC^-1; a singular Phi_DC means the encoding matrix breaks the
    code's conditions."""
    try:
        return mat_inv(phi_dc, counter)
    except SingularMatrix as exc:
        raise SingularMatrix("encoding-matrix conditions violated during reconstruction") from exc


def solve_message_block(phi_inv: FieldMatrix, delta_dc: FieldMatrix, c_dc: FieldMatrix,
                        skew: bool, counter: OpCounter | None) -> tuple[FieldMatrix, FieldMatrix]:
    """S and T of a message matrix M = [[S, T], [-+T^t, 0]] from the k rows
    C_DC = Psi_DC M a data collector holds, given Phi_DC^-1.

    T = Phi_DC^-1 C^Delta, then S = Phi_DC^-1 (C^Phi -+ Delta_DC T^t): the
    lower-left block of M is T^t for a symmetric M and -T^t for a skew one.
    """
    k = phi_inv.rows
    c_phi = FieldMatrix(c_dc.field, c_dc.a[:, :k])
    c_delta = FieldMatrix(c_dc.field, c_dc.a[:, k:])
    t = mat_mul(phi_inv, c_delta, counter)
    dt = mat_mul(delta_dc, transpose(t), counter)
    s = mat_mul(phi_inv, (mat_add if skew else mat_sub)(c_phi, dt, counter), counter)
    return s, t


def vandermonde(field: Field, n: int, k: int,
                points: Sequence[int | Elem] | None = None) -> FieldMatrix:
    """n x k matrix with entry [i, j] = points[i]^j, j = 0..k-1."""
    if points is None:
        points = enumerate_points(field, n)
    pts = [int(p) for p in points]
    if len(pts) != n:
        raise DimensionMismatch(f"{len(pts)} points for n={n}")
    if len(set(pts)) != len(pts):
        raise DuplicatePoints("evaluation points must be distinct")
    if n > field.q:
        raise FieldTooSmall(f"n={n} exceeds field size {field.q}")
    out = np.empty((n, k), dtype=np.int64)
    if k > 0:
        col = np.ones(n, dtype=np.int64)
        pa = field.varray(pts)
        for j in range(k):
            out[:, j] = col
            if j + 1 < k:
                col = field.vmul(col, pa)
    return FieldMatrix(field, out)


def extended_vandermonde(field: Field, n: int, k: int) -> FieldMatrix:
    """Generator of a (doubly) extended RS code: any k of the n rows are independent.

    Row 0 evaluates at zero (e_1); the next rows evaluate at the canonical
    nonzero points; when n = q+1 the last row is the point at infinity
    (e_k).  For n <= q this is a plain Vandermonde matrix with 0 prepended
    to the point list.
    """
    if k > n:
        raise DimensionMismatch(f"k={k} exceeds n={n}")
    if n > field.q + 1:
        raise FieldTooSmall(f"n={n} exceeds q+1={field.q + 1}")
    if k == 0 or n == 0:
        return zeros(field, n, k)
    use_infinity = n == field.q + 1
    finite = n - 1 if use_infinity else n
    pts = [0] + [int(e) for e in enumerate_points(field, finite - 1)]
    body = vandermonde(field, finite, k, pts)
    if not use_infinity:
        return body
    inf_row = np.zeros((1, k), dtype=np.int64)
    inf_row[0, k - 1] = 1
    return FieldMatrix(field, np.concatenate([body.a, inf_row], axis=0))


def congruence(p: FieldMatrix, m: FieldMatrix, counter: OpCounter | None = None) -> FieldMatrix:
    """P @ M @ P^t; maps skew-symmetric M to skew-symmetric output."""
    _same_field(p, m)
    if m.rows != m.cols or p.cols != m.rows:
        raise DimensionMismatch(f"congruence of ({p.rows}x{p.cols}) with ({m.rows}x{m.cols})")
    return mat_mul(mat_mul(p, m, counter), transpose(p), counter)


def is_skew_symmetric(a: FieldMatrix) -> bool:
    if a.rows != a.cols:
        return False
    if a.rows == 0:
        return True
    if (np.diagonal(a.a) != 0).any():
        return False
    return bool((a.field.vneg(a.a.T) == a.a).all())


def require_skew_symmetric(a: FieldMatrix) -> FieldMatrix:
    """Zero diagonal is demanded explicitly: in characteristic 2 the
    off-diagonal condition alone would not force it."""
    if not is_skew_symmetric(a):
        raise NotSkewSymmetric("matrix is not skew-symmetric with zero diagonal")
    return a


def is_symmetric_zero_diag(a: FieldMatrix) -> bool:
    if a.rows != a.cols:
        return False
    if a.rows == 0:
        return True
    if (np.diagonal(a.a) != 0).any():
        return False
    return bool((a.a.T == a.a).all())


def hstack(a: FieldMatrix, b: FieldMatrix) -> FieldMatrix:
    _same_field(a, b)
    if a.rows != b.rows:
        raise DimensionMismatch(f"{a.rows} vs {b.rows} rows")
    return FieldMatrix(a.field, np.concatenate([a.a, b.a], axis=1))


def vstack(a: FieldMatrix, b: FieldMatrix) -> FieldMatrix:
    _same_field(a, b)
    if a.cols != b.cols:
        raise DimensionMismatch(f"{a.cols} vs {b.cols} cols")
    return FieldMatrix(a.field, np.concatenate([a.a, b.a], axis=0))
