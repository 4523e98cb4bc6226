"""Dense linear algebra over a Field, on plain int64 arrays.

Every kernel takes the field first and numpy int64 arrays of field
values after, and returns int64 arrays: products, sums, the congruent
transformation, Vandermonde builders, skew-symmetric validation and the
full-read solve of a product-matrix data collector, whose rows come in
its node order, which the rbt and mbr codecs share.  Kernels trust their arrays; values from callers are
range-checked once, by `Field.varray`, where they enter the library.
Ops that perform field arithmetic accept an explicit OpCounter.

The elimination kernels, Gauss-Jordan behind `mat_inv`, `mat_solve` and
`is_singular` and the LU of `lu_inverses` (a `FactoredInverse`, which
`mat_solve` applies by two triangular products), skip the unit rows of their
system.  Systematic codes put [I_k 0] in their encoding matrix, so about half
the rows of a repair or data-collector system are unit vectors: a row e_s
fixes unknown s, and elimination runs on the block that remains.  Over prime
fields the row updates stay unreduced; only the pivot column and row are
reduced before use, and the working array once at the end (n updates of
values below p^2 stay far below 2^63).  Outputs, pivoting and
`SingularMatrix` are those of the dense elimination, and so are the counted
operations: OpCounter charges products regardless of zero entries.  The LU
does not pivot: a zero pivot, which means a singular leading block, raises
`SingularMatrix`.  `mat_mul` copies the unit rows of its left factor and
leaves its zero rows at zero, again at the dense count.

Every systematic generator (psrs, rbt-sys, shah) is the Lagrange basis at
the first k of its points, which `lagrange_rows` evaluates in barycentric
form: `systematic_generator` stacks it under I_k, and `interpolation_inverse`
gives Phi_DC^-1 of a psrs or rbt-sys (n <= q) collector from it, computing
only the rows of the systematic points the collector lacks;
`collector_inverse` alone picks it or Gauss-Jordan for a full read.

FieldMatrix pairs an array with its field in one place only: the system
of `mat_inv` and `mat_solve`, whose field and `rows` travel with it.  Its
constructor copies and range-checks the data.

Every codec keeps its message in one triangle of a symmetric (or skew)
matrix: `triangle` gives the slots of those symbols, row-major, and
`symmetric_from_triangle` fills the matrix from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .counting import OpCounter, charge
from .errors import (
    DimensionMismatch,
    DuplicatePoints,
    FieldTooSmall,
    NotSkewSymmetric,
    SingularMatrix,
    WrongMessageLength,
)
from .gf import Field, enumerate_points, powers


class FieldMatrix:
    """The system of mat_inv and mat_solve: a dense matrix of field values
    with its field."""

    __slots__ = ("field", "a")

    def __init__(self, field: Field, data):
        a = np.array(field.varray(data), dtype=np.int64)
        if a.ndim != 2:
            raise DimensionMismatch(f"expected 2-D data, got shape {a.shape}")
        self.field = field
        self.a = a

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]


def frozen(a: np.ndarray) -> np.ndarray:
    """`a`, made read-only: cached matrices are shared by every caller."""
    a.setflags(write=False)
    return a


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
    return tuple(frozen(idx) for idx in np.triu_indices(rows, offset, cols))


def symmetric_from_triangle(field: Field, size: int, slots: tuple[np.ndarray, np.ndarray],
                            values: Sequence[int], skew: bool = False) -> np.ndarray:
    """size x size matrix holding `values` on `slots` and their mirror images
    below the diagonal, negated when `skew`."""
    vals = np.array(values, dtype=np.int64)
    rows, cols = slots
    a = np.zeros((size, size), dtype=np.int64)
    a[rows, cols] = vals
    a[cols, rows] = field.vneg(vals) if skew else vals
    return a


# Products of at least this many multiply-accumulates skip the unit and
# zero rows of their left factor.  Below it the row bookkeeping (about ten
# numpy calls) costs more than the rows it skips: with half the rows unit
# rows, the binary gather kernel gains from about 2^14 and the int64 prime
# kernel from about 2^15 (timeit, 2 CPUs).
_ROW_SKIP_MIN = {"binary": 1 << 14, "prime": 1 << 15, "fermat": 1 << 15}


def mat_mul(field: Field, a: np.ndarray, b: np.ndarray,
            counter: OpCounter | None = None) -> np.ndarray:
    """Product; counts rows*cols*inner multiplications.

    In a large product a unit row e_s of a copies row s of b and a zero row
    gives a zero row; only the other rows of a go to Field.matmul.  Values
    are non-negative, so these are the rows that sum to 1 and to 0."""
    (rows, inner), (inner_b, cols) = a.shape, b.shape
    if inner != inner_b:
        raise DimensionMismatch(f"({rows}x{inner}) @ ({inner_b}x{cols})")
    charge(counter, rows * cols * inner, rows * cols * max(0, inner - 1))
    if rows * inner * cols < _ROW_SKIP_MIN[field.kind]:
        return field.matmul(a, b)
    weight = a.sum(axis=1)
    dense = np.flatnonzero(weight > 1)
    if len(dense) == rows:
        return field.matmul(a, b)
    out = b[a.argmax(axis=1)]  # row s of b for a unit row e_s
    out[weight == 0] = 0
    if len(dense):
        out[dense] = field.matmul(a[dense], b)
    return out


def mat_add(field: Field, a: np.ndarray, b: np.ndarray,
            counter: OpCounter | None = None) -> np.ndarray:
    if a.shape != b.shape:
        raise DimensionMismatch(f"{a.shape} vs {b.shape}")
    charge(counter, add=a.size)
    return field.vadd(a, b)


def mat_sub(field: Field, a: np.ndarray, b: np.ndarray,
            counter: OpCounter | None = None) -> np.ndarray:
    if a.shape != b.shape:
        raise DimensionMismatch(f"{a.shape} vs {b.shape}")
    charge(counter, add=a.size)
    return field.vsub(a, b)


def _unit_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of the unit rows of a matrix of field values: row
    rows[i] is e_{cols[i]}.  Values are non-negative, so these are the rows
    that sum to 1."""
    rows = np.flatnonzero(a.sum(axis=1) == 1)
    return rows, (a[rows].argmax(axis=1) if rows.size else rows)


def _complement(idx: np.ndarray, n: int) -> np.ndarray:
    """The indices in range(n) that are not in idx, ascending."""
    keep = np.ones(n, dtype=bool)
    keep[idx] = False
    return np.flatnonzero(keep)


def _gauss_jordan(field: Field, a: np.ndarray, b: np.ndarray,
                  counter: OpCounter | None) -> np.ndarray:
    """a^-1 b for a square a, by Gauss-Jordan elimination deflated by the
    unit rows of a.

    A row r of a that equals e_s fixes x_s = b_r.  With U those rows, S
    their columns and R, C the other rows and columns, what is left is
    Y x_C = b_R - X b_U for Y = a[R, C] and X = a[R, S], so elimination
    with first-nonzero pivoting runs on [Y | b_R - X b_U] only; for b = I
    the result is a^-1 = [[I, 0], [-Y^-1 X, Y^-1]] up to row and column
    order.  a is singular, and SingularMatrix raised, exactly when two unit
    rows share a column or Y is singular.  Only the pivot column and row
    are reduced before use (Field.vreduce), the rest once at the end.
    Every call that returns is charged the dense elimination, solve_cost.
    """
    n, cols = b.shape
    unit, fixed = _unit_rows(a)
    rest = _complement(unit, n)  # rows left to eliminate
    free = _complement(fixed, n)  # and their unknowns
    if len(free) != len(rest):
        raise SingularMatrix("two unit rows on one column")
    a_rest, rhs = a.take(rest, 0), b.take(rest, 0)
    if unit.size:
        rhs = field.vsub(rhs, field.matmul(a_rest.take(fixed, 1), b.take(unit, 0)))
    aug = np.concatenate([a_rest.take(free, 1), rhs], axis=1)
    m = len(free)
    for col in range(m):
        column = field.vreduce(aug[:, col])
        piv = next((r for r in range(col, m) if column[r]), None)
        if piv is None:
            raise SingularMatrix(f"zero pivot column {free[col]}")
        if piv != col:
            aug[[col, piv]] = aug[[piv, col]]
            column[[col, piv]] = column[[piv, col]]
        row = field.vreduce(aug[col])
        pv = int(column[col])
        if pv != 1:
            row = field.vmul(row, field.inv(pv))
        aug[col] = row
        column[col] = 0
        aug = field.vsub_mul(aug, column[:, None], row[None, :])
    x = np.empty((n, cols), dtype=np.int64)
    x[fixed] = b[unit]
    x[free] = field.vreduce(aug[:, m:])
    charge(counter, *solve_cost(n, cols))
    return x


def mat_inv(a: FieldMatrix, counter: OpCounter | None = None) -> np.ndarray:
    """Gauss-Jordan inverse, deflated by the unit rows of a (see
    _gauss_jordan); raises SingularMatrix for a singular a.

    `a` and the system of mat_solve are FieldMatrix, not arrays: their
    field and `rows` travel with them, and the benchmark tracer counts
    pivots from `rows`."""
    if a.rows != a.cols:
        raise DimensionMismatch(f"cannot invert {a.rows}x{a.cols}")
    return _gauss_jordan(a.field, a.a, np.eye(a.rows, dtype=np.int64), counter)


def solve_cost(n: int, cols: int) -> tuple[int, int]:
    """(mul, add) that mat_solve counts for an n x n system with `cols`
    right-hand sides: per pivot, the pivot inverse, the pivot row scale and
    n-1 row updates of width n + cols."""
    width = n + cols
    return n * (n * width + 1), n * (n - 1) * width


@dataclass(frozen=True)
class FactoredInverse:
    """The inverse of a square matrix a = L U kept as the inverses of its two
    triangular factors: a^-1 b = second @ first @ b, with `first` unit
    triangular.  A block that is leading (or trailing) on both sides is the
    factored inverse of the same block of a, which `block` takes.  Arrays
    are read-only."""

    field: Field
    first: np.ndarray
    second: np.ndarray

    @property
    def rows(self) -> int:
        return self.first.shape[0]

    def block(self, part: slice) -> FactoredInverse:
        return FactoredInverse(self.field, self.first[part, part], self.second[part, part])


def mat_solve(a: FieldMatrix | FactoredInverse, b: np.ndarray,
              counter: OpCounter | None = None) -> np.ndarray:
    """Solve a @ x = b for x via Gauss-Jordan on the augmented system, or,
    when `a` comes factored, by its two triangular products: n^2 mul and
    n(n-1) add per column of b, the unit diagonal being free."""
    rows, cols = b.shape
    if a.rows != rows:
        raise DimensionMismatch(f"rhs has {rows} rows, expected {a.rows}")
    if isinstance(a, FactoredInverse):
        charge(counter, cols * rows * rows, cols * rows * (rows - 1))
        return a.field.matmul(a.second, a.field.matmul(a.first, b))
    if a.rows != a.cols:
        raise DimensionMismatch(f"coefficient matrix {a.rows}x{a.cols} not square")
    return _gauss_jordan(a.field, a.a, b, counter)


def lu_inverses(field: Field, a: np.ndarray,
                counter: OpCounter | None = None) -> FactoredInverse:
    """LU without pivoting, a = L U, returned as the FactoredInverse with
    first = L^-1 and second = U^-1.  It exists exactly when every leading
    block of a is invertible; otherwise some pivot is zero, and
    SingularMatrix is raised.

    A row j of a that equals e_j needs no elimination: no earlier step
    changes it, its pivot is 1, and it is row j of L, U, L^-1 and U^-1.
    Its elementary factor of L^-1, I - l_j e_j^t, commutes with those of
    the earlier steps, and its factor of U^-1, I - u_j e_j^t, with those
    of the later steps.  So both inverses start from the identity with
    these columns set to -L below and -U above the diagonal, one step
    each, and the elimination and both inversion loops run over the other
    steps only.  Every step is one vectorized row update, and only the
    pivot column and row are reduced before use (Field.vreduce).

    Counts are those of the dense factorization and follow its structure:
    an update touches only the triangle a factor occupies, and a product
    with a unit diagonal entry is free: _lu_cost(n), charged to `counter`
    by a call that returns.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"cannot factorize an array of shape {a.shape}")
    n = a.shape[0]
    unit, fixed = _unit_rows(a)
    diag = unit[unit == fixed]  # rows equal to e_j
    steps = _complement(diag, n).tolist()
    lu = np.array(a, dtype=np.int64)
    piv_inv = np.ones(n, dtype=np.int64)
    for j in steps:
        column = field.vreduce(lu[j:, j])
        if column[0] == 0:
            raise SingularMatrix(f"zero pivot in column {j}")
        piv_inv[j] = field.inv(int(column[0]))
        below = slice(j + 1, None)
        factors = field.vmul(column[1:], piv_inv[j])
        lu[below, j] = factors  # column j of L
        lu[below, below] = field.vsub_mul(lu[below, below], factors[:, None],
                                          field.vreduce(lu[j, below])[None, :])
    lu = field.vreduce(lu)
    # both inverses start from the unit rows' elementary factors
    l_inv, u_inv = np.eye(n, dtype=np.int64), np.eye(n, dtype=np.int64)
    l_inv[:, diag] = field.vneg(np.tril(lu, -1)[:, diag])
    u_inv[:, diag] = field.vneg(np.triu(lu, 1)[:, diag])
    l_inv[diag, diag] = u_inv[diag, diag] = 1
    # L^-1 = E_{n-2} ... E_0 with E_j = I - l_j e_j^t; row j of the partial
    # product is nonzero in columns 0..j only, with a unit diagonal
    for j in steps:
        rows, cols = slice(j + 1, None), slice(None, j + 1)
        l_inv[rows, cols] = field.vsub_mul(l_inv[rows, cols], lu[rows, j, None],
                                           field.vreduce(l_inv[j, cols])[None, :])
    l_inv = field.vreduce(l_inv)
    # U^-1 by backward Gauss-Jordan on [U | I]: scale row j, then clear
    # column j above it; row j of the right half is nonzero in columns j..n-1
    for j in reversed(steps):
        cols = slice(j, None)
        row = field.vmul(field.vreduce(u_inv[j, cols]), piv_inv[j])
        u_inv[j, cols] = row
        u_inv[:j, cols] = field.vsub_mul(u_inv[:j, cols], lu[:j, j, None], row[None, :])
    u_inv = field.vreduce(u_inv)
    charge(counter, *_lu_cost(n))
    return FactoredInverse(field, frozen(l_inv), frozen(u_inv))


def is_singular(field: Field, a: np.ndarray) -> bool:
    """Whether the square array `a` has no inverse over the field."""
    try:
        _gauss_jordan(field, a, np.eye(len(a), dtype=np.int64), None)
    except SingularMatrix:
        return True
    return False


def _lu_cost(n: int) -> tuple[int, int]:
    """(mul, add) of lu_inverses: per step j with m = n-1-j rows below it,
    the factorization, then the L^-1 and U^-1 updates."""
    mul = add = 0
    for j in range(n):
        m = n - 1 - j
        mul += 1 + m + m * m + m * j + m + j * (n - j)
        add += m * m + m * (j + 1) + j * (n - j)
    return mul, add


def lagrange_rows(field: Field, base: np.ndarray, query: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(L, w): L[j, i] = l_i(y_j) = P(y_j) w_i / (y_j - x_i) for the Lagrange
    basis l_i of the distinct points x = `base` at the points y = `query`,
    none in x, with P(y) = prod_s (y - x_s) and w_i = prod_{s != i} 1/(x_i -
    x_s), the leading coefficient of l_i.  From one block of differences
    (x_i - x_i set to 1), its row products and one inversion."""
    m, k = len(query), len(base)
    diff = field.vsub(np.concatenate([query, base])[:, None], base[None, :])
    diff[m + np.arange(k), np.arange(k)] = 1
    prods = field.vprod(diff)
    inv = field.vinv(np.concatenate([diff[:m].ravel(), prods[m:]]))
    w = inv[m * k:]
    return field.vmul(field.vmul(inv[:m * k].reshape(m, k), w[None, :]), prods[:m, None]), w


def systematic_generator(field: Field, n: int, k: int, points: np.ndarray) -> np.ndarray:
    """n x k generator V V[:k]^-1 of the code that evaluates polynomials of
    degree < k at the distinct `points`: row j is the Lagrange basis at
    points[:k] taken at points[j], and when n exceeds the number of points
    the last row is the point at infinity, the leading coefficients w."""
    out = np.zeros((n, k), dtype=np.int64)
    out[:k] = np.eye(k, dtype=np.int64)
    if n > k:
        rows, w = lagrange_rows(field, points[:k], points[k:])
        out[k:len(points)] = rows
        if n > len(points):
            out[-1] = w
    return out


def interpolation_inverse(field: Field, points: np.ndarray, rows: Sequence[int],
                          counter: OpCounter | None = None) -> np.ndarray:
    """Phi_DC^-1 in closed form, for Phi the Lagrange basis at the first k of
    the distinct `points` (Phi[j, i] = L_i(points[j])) and row r of Phi_DC
    row rows[r] of Phi.

    Phi_DC maps the values of a polynomial of degree < k at x_0 .. x_{k-1}
    to its values at p_r = points[rows[r]], so its inverse interpolates
    back: entry [i, r] is l_r(x_i) for the Lagrange basis l_r of the points
    p (lagrange_rows).  A systematic point x_i = p_r gives the unit row e_r,
    so only the rows of the c systematic points missing from p are
    computed.  Counts interpolation_cost(k, c).
    """
    k = len(rows)
    rows = np.asarray(rows)
    slots = np.flatnonzero(rows < k)
    out = np.zeros((k, k), dtype=np.int64)
    out[rows[slots], slots] = 1
    missing = _complement(rows[slots], k)
    c = len(missing)
    if c:
        out[missing] = lagrange_rows(field, points[rows], points[missing])[0]
    charge(counter, *interpolation_cost(k, c))
    return out


def collector_inverse(field: Field, phi: np.ndarray, points: np.ndarray | None,
                      rows: Sequence[int], counter: OpCounter | None = None) -> np.ndarray:
    """Phi_DC^-1 of rows `rows` of `phi`: interpolation_inverse when `phi` is
    the Lagrange basis at the first k of `points`, else Gauss-Jordan."""
    if points is not None:
        return interpolation_inverse(field, points, rows, counter)
    return mat_inv(FieldMatrix(field, phi[rows]), counter)


def interpolation_cost(k: int, c: int) -> tuple[int, int]:
    """(mul, add) that interpolation_inverse counts for c missing systematic
    points: the c k + k(k-1) differences, the products of c rows of k and k
    rows of k-1 of them, the c k + k inverses of the c k differences and k
    products, and two products per entry of the c computed rows."""
    if not c:
        return 0, 0
    mul = c * (k - 1) + k * max(0, k - 2) + c * k + k + 2 * c * k
    return mul, c * k + k * (k - 1)


def solve_message_block(field: Field, phi_inv: np.ndarray, delta_dc: np.ndarray,
                        c_dc: np.ndarray, skew: bool,
                        counter: OpCounter | None) -> tuple[np.ndarray, np.ndarray]:
    """S and T of a message matrix M = [[S, T], [-+T^t, 0]] from the k rows
    C_DC = Psi_DC M a data collector holds, given Phi_DC^-1.

    T = Phi_DC^-1 C^Delta, then S = Phi_DC^-1 (C^Phi -+ Delta_DC T^t): the
    lower-left block of M is T^t for a symmetric M and -T^t for a skew one.
    """
    k = phi_inv.shape[0]
    t = mat_mul(field, phi_inv, c_dc[:, k:], counter)
    dt = mat_mul(field, delta_dc, t.T, counter)
    s = mat_mul(field, phi_inv, (mat_add if skew else mat_sub)(field, c_dc[:, :k], dt, counter),
                counter)
    return s, t


def vandermonde(field: Field, n: int, k: int,
                points: Sequence[int] | None = None) -> np.ndarray:
    """n x k matrix with entry [i, j] = points[i]^j, j = 0..k-1."""
    if points is None:
        points = enumerate_points(field, n)
    pa = field.varray(points)
    if pa.shape != (n,):
        raise DimensionMismatch(f"points of shape {pa.shape} for n={n}")
    if len(set(pa.tolist())) != n:
        raise DuplicatePoints("evaluation points must be distinct")
    return powers(field, pa, k)


def extended_points(field: Field, n: int) -> list[int]:
    """The finite points of an extended RS code of length n: 0, then the
    canonical nonzero points; all q of them when n = q+1, whose last point
    is infinity."""
    return [0] + enumerate_points(field, min(n, field.q) - 1)


def extended_vandermonde(field: Field, n: int, k: int) -> np.ndarray:
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
    out = np.zeros((n, k), dtype=np.int64)
    if k and n:
        pts = extended_points(field, n)
        out[:len(pts)] = vandermonde(field, len(pts), k, pts)
        out[len(pts):, k - 1] = 1  # the point at infinity
    return out


def congruence(field: Field, p: np.ndarray, m: np.ndarray,
               counter: OpCounter | None = None) -> np.ndarray:
    """P @ M @ P^t; maps skew-symmetric M to skew-symmetric output."""
    if m.shape[0] != m.shape[1] or p.shape[1] != m.shape[0]:
        raise DimensionMismatch(f"congruence of {p.shape} with {m.shape}")
    return mat_mul(field, mat_mul(field, p, m, counter), p.T, counter)


def is_skew_symmetric(field: Field, a: np.ndarray) -> bool:
    return _zero_diag_square(a) and bool((field.vneg(a.T) == a).all())


def require_skew_symmetric(field: Field, a: np.ndarray) -> np.ndarray:
    """Zero diagonal is demanded explicitly: in characteristic 2 the
    off-diagonal condition alone would not force it."""
    if not is_skew_symmetric(field, a):
        raise NotSkewSymmetric("matrix is not skew-symmetric with zero diagonal")
    return a


def is_symmetric_zero_diag(a: np.ndarray) -> bool:
    return _zero_diag_square(a) and bool((a.T == a).all())


def _zero_diag_square(a: np.ndarray) -> bool:
    return a.shape[0] == a.shape[1] and not np.diagonal(a).any()
