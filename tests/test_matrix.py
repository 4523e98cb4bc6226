import dataclasses
import itertools
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regencodes.counting import OpCounter
from regencodes.errors import (
    DimensionMismatch,
    DuplicatePoints,
    FieldTooSmall,
    NotSkewSymmetric,
    SingularMatrix,
    WrongMessageLength,
)
from regencodes import matrix, rbt, shah
from regencodes.gf import binary_field, enumerate_points, fermat_field, prime_field
from regencodes.matrix import (
    FactoredInverse,
    FieldMatrix,
    check_message,
    congruence,
    extended_vandermonde,
    interpolation_cost,
    interpolation_inverse,
    is_singular,
    is_skew_symmetric,
    lu_inverses,
    mat_add,
    mat_inv,
    mat_mul,
    mat_solve,
    mat_sub,
    require_skew_symmetric,
    solve_cost,
    vandermonde,
)
from regencodes.rbt import RbtParams
from regencodes.shah import ShahParams

F7 = prime_field(7)
F4 = binary_field(2)
FIELDS = [prime_field(11), binary_field(4), fermat_field()]


def rand_matrix(field, rows, cols, rng):
    return np.array([[rng.randrange(field.q) for _ in range(cols)] for _ in range(rows)],
                    dtype=np.int64).reshape(rows, cols)


def rand_invertible(field, n, rng):
    while True:
        m = FieldMatrix(field, rand_matrix(field, n, n, rng))
        try:
            mat_inv(m)
        except SingularMatrix:
            continue
        return m


def rand_factorable(field, n, rng):
    """A random n x n matrix whose leading blocks are all invertible: it has
    an LU factorization without row swaps."""
    while True:
        a = rand_matrix(field, n, n, rng)
        if not any(is_singular(field, a[:m, :m]) for m in range(1, n + 1)):
            return a


def rand_skew(field, n, rng):
    m = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.randrange(field.q)
            m[i, j] = v
            m[j, i] = field.neg(v)
    return m


def eye(n):
    return np.eye(n, dtype=np.int64)


def test_mat_mul_identity_and_zero():
    rng = random.Random(0)
    x = rand_matrix(F7, 3, 4, rng)
    assert np.array_equal(mat_mul(F7, eye(3), x), x)
    assert np.array_equal(mat_mul(F7, np.zeros((2, 3), dtype=np.int64), x),
                          np.zeros((2, 4), dtype=np.int64))


def test_mat_mul_shape_check():
    with pytest.raises(DimensionMismatch):
        mat_mul(F7, np.zeros((2, 3), dtype=np.int64), np.zeros((2, 3), dtype=np.int64))
    square, wide = np.zeros((2, 2), dtype=np.int64), np.zeros((2, 3), dtype=np.int64)
    for op in (mat_add, mat_sub):
        with pytest.raises(DimensionMismatch, match=r"\(2, 2\) vs \(2, 3\)"):
            op(F7, square, wide)
    with pytest.raises(DimensionMismatch, match="congruence"):
        congruence(F7, wide, square)


def test_mat_mul_counts():
    c = OpCounter()
    rng = random.Random(1)
    mat_mul(F7, rand_matrix(F7, 2, 3, rng), rand_matrix(F7, 3, 5, rng), counter=c)
    assert c.mul == 2 * 5 * 3
    assert c.add == 2 * 5 * 2


def test_mat_inv_examples():
    assert mat_inv(FieldMatrix(F7, eye(4))).tolist() == eye(4).tolist()
    m = FieldMatrix(F7, [[1, 0], [1, 1]])
    assert mat_inv(m).tolist() == [[1, 0], [6, 1]]
    with pytest.raises(SingularMatrix):
        mat_inv(FieldMatrix(F7, [[1, 1], [1, 1]]))
    for data in ([], [1, 2]):  # 1-D data, an empty list too
        with pytest.raises(DimensionMismatch):
            FieldMatrix(F7, data)
    wide = FieldMatrix(F7, np.zeros((2, 3), dtype=np.int64))
    with pytest.raises(DimensionMismatch, match="cannot invert 2x3"):
        mat_inv(wide)
    with pytest.raises(DimensionMismatch, match="2x3 not square"):
        mat_solve(wide, np.zeros((2, 1), dtype=np.int64))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_mat_inv_random_round_trip(field):
    rng = random.Random(42)
    for n in range(1, 13):
        for _ in range(100):
            m = rand_invertible(field, n, rng)
            assert np.array_equal(mat_mul(field, mat_inv(m), m.a), eye(n))


def test_mat_solve_matches_inverse():
    rng = random.Random(3)
    a = rand_invertible(F7, 5, rng)
    b = rand_matrix(F7, 5, 2, rng)
    assert np.array_equal(mat_solve(a, b), mat_mul(F7, mat_inv(a), b))


def test_solve_cost_is_what_mat_solve_counts():
    rng = random.Random(4)
    for n, cols in ((1, 1), (5, 1), (5, 3), (9, 2)):
        counter = OpCounter()
        mat_solve(rand_invertible(F7, n, rng), rand_matrix(F7, n, cols, rng), counter)
        assert (counter.mul, counter.add) == solve_cost(n, cols)


def test_vandermonde_examples():
    v = vandermonde(F7, 3, 2, [1, 2, 3])
    assert v.tolist() == [[1, 1], [1, 2], [1, 3]]
    ones = vandermonde(F7, 4, 1)
    assert ones.tolist() == [[1], [1], [1], [1]]
    with pytest.raises(DuplicatePoints):
        vandermonde(F7, 2, 2, [3, 3])
    with pytest.raises(DimensionMismatch, match="points of shape"):
        vandermonde(F7, 3, 2, [1, 2])


@pytest.mark.parametrize("field,n,k", [(F7, 6, 3), (F7, 7, 4), (binary_field(4), 16, 5),
                                       (fermat_field(), 12, 6)], ids=repr)
def test_vandermonde_defaults_to_enumerated_points(field, n, k):
    got = vandermonde(field, n, k)
    assert np.array_equal(got, vandermonde(field, n, k, enumerate_points(field, n)))
    assert got.dtype == np.int64


def test_vandermonde_any_k_rows_invertible():
    v = vandermonde(F7, 5, 3)
    for subset in itertools.combinations(range(5), 3):
        mat_inv(FieldMatrix(F7, v[list(subset)]))


def test_extended_vandermonde_example_shape():
    # GF(4), n=5=q+1, k=3: [e1; rows at 1, w, w^2; e_k]
    w = F4.omega
    w2 = F4.mul(w, w)
    v = extended_vandermonde(F4, 5, 3)
    assert v.tolist() == [
        [1, 0, 0],
        [1, 1, 1],
        [1, w, w2],
        [1, w2, F4.mul(w2, w2)],
        [0, 0, 1],
    ]


def test_extended_vandermonde_mds_small():
    for field, n, k in [(F4, 5, 3), (F7, 8, 3), (F7, 8, 5), (binary_field(3), 9, 4)]:
        v = extended_vandermonde(field, n, k)
        for subset in itertools.combinations(range(n), k):
            mat_inv(FieldMatrix(field, v[list(subset)]))


def test_extended_vandermonde_square_full_rank():
    v = extended_vandermonde(F7, 4, 4)
    mat_inv(FieldMatrix(F7, v))


def test_extended_vandermonde_bounds():
    with pytest.raises(FieldTooSmall):
        extended_vandermonde(F4, 6, 2)
    with pytest.raises(DimensionMismatch, match="k=4 exceeds n=3"):
        extended_vandermonde(F7, 3, 4)


def test_congruence_identity_and_zero():
    rng = random.Random(5)
    m = rand_skew(F7, 4, rng)
    assert np.array_equal(congruence(F7, eye(4), m), m)
    z = np.zeros((4, 4), dtype=np.int64)
    p = rand_matrix(F7, 4, 4, rng)
    assert np.array_equal(congruence(F7, p, z), z)


def test_congruence_preserves_skew_symmetry():
    rng = random.Random(6)
    for field in (F7, F4, prime_field(11)):
        for _ in range(30):
            m = rand_skew(field, 5, rng)
            p = rand_invertible(field, 5, rng)
            out = congruence(field, p.a, m)
            assert is_skew_symmetric(field, out)


def test_skew_validator_requires_zero_diagonal():
    # char 2: symmetric with nonzero diagonal must be rejected
    m = np.array([[1, 2], [2, 0]])
    assert not is_skew_symmetric(F4, m)
    with pytest.raises(NotSkewSymmetric):
        require_skew_symmetric(F4, m)
    ok = np.array([[0, 2], [2, 0]])
    require_skew_symmetric(F4, ok)


def test_check_message_range_before_length():
    f = prime_field(7)
    got = check_message(f, (0, 6, 3), 3)
    assert got == [0, 6, 3] and type(got) is list and all(type(v) is int for v in got)
    for bad in (7, -1, 2**70):
        with pytest.raises(ValueError):
            check_message(f, [1, bad], 3)  # the length is wrong too
    with pytest.raises(WrongMessageLength):
        check_message(f, [1, 2], 3)


def _lu_reference(field, a):
    """Doolittle LU without row swaps, one entry at a time: (L, U), or None
    at a zero pivot."""
    n = len(a)
    a = [list(row) for row in a]
    for j in range(n):
        if not a[j][j]:
            return None
        for i in range(j + 1, n):
            a[i][j] = field.div(a[i][j], a[j][j])
            for c in range(j + 1, n):
                a[i][c] = field.sub(a[i][c], field.mul(a[i][j], a[j][c]))
    lower = [[1 if c == i else a[i][c] if c < i else 0 for c in range(n)] for i in range(n)]
    upper = [[a[i][c] if c >= i else 0 for c in range(n)] for i in range(n)]
    return lower, upper


@pytest.mark.parametrize("field", FIELDS + [F7], ids=repr)
def test_lu_inverses_match_reference(field):
    # the LU does not pivot: a matrix with a zero pivot, such as one with
    # a[0, 0] = 0, raises SingularMatrix and charges nothing
    assert [f.name for f in dataclasses.fields(FactoredInverse)] == ["field", "first", "second"]
    rng = random.Random(6)
    raised = 0
    for n in range(1, 9):
        for trial in range(30):
            a = rand_invertible(field, n, rng).a
            if trial % 2 and n > 1:
                a[0, 0] = 0  # a zero first pivot
            reference = _lu_reference(field, a.tolist())
            counter = OpCounter()
            if reference is None:
                with pytest.raises(SingularMatrix):
                    lu_inverses(field, a, counter)
                assert (counter.mul, counter.add) == (0, 0)
                raised += 1
                continue
            got = lu_inverses(field, a, counter)
            lower, upper = reference
            assert got.first.tolist() == mat_inv(FieldMatrix(field, lower)).tolist()
            assert got.second.tolist() == mat_inv(FieldMatrix(field, upper)).tolist()
            assert not any(x.flags.writeable for x in (got.first, got.second))
            assert (counter.mul, counter.add) == _lu_formula(n)
    assert raised > 0


def test_lu_inverses_counts_and_singular():
    # factorization m(m+1)+1 mul and m^2 add per pivot (m rows below it),
    # then the two triangular inverses; n = 3 by hand: 11+1+7 mul, 5+4+4 add
    # a call that raises SingularMatrix charges nothing: a singular matrix,
    # and an invertible one whose first pivot is zero
    rng = random.Random(7)
    counts = {}
    for n in (1, 2, 3, 32):
        field = F7 if n < 32 else fermat_field()
        got = OpCounter()
        lu_inverses(field, rand_factorable(field, n, rng), got)
        counts[n] = (got.mul, got.add)
    assert counts == {1: (1, 0), 2: (6, 3), 3: (19, 13), 32: (21_856, 21_328)}
    for a, column in (([[1, 2], [2, 4]], 1), ([[0, 1], [1, 0]], 0)):
        got = OpCounter()
        with pytest.raises(SingularMatrix, match=f"zero pivot in column {column}"):
            lu_inverses(F7, np.array(a), got)
        assert (got.mul, got.add) == (0, 0)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_mat_solve_factored(field):
    # a leading block of a factored inverse solves the same block of a; two
    # triangular products cost n^2 mul and n(n-1) add per column
    rng = random.Random(8)
    checked = 0
    for n in range(1, 7):
        a = rand_factorable(field, n, rng)
        inverse = lu_inverses(field, a)
        for m in range(1, n + 1):
            b = rand_matrix(field, m, 2, rng)
            block = FieldMatrix(field, a[:m, :m])
            counter = OpCounter()
            got = mat_solve(inverse.block(slice(None, m)), b, counter)
            assert got.tolist() == mat_solve(block, b).tolist()
            assert (counter.mul, counter.add) == (2 * m * m, 2 * m * (m - 1))
            checked += 1
    assert checked > 10
    with pytest.raises(DimensionMismatch):
        mat_solve(inverse, np.ones((n + 1, 1), dtype=np.int64))


def _leibniz_det(field, a):
    """det a as the signed sum over permutations, one product at a time."""
    n, det = len(a), 0
    for perm in itertools.permutations(range(n)):
        term = 1
        for i, j in enumerate(perm):
            term = field.mul(term, a[i][j])
        odd = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)) % 2
        det = field.add(det, field.neg(term) if odd else term)
    return det


@pytest.mark.parametrize("field, sizes", [(prime_field(2), (1, 2, 3)),
                                          (binary_field(1), (1, 2, 3)),
                                          (prime_field(3), (2,))],
                         ids=["prime-2", "binary-2", "prime-3"])
def test_is_singular_matches_the_determinant(field, sizes):
    # every matrix of these sizes; is_singular asks Gauss-Jordan, not the LU
    with mock.patch.object(matrix, "lu_inverses", side_effect=AssertionError):
        for n in sizes:
            for cells in itertools.product(range(field.q), repeat=n * n):
                a = np.array(cells, dtype=np.int64).reshape(n, n)
                assert is_singular(field, a) == (_leibniz_det(field, a.tolist()) == 0)


def test_lu_inverses_checks_shape():
    for shape in ((2, 3), (3, 2), (3,)):
        with pytest.raises(DimensionMismatch):
            lu_inverses(F7, np.ones(shape, dtype=np.int64))


# scalar references for the deflated kernels

def _gj_reference(field, a, b):
    """x with a x = b by Gauss-Jordan, one entry at a time; None when a is
    singular."""
    n = len(a)
    aug = [list(a[r]) + list(b[r]) for r in range(n)]
    for c in range(n):
        p = next((r for r in range(c, n) if aug[r][c]), None)
        if p is None:
            return None
        aug[c], aug[p] = aug[p], aug[c]
        scale = field.inv(aug[c][c])
        aug[c] = [field.mul(v, scale) for v in aug[c]]
        for r in range(n):
            f = aug[r][c]
            if r != c and f:
                aug[r] = [field.sub(v, field.mul(f, w)) for v, w in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def _lu_formula(n):
    """(mul, add) of lu_inverses, step j with m = n-1-j rows below it:
    factorization, then the L^-1 and U^-1 updates."""
    mul = add = 0
    for j in range(n):
        m = n - 1 - j
        mul += (m * (m + 1) + 1) + m * j + (m + j * (n - j))
        add += m * m + m * (j + 1) + j * (n - j)
    return mul, add


PROPERTY_FIELDS = [prime_field(2), prime_field(11), binary_field(8), binary_field(16),
                   fermat_field()]


@st.composite
def _systems(draw):
    """A square system whose rows are dense, e_r on the diagonal or e_s for
    any column s (so two may share one), with one row sometimes replaced by
    a multiple of another, which leaves the remaining block singular."""
    field = draw(st.sampled_from(PROPERTY_FIELDS))
    n = draw(st.integers(0, 7))
    value = st.integers(0, field.q - 1)
    a = np.array(draw(st.lists(st.lists(value, min_size=n, max_size=n), min_size=n,
                               max_size=n)), dtype=np.int64).reshape(n, n)
    for r in range(n):
        kind = draw(st.sampled_from(["dense", "diagonal", "unit"]))
        if kind != "dense":
            a[r] = 0
            a[r, r if kind == "diagonal" else draw(st.integers(0, n - 1))] = 1
    if n > 1 and draw(st.booleans()):
        r, s = draw(st.permutations(range(n)))[:2]
        a[r] = field.vmul(a[s], draw(value))
    b = np.array(draw(st.lists(st.lists(value, min_size=2, max_size=2), min_size=n,
                               max_size=n)), dtype=np.int64).reshape(n, 2)
    return field, a, b


@given(_systems())
@settings(max_examples=400)
def test_deflated_kernels_match_scalar_references(system):
    field, a, b = system
    n = len(a)
    x = _gj_reference(field, a.tolist(), b.tolist())
    calls = [(lambda c: mat_inv(FieldMatrix(field, a), c), np.eye(n, dtype=np.int64)),
             (lambda c: mat_solve(FieldMatrix(field, a), b, c), b)]
    for call, rhs in calls:
        counter = OpCounter()
        if x is None:
            with pytest.raises(SingularMatrix):
                call(counter)
            assert (counter.mul, counter.add) == (0, 0)
            continue
        assert call(counter).tolist() == _gj_reference(field, a.tolist(), rhs.tolist())
        assert (counter.mul, counter.add) == solve_cost(n, rhs.shape[1])
    counter = OpCounter()
    reference = _lu_reference(field, a.tolist())
    if reference is None:  # a zero pivot: a is singular or needs a row swap
        with pytest.raises(SingularMatrix):
            lu_inverses(field, a, counter)
        assert (counter.mul, counter.add) == (0, 0)
        return
    got = lu_inverses(field, a, counter)
    lower, upper = reference
    eye = np.eye(n, dtype=np.int64).tolist()
    assert got.first.tolist() == _gj_reference(field, lower, eye)
    assert got.second.tolist() == _gj_reference(field, upper, eye)
    assert (counter.mul, counter.add) == _lu_formula(n)


@pytest.mark.parametrize("field", PROPERTY_FIELDS, ids=repr)
def test_deflated_kernels_on_empty_and_one_by_one_systems(field):
    empty = np.zeros((0, 0), dtype=np.int64)
    assert mat_inv(FieldMatrix(field, empty)).shape == (0, 0)
    assert mat_solve(FieldMatrix(field, empty), np.zeros((0, 2), dtype=np.int64)).shape == (0, 2)
    counter = OpCounter()
    got = lu_inverses(field, empty, counter)
    assert got.first.shape == got.second.shape == (0, 0) and (counter.mul, counter.add) == (0, 0)
    for v in (1, field.q - 1):  # a unit row, and a dense one unless q = 2
        one = np.array([[v]], dtype=np.int64)
        assert mat_inv(FieldMatrix(field, one)).tolist() == [[field.inv(v)]]
        got = lu_inverses(field, one)
        assert (got.first.tolist(), got.second.tolist()) == ([[1]], [[field.inv(v)]])
    zero = np.zeros((1, 1), dtype=np.int64)
    for call in (lambda: mat_inv(FieldMatrix(field, zero)), lambda: lu_inverses(field, zero)):
        with pytest.raises(SingularMatrix):
            call()


@pytest.mark.parametrize("field", PROPERTY_FIELDS, ids=repr)
@pytest.mark.parametrize("a", [[[0, 1, 1], [1, 1, 0], [1, 1, 1]],
                               [[1, 1, 0], [1, 0, 1], [1, 1, 1]], eye(3).tolist()],
                         ids=["no-unit-row", "no-unit-row-no-swap", "identity"])
def test_deflated_kernels_without_unit_rows_and_on_the_identity(field, a):
    # the first two systems are invertible over every field and have no row
    # that sums to 1; the first needs a row swap in its first column, which
    # Gauss-Jordan makes and the LU refuses.  The third is unit rows only.
    # Counts are the dense ones at n = 3.
    a = np.array(a, dtype=np.int64)
    b = np.array([[1, 0], [0, 1], [1, 1]], dtype=np.int64)
    calls = [(lambda c: mat_inv(FieldMatrix(field, a), c), eye(3), (57, 36)),
             (lambda c: mat_solve(FieldMatrix(field, a), b, c), b, (48, 30))]
    for call, rhs, cost in calls:
        counter = OpCounter()
        assert call(counter).tolist() == _gj_reference(field, a.tolist(), rhs.tolist())
        assert (counter.mul, counter.add) == cost
    counter = OpCounter()
    reference = _lu_reference(field, a.tolist())
    if reference is None:
        with pytest.raises(SingularMatrix, match="zero pivot in column 0"):
            lu_inverses(field, a, counter)
        assert (counter.mul, counter.add) == (0, 0)
        return
    got = lu_inverses(field, a, counter)
    lower, upper = reference
    assert got.first.tolist() == _gj_reference(field, lower, eye(3).tolist())
    assert got.second.tolist() == _gj_reference(field, upper, eye(3).tolist())
    assert (counter.mul, counter.add) == (19, 13)
    if (a == eye(3)).all():
        assert got.first.tolist() == got.second.tolist() == eye(3).tolist()


# the deflated product

@st.composite
def _products(draw):
    """a @ b with every row of a dense, a unit row e_s or zero."""
    field = draw(st.sampled_from(PROPERTY_FIELDS))
    rows, inner = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    cols = draw(st.integers(0, 4))
    value = st.integers(0, field.q - 1)

    def matrix(r, c):
        cells = draw(st.lists(st.lists(value, min_size=c, max_size=c), min_size=r, max_size=r))
        return np.array(cells, dtype=np.int64).reshape(r, c)

    a = matrix(rows, inner)
    for r in range(rows):
        kind = draw(st.sampled_from(["dense", "unit", "zero"]))
        if kind != "dense":
            a[r] = 0
        if kind == "unit" and inner:
            a[r, draw(st.integers(0, inner - 1))] = 1
    return field, a, matrix(inner, cols)


def _check_product(field, a, b):
    counter = OpCounter()
    got = mat_mul(field, a, b, counter)
    assert got.dtype == np.int64 and got.shape == (a.shape[0], b.shape[1])
    assert got.tolist() == field.matmul(a, b).tolist()
    rows, inner, cols = a.shape[0], a.shape[1], b.shape[1]
    assert (counter.mul, counter.add) == (rows * cols * inner, rows * cols * max(0, inner - 1))


def _skip_rows_at_every_size():
    """Small nonempty products take the row-skipping path of mat_mul too."""
    return mock.patch.dict(matrix._ROW_SKIP_MIN, {kind: 1 for kind in matrix._ROW_SKIP_MIN})


@given(_products())
@settings(max_examples=300)
def test_deflated_mat_mul_matches_dense_product(product):
    _check_product(*product)
    with _skip_rows_at_every_size():
        _check_product(*product)


@pytest.mark.parametrize("field", PROPERTY_FIELDS, ids=repr)
def test_deflated_mat_mul_all_unit_no_unit_and_empty(field):
    rng = random.Random(7)
    b = rand_matrix(field, 5, 3, rng)
    perm = eye(5)[[3, 0, 4, 1, 2]]
    dense = rand_matrix(field, 4, 5, rng)
    dense[:, 0] = 2 % field.q if field.q > 2 else 1  # no row sums to 0 or 1
    dense[:, 1] = 1
    with _skip_rows_at_every_size():
        for a in (perm, eye(5), perm[[0, 0, 2]], dense, np.concatenate([dense, perm])):
            _check_product(field, a, b)
        for (rows, inner), cols in (((0, 5), 3), ((4, 0), 3), ((4, 5), 0), ((0, 0), 0)):
            _check_product(field, np.zeros((rows, inner), dtype=np.int64),
                           rand_matrix(field, inner, cols, rng))
    # a psrs-shaped encode, 64 x 48 by 48 x 48, is above every size limit
    a = rand_matrix(field, 64, 48, rng)
    a[:32] = 0
    a[np.arange(32), np.arange(32)] = 1
    a[40] = 0
    assert 64 * 48 * 48 >= max(matrix._ROW_SKIP_MIN.values())
    _check_product(field, a, rand_matrix(field, 48, 48, rng))


# the closed-form inverse of a data collector's Phi_DC

def _v_top_inverse(field, v, k):
    """V V[:k]^-1 by Gauss-Jordan: the systematic generator of the code whose
    generator is the (extended) Vandermonde matrix V."""
    return mat_mul(field, v, mat_inv(FieldMatrix(field, v[:k])))


def _lagrange_rows(field, points, k):
    """Phi = V V_k^-1: row j holds the Lagrange basis at points[:k] taken at points[j]."""
    return _v_top_inverse(field, vandermonde(field, len(points), k, points), k)


INTERPOLATION_FIELDS = [prime_field(11), binary_field(4), binary_field(8), fermat_field()]


@st.composite
def _collectors(draw):
    """Distinct points, some of them 0, and k collector rows in any order
    holding 0, some or all of the k systematic ones."""
    field = draw(st.sampled_from(INTERPOLATION_FIELDS))
    n = draw(st.integers(2, min(field.q, 20)))
    k = draw(st.integers(1, n - 1))
    points = draw(st.permutations(enumerate_points(field, field.q if field.q <= 16 else n)))[:n]
    systematic = draw(st.integers(max(0, 2 * k - n), k))
    rows = (draw(st.permutations(range(k)))[:systematic]
            + draw(st.permutations(range(k, n)))[:k - systematic])
    return field, np.array(points, dtype=np.int64), k, draw(st.permutations(rows))


@given(_collectors())
@settings(max_examples=300)
def test_interpolation_inverse_is_the_inverse(collector):
    field, points, k, rows = collector
    counter = OpCounter()
    got = interpolation_inverse(field, points, rows, counter)
    phi_dc = _lagrange_rows(field, points, k)[rows]
    assert got.tolist() == mat_inv(FieldMatrix(field, phi_dc)).tolist()
    missing = k - sum(r < k for r in rows)
    assert (counter.mul, counter.add) == interpolation_cost(k, missing)


@pytest.mark.parametrize("field", [prime_field(2), prime_field(5), F7, binary_field(3),
                                   prime_field(11)], ids=repr)
def test_rbt_sys_phi_is_v_times_top_inverse(field):
    # the reference is V V[:k]^-1 by Gauss-Jordan, V Vandermonde at the
    # canonical points for n <= q, extended with the point at infinity for n = q+1
    for n in range(2, field.q + 2):
        for k in range(1, n):
            v = vandermonde(field, n, k) if n <= field.q else extended_vandermonde(field, n, k)
            phi = rbt.rbt_build_encoding(RbtParams(field, n, k, systematic=True))[:, :k]
            assert np.array_equal(phi, _v_top_inverse(field, v, k)), (n, k)


@pytest.mark.parametrize("field, n", [(prime_field(2), 3), (prime_field(5), 4),
                                      (prime_field(11), 4), (prime_field(11), 5)])
def test_shah_generator_is_v_times_top_inverse(field, n):
    # the reference is V V[:B]^-1 by Gauss-Jordan for the doubly extended RS
    # generator V; C(n,2) = q+1 over GF(2) and GF(5), where k = n-1 gives
    # B = N and the generator is I
    for k in range(1, n):
        params = ShahParams(field, n, k)
        v = extended_vandermonde(field, params.N, params.B)
        assert np.array_equal(shah._generator_rows(params), _v_top_inverse(field, v, params.B)), k


def test_interpolation_cost_examples():
    # k x k differences and products, c k + k inversions, two mul per entry
    assert interpolation_cost(32, 0) == (0, 0)
    assert interpolation_cost(32, 32) == (5_056, 2_016)
    assert interpolation_cost(16, 8) == (744, 368)
    assert interpolation_cost(1, 1) == (4, 1)
    assert interpolation_cost(32, 32)[0] < solve_cost(32, 32)[0]
