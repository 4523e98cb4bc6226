import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regencodes.counting import OpCounter
from regencodes.errors import (
    DimensionMismatch,
    DivisionByZero,
    FieldTooSmall,
    NonPrimeModulus,
    NotPowerOfTwo,
    UnsupportedDegree,
    WrongField,
)
from regencodes.gf import (
    REDUCTION_POLYS,
    binary_field,
    enumerate_points,
    fermat_field,
    field_new,
    ntt_evaluate,
    ntt_interpolate,
    ntt_points,
    powers,
    prime_field,
)
from regencodes.poly import poly_eval

SMALL_FIELDS = [prime_field(2), prime_field(7), prime_field(11), prime_field(13),
                binary_field(1), binary_field(2), binary_field(3), binary_field(4)]
BIG_FIELDS = [binary_field(16), fermat_field()]


def test_field_new_examples():
    assert field_new("prime", 7).q == 7
    assert field_new("binary", 2).q == 4
    assert field_new("fermat").q == 65537


def test_field_new_interned():
    assert field_new("prime", 7) is field_new("prime", 7)
    assert field_new("binary", 4) is field_new("binary", 4)
    assert field_new("fermat") is field_new("fermat")
    assert field_new("prime", np.int64(7)) is field_new("prime", 7)
    assert prime_field(65537) != fermat_field()


def test_field_new_rejects_bad_params():
    with pytest.raises(NonPrimeModulus):
        field_new("prime", 6)
    for p in (0, 1, 65535):
        with pytest.raises(NonPrimeModulus, match="is not prime"):
            field_new("prime", p)
    # refused by size before any trial division, which would take about
    # 10^15 steps here
    with pytest.raises(NonPrimeModulus, match="above 65537"):
        field_new("prime", 10**30)
    with pytest.raises(UnsupportedDegree):
        field_new("binary", 17)
    with pytest.raises(UnsupportedDegree):
        field_new("binary", 0)
    # never folded: 7.9 is not GF(7), nor "7" a second GF(7); a missing or
    # extra parameter is refused too
    for args in (("prime", 7.9), ("binary", 8.5), ("prime", "7"), ("fermat", 5), ("prime",),
                 ("binary",), ("nope", 3)):
        with pytest.raises(ValueError):
            field_new(*args)


def test_arith_examples():
    f7 = prime_field(7)
    assert f7.div(3, 6) == 4
    f4 = binary_field(2)
    for x in range(4):
        assert f4.sub(x, x) == 0
    ff = fermat_field()
    assert ff.mul(65536, 65536) == 1


def test_division_by_zero():
    f7 = prime_field(7)
    with pytest.raises(DivisionByZero):
        f7.div(3, 0)
    with pytest.raises(DivisionByZero):
        f7.inv(0)


def test_prime_inverse_of_a_multiple_of_p():
    # a value congruent to zero, such as an unreduced pivot, has no inverse
    for field in (field_new("prime", 7), fermat_field()):
        p = field.q
        for a in (0, p, 2 * p, -p, 5 * p * p):
            with pytest.raises(DivisionByZero):
                field.inv(a)
        assert field.mul(field.inv(p + 3), 3) == 1


@pytest.mark.parametrize("field", [prime_field(7), binary_field(8), fermat_field()], ids=repr)
def test_dot_and_deferred_update_match_scalar_ops(field):
    rng = random.Random(9)
    for n in (0, 1, 48):
        a = [rng.randrange(field.q) for _ in range(n)]
        b = [rng.randrange(field.q) for _ in range(n)]
        ref = 0
        for x, y in zip(a, b):
            ref = field.add(ref, field.mul(x, y))
        got = field.dot(tuple(a), b)
        assert got == ref and type(got) is int
    # 64 unreduced updates, reduced once, equal 64 reduced ones
    acc = np.array([[rng.randrange(field.q) for _ in range(5)] for _ in range(4)])
    ref = acc.copy()
    for _ in range(64):
        col = np.array([rng.randrange(field.q) for _ in range(4)])[:, None]
        row = np.array([rng.randrange(field.q) for _ in range(5)])[None, :]
        acc = field.vsub_mul(acc, col, row)
        ref = field.vsub(ref, field.vmul(col, row))
    got = field.vreduce(acc)
    assert got.dtype == np.int64 and got.tolist() == ref.tolist()


def test_inv_examples():
    f7 = prime_field(7)
    assert f7.inv(2) == 4
    f4 = binary_field(2)
    omega = f4.omega
    assert f4.inv(omega) == f4.mul(omega, omega)
    for f in SMALL_FIELDS + BIG_FIELDS:
        assert f.inv(1) == 1


def test_elem_operators():
    f = prime_field(11)
    a, b = 7, 9
    assert f.add(a, b) == 5
    assert f.sub(a, b) == 9
    assert f.mul(a, b) == 8
    assert f.div(a, b) == f.mul(7, f.inv(9))
    assert f.neg(a) == 4
    assert f.pow_(a, 5) == pow(7, 5, 11)
    assert f.add(a, 4) == 0


@pytest.mark.parametrize("field", SMALL_FIELDS, ids=repr)
def test_field_axioms_exhaustive(field):
    q = field.q
    elems = range(q)
    for a in elems:
        for b in elems:
            assert field.add(a, b) == field.add(b, a)
            assert field.mul(a, b) == field.mul(b, a)
            if b != 0:
                assert field.mul(field.div(a, b), b) == a
    for a in elems:
        for b in elems:
            for c in elems:
                assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
                assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
                assert field.mul(a, field.add(b, c)) == field.add(
                    field.mul(a, b), field.mul(a, c)
                )


@pytest.mark.parametrize("field", BIG_FIELDS, ids=repr)
def test_field_axioms_randomized(field):
    rng = random.Random(1234)
    for _ in range(10_000):
        a = rng.randrange(field.q)
        b = rng.randrange(field.q)
        c = rng.randrange(field.q)
        assert field.add(a, b) == field.add(b, a)
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
        if b:
            assert field.mul(field.inv(b), b) == 1
            assert field.inv(field.inv(b)) == b


@given(st.integers(min_value=1, max_value=65535))
@settings(max_examples=200)
def test_binary16_inverse_round_trip(a):
    f = binary_field(16)
    assert f.mul(a, f.inv(a)) == 1
    assert f.inv(f.inv(a)) == a


@given(st.integers(min_value=0, max_value=65535), st.integers(min_value=0, max_value=65535))
@settings(max_examples=200)
def test_binary16_char2(a, b):
    f = binary_field(16)
    assert f.neg(a) == a
    assert f.sub(a, b) == f.add(a, b)


def test_reduction_polys_primitive():
    # table construction validates primitivity; just touch every degree
    for m in REDUCTION_POLYS:
        f = binary_field(m)
        assert f.q == 1 << m


def test_enumerate_points_examples():
    f7 = prime_field(7)
    assert enumerate_points(f7, 6) == [1, 2, 3, 4, 5, 6]
    assert enumerate_points(f7, 1) == [1]
    ff = fermat_field()
    assert enumerate_points(ff, 4) == [1, 2, 3, 4]


def test_enumerate_points_binary_order():
    f4 = binary_field(2)
    pts = enumerate_points(f4, 3)
    w = f4.omega
    assert pts == [1, w, f4.mul(w, w)]
    # n = q appends zero last
    assert enumerate_points(f4, 4) == pts + [0]
    assert enumerate_points(binary_field(4), 16) == [1, 2, 4, 8, 3, 6, 12, 11,
                                                     5, 10, 7, 14, 15, 13, 9, 0]


def test_enumerate_points_full_prime_field_includes_zero():
    f7 = prime_field(7)
    pts = enumerate_points(f7, 7)
    assert pts == [1, 2, 3, 4, 5, 6, 0]
    assert len(set(pts)) == 7


INT_POINT_CASES = [(prime_field(7), 6), (prime_field(7), 7), (binary_field(1), 2),
                   (binary_field(4), 15), (binary_field(4), 16), (binary_field(8), 256),
                   (fermat_field(), 9), (fermat_field(), 65537)]


@pytest.mark.parametrize("field,n", INT_POINT_CASES, ids=[f"{f!r}-{n}" for f, n in INT_POINT_CASES])
def test_enumerate_points_are_plain_ints(field, n):
    pts = enumerate_points(field, n)
    assert all(type(p) is int for p in pts)
    nonzero = min(n, field.q - 1)
    if field.kind == "binary":
        want = [field.pow_(field.omega, i) for i in range(nonzero)]
    else:
        want = list(range(1, nonzero + 1))
    assert pts == want + [0] * (n == field.q)


def test_ntt_points_are_plain_ints():
    ff = fermat_field()
    assert ntt_points(ff, 4) == [1, 65281, 65536, 256]
    assert ntt_points(ff, 5) == [1, 4096, 65281, 16, 65536]
    for n in (1, 2, 7, 64, 100):
        pts = ntt_points(ff, n)
        assert len(pts) == n and all(type(p) is int for p in pts)
        size = 1 << (n - 1).bit_length()
        assert pts == [ff.pow_(ff.root_of_unity(size), j) for j in range(n)]


def test_enumerate_points_too_many():
    with pytest.raises(FieldTooSmall):
        enumerate_points(prime_field(7), 8)
    with pytest.raises(ValueError, match="non-negative"):
        enumerate_points(prime_field(7), -1)


def test_ntt_constant_poly():
    ff = fermat_field()
    assert ntt_evaluate(ff, [42], 4) == [42, 42, 42, 42]


def test_ntt_linear_poly():
    ff = fermat_field()
    assert ntt_evaluate(ff, [0, 1], 2) == [1, 65536]


def test_ntt_rejects_bad_input():
    ff = fermat_field()
    with pytest.raises(NotPowerOfTwo):
        ntt_evaluate(ff, [1], 3)
    with pytest.raises(WrongField):
        ntt_evaluate(prime_field(7), [1], 2)
    with pytest.raises(ValueError, match="3 coefficients exceed transform size 2"):
        ntt_evaluate(ff, [1, 2, 3], 2)
    # a size past the largest root-of-unity order is refused before the
    # transform's array is allocated
    with mock.patch("numpy.zeros", side_effect=AssertionError("allocated")):
        with pytest.raises(NotPowerOfTwo, match="exceeds 65536"):
            ntt_evaluate(ff, [1], 1 << 17)
    with pytest.raises(NotPowerOfTwo):
        ff.root_of_unity(3)
    with pytest.raises(UnsupportedDegree):
        ff.root_of_unity(1 << 17)


def test_ntt_matches_horner():
    ff = fermat_field()
    rng = random.Random(99)
    size = 8
    pts = ntt_points(ff, size)
    for _ in range(20):
        coeffs = [rng.randrange(ff.q) for _ in range(8)]
        got = ntt_evaluate(ff, coeffs, size)
        want = [poly_eval(ff, coeffs, x) for x in pts]
        assert got == want


@pytest.mark.parametrize("size", [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024])
def test_ntt_matches_horner_all_sizes(size):
    import numpy as np

    ff = fermat_field()
    rng = random.Random(size)
    pts = ff.varray(ntt_points(ff, size))
    for _ in range(100):
        deg = rng.randrange(1, size + 1)
        coeffs = [rng.randrange(ff.q) for _ in range(deg)]
        got = ntt_evaluate(ff, coeffs, size)
        acc = np.zeros(size, dtype=np.int64)
        for c in reversed(coeffs):
            acc = ff.vadd(ff.vmul(acc, pts), c)
        assert got == acc.tolist()


def test_ntt_interpolate_round_trip():
    ff = fermat_field()
    rng = random.Random(7)
    for size in (1, 2, 8, 64):
        coeffs = [rng.randrange(ff.q) for _ in range(size)]
        counter = OpCounter()
        evals = ntt_evaluate(ff, coeffs, size, counter)
        assert ntt_interpolate(ff, evals, counter) == coeffs
        if size == 1:  # the constant itself, at no cost
            assert evals == coeffs and (counter.mul, counter.add) == (0, 0)


def test_ntt_counts_ops():
    ff = fermat_field()
    c = OpCounter()
    ntt_evaluate(ff, [1, 2, 3], 8, counter=c)
    assert c.mul == (8 // 2) * 3
    assert c.add == 8 * 3


# -- binary kernels against an independent carry-less multiply ----------------

def _clmul_ref(a, b, m):
    """Shift-and-xor product of a and b reduced by REDUCTION_POLYS[m].

    Works elementwise on int64 arrays (or ints) and never touches a field's
    log/antilog tables, so it is an oracle for them.
    """
    poly = REDUCTION_POLYS[m]
    a, b = np.broadcast_arrays(np.asarray(a, np.int64), np.asarray(b, np.int64))
    a, b = a.copy(), b.copy()
    r = np.zeros_like(a)
    for _ in range(m):
        r ^= np.where(b & 1, a, 0)
        b >>= 1
        a <<= 1
        a = np.where((a >> m) & 1, a ^ poly, a)
    return r


def _binary_pairs(m):
    """Every (a, b) pair for m <= 8, a seeded sample of 20k pairs above."""
    q = 1 << m
    if m <= 8:
        a, b = np.meshgrid(np.arange(q), np.arange(q), indexing="ij")
        return a.ravel(), b.ravel()
    rng = np.random.default_rng(m)
    a = rng.integers(0, q, size=20_000)
    b = rng.integers(0, q, size=20_000)
    a[:50] = 0  # zero factors on either side, and together
    b[25:75] = 0
    return a, b


@pytest.mark.parametrize("m", sorted(REDUCTION_POLYS))
def test_binary_mul_vmul_match_carryless_reference(m):
    f = binary_field(m)
    a, b = _binary_pairs(m)
    want = _clmul_ref(a, b, m)
    got = f.vmul(a, b)
    assert got.dtype == np.int64
    assert np.array_equal(got, want)
    scalar = [f.mul(int(x), int(y)) for x, y in zip(a.tolist(), b.tolist())]
    assert scalar == want.tolist()


@pytest.mark.parametrize("m", sorted(REDUCTION_POLYS))
def test_binary_inv_matches_carryless_reference(m):
    f = binary_field(m)
    q = f.q
    if m <= 8:
        xs = list(range(1, q))
    else:
        xs = random.Random(m).sample(range(1, q), min(2000, q - 1))
    invs = [f.inv(x) for x in xs]
    assert all(0 < y < q for y in invs)
    assert np.all(_clmul_ref(xs, invs, m) == 1)
    assert np.array_equal(f.vinv(np.array(xs)), np.array(invs))
    with pytest.raises(DivisionByZero):
        f.inv(0)
    with pytest.raises(DivisionByZero):
        f.vinv(np.array([1, 0]))


def _matmul_triple_loop(a, b, m):
    r, inner = a.shape
    c = b.shape[1]
    out = np.zeros((r, c), dtype=np.int64)
    for i in range(r):
        for j in range(c):
            acc = 0
            for t in range(inner):
                acc ^= int(_clmul_ref(int(a[i, t]), int(b[t, j]), m))
            out[i, j] = acc
    return out


_MATMUL_SHAPES = [(0, 3, 4), (3, 0, 4), (3, 4, 0), (0, 0, 0), (1, 1, 1),
                  (4, 5, 3), (7, 2, 6), (6, 6, 6), (1, 9, 2)]


@pytest.mark.parametrize("m", [1, 2, 5, 8, 11, 16])
@pytest.mark.parametrize("shape", _MATMUL_SHAPES, ids=str)
def test_binary_matmul_matches_triple_loop(m, shape):
    f = binary_field(m)
    r, inner, c = shape
    rng = np.random.default_rng([m, r, inner, c])
    a = rng.integers(0, f.q, size=(r, inner))
    b = rng.integers(0, f.q, size=(inner, c))
    if r > 1 and inner:
        a[0] = 0  # an all-zero row of a
    if c > 1 and inner:
        b[:, -1] = 0  # an all-zero column of b
    if r and inner > 1:
        a[:, 1] = 0  # a zero column of a meets every row of b
    got = f.matmul(a, b)
    assert got.dtype == np.int64
    assert got.shape == (r, c)
    assert np.array_equal(got, _matmul_triple_loop(a, b, m))


def test_binary_matmul_runs_several_row_chunks():
    # with inner * c > 2^21 the kernel takes one row per chunk: 3 rows, 3 chunks
    m, r, inner, c = 8, 3, 64, 32_769
    f = binary_field(m)
    rng = np.random.default_rng(21)
    a = rng.integers(0, f.q, size=(r, inner))
    b = rng.integers(0, f.q, size=(inner, c))
    a[1, ::2] = 0
    b[::3] = 0
    want = np.zeros((r, c), dtype=np.int64)
    for t in range(inner):  # independent of the kernel: one rank-1 update per t
        want ^= _clmul_ref(a[:, t, None], b[None, t, :], m)
    got = f.matmul(a, b)
    assert got.dtype == np.int64
    assert np.array_equal(got, want)


def test_binary_convolve_runs_several_row_chunks():
    # the Toeplitz matrix of a has 2,099 rows of 1,000 entries; matmul takes
    # 2^21 // 1,000 = 2,097 rows per chunk, so 2 chunks
    f = binary_field(8)
    rng = np.random.default_rng(22)
    a = rng.integers(0, f.q, size=1_100)
    b = rng.integers(0, f.q, size=1_000)
    a[::5] = 0
    prod = _clmul_ref(a[:, None], b[None, :], 8)
    want = np.zeros(len(a) + len(b) - 1, dtype=np.int64)
    for i in range(len(a)):  # independent of the kernel: one shifted row per a_i
        want[i:i + len(b)] ^= prod[i]
    got = f.convolve(a, b)
    assert got.dtype == np.int64 and np.array_equal(got, want)


def test_binary_matmul_dimension_mismatch():
    f = binary_field(8)
    with pytest.raises(DimensionMismatch):
        f.matmul(np.zeros((2, 3), np.int64), np.zeros((4, 2), np.int64))


@pytest.mark.parametrize("field", [prime_field(7), binary_field(8), fermat_field()], ids=repr)
def test_varray_accepts_exactly_the_field_values(field):
    q = field.q
    got = field.varray([[0, q - 1], [1, 2]])
    assert got.dtype == np.int64 and got.tolist() == [[0, q - 1], [1, 2]]
    assert field.varray([]).size == 0
    assert field.varray(np.arange(q).reshape(-1, 1).T[:, ::-1]).tolist() == [list(range(q))[::-1]]
    for bad in ([q], [-1], [0, 2**63 - 1], [-2**63], [2**64 - 1], [2**70],
                np.array([2**64 - 1], dtype=np.uint64), np.array([[0, q], [1, 2]]).T):
        with pytest.raises(ValueError, match="array values outside field range"):
            field.varray(bad)


def test_booleans_are_not_integers():
    # bool is an int subclass, so True once read as 1: as a degree, a list
    # entry and a numpy bool array
    with pytest.raises(ValueError, match="expected an integer, got True"):
        field_new("binary", True)
    for bad in ([True, False], (0, 1, False), np.array([True, False]), [[True], [False]]):
        with pytest.raises(ValueError, match="must be integers, got bool"):
            prime_field(7).varray(bad)
    assert prime_field(7).varray([0, 1, 1]).tolist() == [0, 1, 1]


@pytest.mark.parametrize("field", SMALL_FIELDS + BIG_FIELDS, ids=repr)
def test_vprod_is_the_product_of_each_row(field):
    rng = random.Random(field.q)
    for width in (0, 1, 2, 5, 8, 33):
        a = np.array([[rng.randrange(1, field.q) for _ in range(width)] for _ in range(4)],
                     dtype=np.int64).reshape(4, width)
        if width:
            a[1, rng.randrange(width)] = 0  # one row with a zero entry
        want = []
        for row in a.tolist():
            p = 1
            for v in row:
                p = field.mul(p, v)
            want.append(p)
        got = field.vprod(a)
        assert got.dtype == np.int64 and got.tolist() == want


@pytest.mark.parametrize("field", [prime_field(2), prime_field(11), prime_field(13), binary_field(4),
                                   binary_field(8), fermat_field()], ids=repr)
def test_powers_match_pow(field):
    # one value and a 2-D array of values, 0 among them, for counts 0, 1, 2
    # and counts that are not powers of two
    rng = random.Random(field.q)
    grid = np.array([[0, 1, rng.randrange(field.q)], [rng.randrange(field.q) for _ in range(3)]])
    for count in (0, 1, 2, 3, 7, 20):
        for x in (0, 1, rng.randrange(field.q)):
            got = powers(field, x, count)
            assert got.dtype == np.int64 and got.shape == (count,)
            assert got.tolist() == [field.pow_(x, e) for e in range(count)]
        got = powers(field, grid, count)
        assert got.dtype == np.int64 and got.shape == (2, 3, count)
        assert got.tolist() == [[[field.pow_(x, e) for e in range(count)] for x in row]
                                for row in grid.tolist()]
