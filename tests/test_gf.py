import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regencodes.errors import (
    DivisionByZero,
    FieldMismatch,
    FieldTooSmall,
    NonPrimeModulus,
    NotPowerOfTwo,
    UnsupportedDegree,
    WrongField,
)
from regencodes.gf import (
    REDUCTION_POLYS,
    arith,
    binary_field,
    enumerate_points,
    fermat_field,
    field_new,
    inv,
    ntt_evaluate,
    ntt_interpolate,
    ntt_points,
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


def test_field_new_rejects_bad_params():
    with pytest.raises(NonPrimeModulus):
        field_new("prime", 6)
    with pytest.raises(UnsupportedDegree):
        field_new("binary", 17)
    with pytest.raises(UnsupportedDegree):
        field_new("binary", 0)


def test_arith_examples():
    f7 = prime_field(7)
    assert arith(f7.elem(3), f7.elem(6), "div").value == 4
    f4 = binary_field(2)
    for x in range(4):
        assert arith(f4.elem(x), f4.elem(x), "sub").value == 0
    ff = fermat_field()
    assert arith(ff.elem(65536), ff.elem(65536), "mul").value == 1


def test_arith_field_mismatch():
    a = prime_field(7).elem(1)
    b = prime_field(11).elem(1)
    with pytest.raises(FieldMismatch):
        arith(a, b, "add")


def test_division_by_zero():
    f7 = prime_field(7)
    with pytest.raises(DivisionByZero):
        arith(f7.elem(3), f7.elem(0), "div")
    with pytest.raises(DivisionByZero):
        inv(f7.elem(0))


def test_inv_examples():
    f7 = prime_field(7)
    assert inv(f7.elem(2)).value == 4
    f4 = binary_field(2)
    omega = f4.elem(f4.omega)
    assert inv(omega) == omega * omega
    for f in SMALL_FIELDS + BIG_FIELDS:
        assert inv(f.elem(1)).value == 1


def test_elem_operators():
    f = prime_field(11)
    a, b = f.elem(7), f.elem(9)
    assert (a + b).value == 5
    assert (a - b).value == 9
    assert (a * b).value == 8
    assert (a / b).value == f.mul(7, f.inv(9))
    assert (-a).value == 4
    assert (a**5).value == pow(7, 5, 11)
    assert int(a + 4) == 0


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
    assert [e.value for e in enumerate_points(f7, 6)] == [1, 2, 3, 4, 5, 6]
    assert [e.value for e in enumerate_points(f7, 1)] == [1]
    ff = fermat_field()
    assert [e.value for e in enumerate_points(ff, 4)] == [1, 2, 3, 4]


def test_enumerate_points_binary_order():
    f4 = binary_field(2)
    pts = [e.value for e in enumerate_points(f4, 3)]
    w = f4.omega
    assert pts == [1, w, f4.mul(w, w)]
    # n = q appends zero last
    assert [e.value for e in enumerate_points(f4, 4)] == pts + [0]


def test_enumerate_points_full_prime_field_includes_zero():
    f7 = prime_field(7)
    pts = [e.value for e in enumerate_points(f7, 7)]
    assert pts == [1, 2, 3, 4, 5, 6, 0]
    assert len(set(pts)) == 7


def test_enumerate_points_too_many():
    with pytest.raises(FieldTooSmall):
        enumerate_points(prime_field(7), 8)


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


def test_ntt_matches_horner():
    ff = fermat_field()
    rng = random.Random(99)
    size = 8
    pts = [int(e) for e in ntt_points(ff, size)]
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
    pts = ff.varray([int(e) for e in ntt_points(ff, size)])
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
    for size in (2, 8, 64):
        coeffs = [rng.randrange(ff.q) for _ in range(size)]
        evals = ntt_evaluate(ff, coeffs, size)
        assert ntt_interpolate(ff, evals) == coeffs


def test_ntt_counts_ops():
    from regencodes.counting import OpCounter

    ff = fermat_field()
    c = OpCounter()
    ntt_evaluate(ff, [1, 2, 3], 8, counter=c)
    assert c.mul == (8 // 2) * 3
    assert c.add == 8 * 3
