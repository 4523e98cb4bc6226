import random

import numpy as np
import pytest

from regencodes.counting import OpCounter
from regencodes.errors import DimensionMismatch, DivisionByZero
from regencodes.gf import binary_field, fermat_field, prime_field
from regencodes.matrix import FieldMatrix, mat_inv, vandermonde
from regencodes.poly import (
    lagrange_basis,
    lagrange_interpolate,
    poly_derivative,
    poly_divmod,
    poly_eval,
    poly_eval_many,
    poly_from_roots,
    poly_mul,
    trim,
)

F11 = prime_field(11)
F16 = binary_field(4)
POLY_FIELDS = [prime_field(2), F11, prime_field(13), F16, binary_field(8), fermat_field()]


def _operand_pairs(field, rng):
    """Pairs of coefficient lists: empty and length-1 operands, zero
    coefficients inside and on top, all-zero operands and random lengths."""
    def rand(n):
        return [rng.randrange(field.q) for _ in range(n)]
    pairs = [([], []), ([], rand(3)), (rand(2), []), (rand(1), rand(1)), (rand(1), rand(6)),
             (rand(6), rand(1)), ([0, 0, 1, 0], rand(4)), (rand(5), [0]), ([0] * 3, [0] * 2)]
    return pairs + [(rand(rng.randrange(1, 40)), rand(rng.randrange(1, 40))) for _ in range(20)]


def _schoolbook_mul(field, a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(x, y))
    return out


def _schoolbook_divmod(field, num, den):
    """Quotient and remainder by a divisor `den` with a nonzero top coefficient."""
    rem, deg = list(num), len(den) - 1
    quot = [0] * max(0, len(num) - deg)
    for i in reversed(range(len(quot))):
        quot[i] = field.div(rem[i + deg], den[-1])
        for j, d in enumerate(den):
            rem[i + j] = field.sub(rem[i + j], field.mul(quot[i], d))
    return quot, rem[:deg]


@pytest.mark.parametrize("field", POLY_FIELDS, ids=repr)
def test_convolve_and_poly_mul_match_schoolbook(field):
    # poly_mul charges len(a) len(b) mul and (len(a) - 1)(len(b) - 1) add,
    # and nothing for an empty operand
    rng = random.Random(field.q)
    for a, b in _operand_pairs(field, rng):
        want = _schoolbook_mul(field, a, b)
        got = field.convolve(a, np.array(b, dtype=np.int64))
        assert got.dtype == np.int64 and got.tolist() == want, (a, b)
        counter = OpCounter()
        assert poly_mul(field, tuple(a), b, counter) == want
        charged = (len(a) * len(b), (len(a) - 1) * (len(b) - 1)) if a and b else (0, 0)
        assert (counter.mul, counter.add) == charged


@pytest.mark.parametrize("field", POLY_FIELDS, ids=repr)
def test_divmod_matches_schoolbook(field):
    # a trailing zero of the divisor is trimmed; each of the len(num) - deg
    # steps is charged deg + 2 mul and deg + 1 add
    rng = random.Random(field.q + 1)
    for num, den in _operand_pairs(field, rng):
        if not trim(den):
            with pytest.raises(DivisionByZero):
                poly_divmod(field, num, den)
            continue
        counter = OpCounter()
        quot, rem = poly_divmod(field, num, den + [0], counter)
        assert (quot, rem) == _schoolbook_divmod(field, num, trim(den)), (num, den)
        assert all(type(c) is int for c in quot + rem)
        steps = max(0, len(num) - len(trim(den)) + 1)
        assert (counter.mul, counter.add) == (steps * (len(trim(den)) + 1), steps * len(trim(den)))


def test_divmod_reconstructs():
    rng = random.Random(0)
    for field in (F11, F16):
        for _ in range(50):
            num = [rng.randrange(field.q) for _ in range(rng.randrange(1, 9))]
            den = [rng.randrange(field.q) for _ in range(rng.randrange(1, 5))]
            if not trim(den):
                continue
            q, r = poly_divmod(field, num, den)
            back = poly_mul(field, q, den)
            size = max(len(num), len(back))
            diff = field.vsub(num + [0] * (size - len(num)), back + [0] * (size - len(back)))
            assert trim(diff.tolist()) == trim(r)
            assert len(trim(r)) < len(trim(den))


def test_roots_vanish():
    roots = [1, 3, 5]
    g = poly_from_roots(F11, roots)
    for r in roots:
        assert poly_eval(F11, g, r) == 0
    assert poly_eval(F11, g, 2) != 0


def test_interpolation_round_trip():
    rng = random.Random(1)
    for field in (F11, F16):
        pts = list(range(1, 7))
        for _ in range(25):
            coeffs = [rng.randrange(field.q) for _ in range(6)]
            vals = [poly_eval(field, coeffs, x) for x in pts]
            assert lagrange_interpolate(field, pts, vals) == coeffs
    assert lagrange_interpolate(F11, [], []) == []
    with pytest.raises(DimensionMismatch, match="2 points but 1 values"):
        lagrange_interpolate(F11, [1, 2], [1])


def test_eval_many_matches_scalar():
    rng = random.Random(2)
    coeffs = [rng.randrange(11) for _ in range(5)]
    xs = list(range(11))
    assert poly_eval_many(F11, coeffs, xs) == [poly_eval(F11, coeffs, x) for x in xs]


@pytest.mark.parametrize("field", [prime_field(2), F11, F16, binary_field(8), fermat_field()],
                         ids=repr)
def test_lagrange_basis_transposed_is_the_vandermonde_inverse(field):
    # the reference is the Gauss-Jordan inverse of the Vandermonde matrix,
    # with the point 0 first among the points
    rng = random.Random(field.q)
    for k in range(1, min(field.q, 20) + 1):
        points = [0] + rng.sample(range(1, field.q), k - 1)
        want = mat_inv(FieldMatrix(field, vandermonde(field, k, k, points)))
        basis = lagrange_basis(field, points)
        assert basis.dtype == np.int64 and np.array_equal(basis.T, want), k


def test_lagrange_basis_refuses_repeated_points():
    with pytest.raises(DivisionByZero):
        lagrange_basis(F11, [1, 2, 1])


@pytest.mark.parametrize("field", [prime_field(2), F11, F16, binary_field(8), fermat_field()],
                         ids=repr)
def test_from_roots_matches_repeated_products(field):
    # the reference: one poly_mul (one Field.convolve) by X - r per root
    rng = random.Random(field.q)
    for count in (0, 1, 2, 7, 33):
        roots = [rng.randrange(field.q) for _ in range(count)]
        want = [1]
        for r in roots:
            want = poly_mul(field, want, [field.neg(r), 1])
        got = poly_from_roots(field, roots)
        assert got == want and all(type(c) is int for c in got)


def test_derivative_in_the_prime_subfield():
    # coefficient i is multiplied by i mod the characteristic: characteristic
    # 2 drops the even terms, GF(11) the term of degree 11
    p = list(range(1, 14))
    assert poly_derivative(F16, p) == [v if i % 2 else 0 for i, v in enumerate(p) if i]
    assert poly_derivative(F11, p) == [F11.mul(i % 11, v) for i, v in enumerate(p) if i]
    assert poly_derivative(F11, p)[10] == 0
    assert poly_derivative(F16, [5]) == poly_derivative(F16, []) == []
