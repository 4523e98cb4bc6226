import random

import numpy as np
import pytest

from regencodes.errors import DivisionByZero
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
    # the reference: one scalar poly_mul by X - r per root
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
