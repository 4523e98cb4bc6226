import dataclasses
import itertools
import random

import numpy as np
import pytest

from regencodes.counting import OpCounter
from regencodes.errors import (
    DuplicatePosition,
    FieldTooSmall,
    IndexOutOfRange,
    InsufficientSymbols,
    ParamsInvalid,
)
from regencodes.gf import binary_field, fermat_field, prime_field
from regencodes.matrix import FieldMatrix, mat_inv, mat_mul, vandermonde
from regencodes.poly import poly_divmod, poly_eval_many, poly_from_roots, trim
from regencodes.psrs import (
    PsrsMessage,
    _generator,
    decode_full_eval,
    decode_full_genpoly,
    decode_partial_eval,
    decode_partial_genpoly,
    encode_eval,
    encode_genpoly,
    eval_params,
    generator_matrix,
    genpoly_params,
)

from oracles import solve_full_genpoly_linear

F7 = prime_field(7)
F11 = prime_field(11)

# reference vectors: (n=6, k=3, d=4) over GF(7) with points 1..6
REF7 = eval_params(F7, 6, 3, 4)
REF7_PHI = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 4, 3], [3, 6, 6], [6, 6, 3]]
REF7_DELTA = [[0], [0], [0], [6], [3], [4]]


def rand_msg(params, rng):
    a = tuple(rng.randrange(params.field.q) for _ in range(params.k))
    b = tuple(rng.randrange(params.field.q) for _ in range(params.d - params.k))
    return PsrsMessage(a, b)


def test_params_validation():
    with pytest.raises(ParamsInvalid):
        eval_params(F7, 6, 4, 3)  # k > d
    with pytest.raises(ParamsInvalid):
        eval_params(F7, 4, 2, 4)  # d = n
    with pytest.raises(FieldTooSmall):
        eval_params(F7, 8, 2, 3)
    with pytest.raises(FieldTooSmall):
        genpoly_params(F7, 7, 2, 3)  # genpoly needs n <= q-1
    with pytest.raises(ParamsInvalid, match="not both"):
        eval_params(fermat_field(), 4, 2, 3, points=[1, 2, 3, 4], ntt=True)
    with pytest.raises(ParamsInvalid, match="k=0"):
        genpoly_params(F7, 6, 0, 3)
    # a message of the wrong shape, the wrong form's encoder and a wrong-length b
    with pytest.raises(ParamsInvalid, match=r"message shape \(2, 1\)"):
        encode_eval(REF7, PsrsMessage((1, 2), (3,)))
    with pytest.raises(ParamsInvalid, match="requires genpoly form"):
        encode_genpoly(REF7, PsrsMessage((1, 2, 3), (4,)))
    with pytest.raises(ParamsInvalid, match="b has 2 symbols, expected 1"):
        decode_partial_eval(REF7, [(1, 1), (2, 2), (3, 3)], [1, 2])


def test_generator_matrix_reference_values():
    g = generator_matrix(REF7)
    assert g.tolist() == [phi + delta for phi, delta in zip(REF7_PHI, REF7_DELTA)]


def test_generator_matrix_top_rows_systematic():
    for params in (REF7, eval_params(F11, 8, 3, 5), eval_params(binary_field(4), 10, 4, 6)):
        g = generator_matrix(params)
        for l in range(params.k):
            want = [0] * params.d
            want[l] = 1
            assert g[l].tolist() == want


def _scalar_phi_parity(params):
    """Phi's parity rows by scalar field ops: barycentric weights by a
    double loop, Phi[l, i] = Gamma(x_l) w_i / (x_l - x_i)."""
    f, k, pts = params.field, params.k, list(params.points)
    weights = []
    for i in range(k):
        w = 1
        for j in range(k):
            if j != i:
                w = f.mul(w, f.sub(pts[i], pts[j]))
        weights.append(f.inv(w))
    rows = []
    for x in pts[k:]:
        gamma = 1
        for p in pts[:k]:
            gamma = f.mul(gamma, f.sub(x, p))
        rows.append([f.mul(f.mul(gamma, weights[i]), f.inv(f.sub(x, pts[i])))
                     for i in range(k)])
    return rows


GENERATOR_PARAMS = [
    eval_params(F11, 10, 4, 6), eval_params(binary_field(4), 16, 5, 8),
    eval_params(binary_field(8), 64, 32, 48), eval_params(fermat_field(), 64, 32, 48),
    eval_params(fermat_field(), 64, 32, 48, ntt=True), eval_params(fermat_field(), 12, 5, 7, ntt=True),
]
GENERATOR_IDS = [f"{p.field!r}-{p.n}-{'ntt' if p.ntt_size else 'plain'}" for p in GENERATOR_PARAMS]


@pytest.mark.parametrize("params", GENERATOR_PARAMS, ids=GENERATOR_IDS)
def test_generator_weights_match_scalar_loop(params):
    g = generator_matrix(params)
    assert g[params.k:, :params.k].tolist() == _scalar_phi_parity(params)


@pytest.mark.parametrize("params", GENERATOR_PARAMS + [eval_params(F11, 11, 3, 7, points=range(11))],
                         ids=GENERATOR_IDS + ["GF(11)-points-from-0"])
def test_generator_matrix_matches_replaced_construction(params):
    # the references: Phi = V V[:k]^-1 by Gauss-Jordan, and Delta column
    # j = Gamma(x) x^j with Gamma evaluated from its coefficients by Horner
    f, n, k, d = params.field, params.n, params.k, params.d
    v = vandermonde(f, n, d, params.points)
    phi = mat_mul(f, v[:, :k], mat_inv(FieldMatrix(f, v[:k, :k])))
    gamma = poly_eval_many(f, poly_from_roots(f, params.points[:k]), params.points)
    delta = f.vmul(np.array(gamma)[:, None], v[:, :d - k])
    assert generator_matrix(params).tolist() == np.concatenate([phi, delta], axis=1).tolist()


def test_encode_eval_systematic_and_zero():
    rng = random.Random(0)
    params = eval_params(F11, 8, 3, 5)
    zero = PsrsMessage((0,) * 3, (0,) * 2)
    assert encode_eval(params, zero) == [0] * 8
    for _ in range(20):
        msg = rand_msg(params, rng)
        cw = encode_eval(params, msg)
        assert tuple(cw[:3]) == msg.a


def test_encode_eval_matches_generator_matrix():
    rng = random.Random(1)
    for params in (REF7, eval_params(F11, 8, 3, 5), eval_params(binary_field(4), 9, 2, 6)):
        g = generator_matrix(params)
        for _ in range(30):
            msg = rand_msg(params, rng)
            col = np.array([[v] for v in list(msg.a) + list(msg.b)])
            want = [r[0] for r in mat_mul(params.field, g, col).tolist()]
            assert encode_eval(params, msg) == want


def test_decode_full_eval_round_trip_positions():
    rng = random.Random(2)
    msg = rand_msg(REF7, rng)
    cw = encode_eval(REF7, msg)
    got = decode_full_eval(REF7, [(p, cw[p - 1]) for p in (4, 5, 6, 1)])
    assert got == msg


def test_decode_full_eval_exhaustive_subsets():
    rng = random.Random(3)
    for _ in range(20):
        msg = rand_msg(REF7, rng)
        cw = encode_eval(REF7, msg)
        for subset in itertools.combinations(range(1, 7), 4):
            got = decode_full_eval(REF7, [(p, cw[p - 1]) for p in subset])
            assert got == msg


def test_decode_full_eval_errors():
    with pytest.raises(InsufficientSymbols):
        decode_full_eval(REF7, [(1, 0), (2, 0), (3, 0)])
    with pytest.raises(DuplicatePosition):
        decode_full_eval(REF7, [(1, 0), (1, 0), (2, 0), (3, 0)])


def test_decode_partial_eval_systematic_positions():
    rng = random.Random(4)
    msg = rand_msg(REF7, rng)
    cw = encode_eval(REF7, msg)
    got = decode_partial_eval(REF7, [(p, cw[p - 1]) for p in (1, 2, 3)], list(msg.b))
    assert tuple(got) == msg.a


def test_decode_partial_eval_nonsystematic_positions():
    rng = random.Random(5)
    for _ in range(10):
        msg = rand_msg(REF7, rng)
        cw = encode_eval(REF7, msg)
        got = decode_partial_eval(REF7, [(p, cw[p - 1]) for p in (4, 5, 6)], list(msg.b))
        assert tuple(got) == msg.a


def test_partial_agrees_with_full_eval():
    rng = random.Random(6)
    params = eval_params(F11, 9, 4, 6)
    for _ in range(50):
        msg = rand_msg(params, rng)
        cw = encode_eval(params, msg)
        subset = rng.sample(range(1, 10), 6)
        full = decode_full_eval(params, [(p, cw[p - 1]) for p in subset])
        part = decode_partial_eval(params, [(p, cw[p - 1]) for p in subset[:4]], list(msg.b))
        assert full == msg and tuple(part) == msg.a


def test_encode_genpoly_systematic_window():
    rng = random.Random(7)
    params = genpoly_params(F11, 10, 3, 5)
    zero = PsrsMessage((0,) * 3, (0,) * 2)
    assert encode_genpoly(params, zero) == [0] * 10
    for _ in range(20):
        msg = rand_msg(params, rng)
        c = encode_genpoly(params, msg)
        assert tuple(c[10 - 3:]) == msg.a


def test_encode_genpoly_divisible_by_g1():
    # both c0 and c1 are multiples of g1, hence so is the sum
    rng = random.Random(8)
    params = genpoly_params(F11, 10, 3, 5)
    g1 = list(_generator(params, 10 - 5))  # n - d roots
    for _ in range(50):
        msg = rand_msg(params, rng)
        c = encode_genpoly(params, msg)
        _, rem = poly_divmod(F11, c, g1)
        assert trim(rem) == []


def test_genpoly_g0_divides_c0_component():
    rng = random.Random(9)
    params = genpoly_params(F11, 10, 3, 5)
    for _ in range(20):
        a = tuple(rng.randrange(11) for _ in range(3))
        msg = PsrsMessage(a, (0, 0))
        c = encode_genpoly(params, msg)
        _, rem = poly_divmod(F11, c, list(_generator(params, 10 - 3)))
        assert trim(rem) == []


def test_decode_full_genpoly_exhaustive():
    rng = random.Random(10)
    params = genpoly_params(F11, 8, 3, 5)
    for _ in range(10):
        msg = rand_msg(params, rng)
        c = encode_genpoly(params, msg)
        for subset in itertools.combinations(range(8), 5):
            got = decode_full_genpoly(params, [(t, c[t]) for t in subset])
            assert got == msg


def test_decode_full_genpoly_full_codeword():
    rng = random.Random(11)
    params = genpoly_params(F11, 8, 3, 5)
    msg = rand_msg(params, rng)
    c = encode_genpoly(params, msg)
    assert decode_full_genpoly(params, list(enumerate(c))) == msg


def _counts(call):
    counter = OpCounter()
    call(counter)
    return counter.mul, counter.add


# (field, n, k, d) with the (mul, add) of encode_genpoly, of
# decode_full_genpoly from the top d coefficients (n - d erasures) and of
# decode_partial_genpoly from the top k, for a = (1, .., k), b = (k+1, .., d)
FORNEY_CASES = [
    (F11, 9, 3, 6, [(39, 42), (72, 63), (165, 150)]),
    (binary_field(4), 12, 4, 7, [(61, 66), (165, 151), (293, 274)]),
    (binary_field(8), 20, 6, 11, [(151, 160), (501, 477), (895, 862)]),
]


@pytest.mark.parametrize("field,n,k,d,counts", FORNEY_CASES,
                         ids=[repr(case[0]) for case in FORNEY_CASES])
def test_forney_matches_linear_oracle(field, n, k, d, counts):
    # in characteristic 2 the formal derivative of the erasure locator drops
    # its even terms; Forney must still agree with the linear solve, with no
    # erasure and with the most (n - d) erasures
    rng = random.Random(12)
    params = genpoly_params(field, n, k, d)
    for trial in range(60):
        msg = rand_msg(params, rng)
        c = encode_genpoly(params, msg)
        subset = list(range(n)) if trial % 3 == 0 else rng.sample(range(n), d)
        pairs = [(t, c[t]) for t in subset]
        forney = decode_full_genpoly(params, pairs)
        oracle = solve_full_genpoly_linear(params, pairs)
        assert forney == oracle == msg
    msg = PsrsMessage(tuple(range(1, k + 1)), tuple(range(k + 1, d + 1)))
    c = encode_genpoly(params, msg)
    assert [_counts(lambda ctr: encode_genpoly(params, msg, ctr)),
            _counts(lambda ctr: decode_full_genpoly(params, list(enumerate(c))[n - d:], ctr)),
            _counts(lambda ctr: decode_partial_genpoly(params, list(enumerate(c))[n - k:],
                                                       list(msg.b), ctr))] == counts


@pytest.mark.parametrize("field", [fermat_field(), binary_field(8)], ids=repr)
def test_eval_decoders_read_only_the_symbols_they_need(field):
    # at (64, 32, 48) a full read interpolates the first d = 48 pairs and a
    # partial read evaluates Delta at and interpolates the first k = 32, so
    # all 64 pairs cost what 48 do; the pairs past those are still checked
    params = eval_params(field, 64, 32, 48)
    rng = random.Random(19)
    msg = rand_msg(params, rng)
    pairs = list(enumerate(encode_eval(params, msg), 1))
    rng.shuffle(pairs)
    for read in (pairs, pairs[:48]):
        full, part = OpCounter(), OpCounter()
        assert decode_full_eval(params, read, full) == msg
        assert tuple(decode_partial_eval(params, read, list(msg.b), part)) == msg.a
        assert [(full.mul, full.add), (part.mul, part.add)] == [(3_840, 3_824), (4_048, 4_000)]
    late = {DuplicatePosition: pairs[:48] + [(pairs[0][0], 0)],
            IndexOutOfRange: pairs[:48] + [(65, 0)],
            ValueError: pairs[:-1] + [(pairs[-1][0], field.q)]}
    for error, read in late.items():
        with pytest.raises(error):
            decode_full_eval(params, read)
        with pytest.raises(error):
            decode_partial_eval(params, read, list(msg.b))


def test_decode_partial_genpoly_exhaustive():
    rng = random.Random(13)
    params = genpoly_params(F11, 8, 3, 5)
    for _ in range(5):
        msg = rand_msg(params, rng)
        c = encode_genpoly(params, msg)
        for subset in itertools.combinations(range(8), 3):
            got = decode_partial_genpoly(params, [(t, c[t]) for t in subset], list(msg.b))
            assert tuple(got) == msg.a


def test_partial_agrees_with_full_genpoly():
    rng = random.Random(14)
    params = genpoly_params(binary_field(4), 12, 4, 7)
    for _ in range(25):
        msg = rand_msg(params, rng)
        c = encode_genpoly(params, msg)
        subset = rng.sample(range(12), 7)
        full = decode_full_genpoly(params, [(t, c[t]) for t in subset])
        part = decode_partial_genpoly(params, [(t, c[t]) for t in subset[:4]], list(msg.b))
        assert full == msg and tuple(part) == msg.a


def test_ntt_encode_matches_naive():
    ff = fermat_field()
    rng = random.Random(15)
    for n, k, d in ((8, 3, 5), (16, 6, 8), (32, 12, 16)):
        fast = eval_params(ff, n, k, d, ntt=True)
        assert fast.ntt_size is not None
        naive = eval_params(ff, n, k, d, points=fast.points)
        # same points passed explicitly: no transform size, so the Horner path
        naive = dataclasses.replace(naive, ntt_size=None)
        for _ in range(10):
            msg = rand_msg(fast, rng)
            assert encode_eval(fast, msg) == encode_eval(naive, msg)


def test_ntt_encode_counts_fewer_ops_at_scale():
    ff = fermat_field()
    rng = random.Random(16)
    n, k, d = 256, 96, 128
    fast = eval_params(ff, n, k, d, ntt=True)
    naive = dataclasses.replace(fast, ntt_size=None)
    msg = rand_msg(fast, rng)
    c_fast, c_naive = OpCounter(), OpCounter()
    assert encode_eval(fast, msg, c_fast) == encode_eval(naive, msg, c_naive)
    assert c_fast.mul < c_naive.mul


def test_counts_do_not_depend_on_zero_symbols():
    # counts are algebraic: a division step whose leading coefficient is 0
    # is charged like any other, so zero symbols in the message change no count
    gp = genpoly_params(F11, 8, 3, 5)
    ev = eval_params(F11, 8, 3, 5)
    calls = {
        "encode_genpoly": lambda m, c: encode_genpoly(gp, m, c),
        "decode_full_eval": lambda m, c: decode_full_eval(
            ev, [(p, v) for p, v in enumerate(encode_eval(ev, m), 1)][2:7], c),
        "decode_full_genpoly": lambda m, c: decode_full_genpoly(
            gp, [(t, v) for t, v in enumerate(encode_genpoly(gp, m))][1:6], c),
        "decode_partial_genpoly": lambda m, c: decode_partial_genpoly(
            gp, [(t, v) for t, v in enumerate(encode_genpoly(gp, m))][2:5], list(m.b), c),
    }
    msgs = [PsrsMessage((1, 2, 3), (4, 5)), PsrsMessage((0, 0, 0), (0, 0)),
            PsrsMessage((0, 2, 0), (4, 0)), PsrsMessage((1, 0, 0), (0, 5))]
    for name, call in calls.items():
        counts = {_counts(lambda c: call(m, c)) for m in msgs}
        assert len(counts) == 1, (name, counts)


def test_d_equals_k_degenerates_to_plain_rs():
    rng = random.Random(17)
    params = eval_params(F11, 8, 4, 4)
    for _ in range(10):
        msg = PsrsMessage(tuple(rng.randrange(11) for _ in range(4)), ())
        cw = encode_eval(params, msg)
        assert tuple(cw[:4]) == msg.a
        subset = rng.sample(range(1, 9), 4)
        assert decode_full_eval(params, [(p, cw[p - 1]) for p in subset]) == msg


def test_full_codeword_decode_uses_inverse_transform():
    ff = fermat_field()
    rng = random.Random(18)
    params = eval_params(ff, 16, 5, 9, ntt=True)
    for _ in range(10):
        msg = rand_msg(params, rng)
        cw = encode_eval(params, msg)
        assert decode_full_eval(params, list(enumerate(cw, start=1))) == msg
        # same answer as the Lagrange path on a d-subset
        subset = rng.sample(range(1, 17), 9)
        assert decode_full_eval(params, [(p, cw[p - 1]) for p in subset]) == msg
