import dataclasses
import itertools
import random

import numpy as np
import pytest

from regencodes.counting import OpCounter
from regencodes.errors import (
    DuplicateHelper,
    DuplicateIndex,
    FieldTooSmall,
    IndexOutOfRange,
    NotSkewSymmetric,
    ParamsInvalid,
    PlanPayloadMismatch,
    WrongHelperCount,
    WrongMessageLength,
)
from regencodes.fragments import fragment_symbol
from regencodes.gf import binary_field, fermat_field, prime_field
from regencodes import rbt
from regencodes.matrix import (
    FieldMatrix,
    congruence,
    interpolation_inverse,
    is_skew_symmetric,
    mat_inv,
)
from regencodes.plans import DownloadPlan
from regencodes.rbt import (
    RbtCodeword,
    RbtParams,
    decision,
    extract_payloads,
    message_from_block,
    parity_block,
    rbt_build_encoding,
    rbt_build_message,
    rbt_encode,
    rbt_encode_systematic,
    rbt_partial_plan,
    rbt_reconstruct_full,
    rbt_reconstruct_partial,
    rbt_repair,
    source_block,
)

from oracles import remapped_message

F4 = binary_field(2)
F7 = prime_field(7)
REF4 = RbtParams(F4, 5, 3)  # n = q+1 doubly-extended case


def rand_message(params, rng):
    return [rng.randrange(params.field.q) for _ in range(params.B)]


def test_params():
    assert REF4.d == 4 and REF4.alpha == 4 and REF4.B == 9
    with pytest.raises(FieldTooSmall):
        RbtParams(F4, 6, 3)
    with pytest.raises(ParamsInvalid):
        RbtParams(F7, 5, 5)


def test_message_matrix_reference_layout():
    # strict upper triangle of [S T] filled row-major with u1..u9
    u = list(range(1, 10))
    params = RbtParams(prime_field(11), 5, 3)
    m = rbt_build_message(params, u)
    f = params.field
    want = [
        [0, 1, 2, 3, 4],
        [f.neg(1), 0, 5, 6, 7],
        [f.neg(2), f.neg(5), 0, 8, 9],
        [f.neg(3), f.neg(6), f.neg(8), 0, 0],
        [f.neg(4), f.neg(7), f.neg(9), 0, 0],
    ]
    assert m.tolist() == want
    assert is_skew_symmetric(params.field, m)


def test_message_matrix_zero_and_length():
    assert rbt_build_message(REF4, [0] * 9).tolist() == [[0] * 5] * 5
    with pytest.raises(WrongMessageLength):
        rbt_build_message(REF4, [0] * 8)


def test_message_matrix_skew_random():
    rng = random.Random(0)
    params = RbtParams(F7, 6, 3)
    for _ in range(50):
        assert is_skew_symmetric(params.field, rbt_build_message(params, rand_message(params, rng)))


def test_encoding_matrix_reference_values():
    w = F4.omega
    w2 = F4.mul(w, w)
    w4 = F4.mul(w2, w2)
    psi = rbt_build_encoding(REF4)
    assert psi.tolist() == [
        [1, 0, 0, 0, 0],
        [1, 1, 1, 0, 0],
        [1, w, w2, 0, 0],
        [1, w2, w4, 1, 0],
        [0, 0, 1, 0, 1],
    ]


def test_encoding_matrix_systematic_top_block():
    params = RbtParams(prime_field(11), 8, 3, systematic=True)
    psi = rbt_build_encoding(params)
    for i in range(3):
        row = [0] * 8
        row[i] = 1
        assert psi[i].tolist() == row


def test_encoding_matrix_invertible_sweep():
    f11 = prime_field(11)
    for n in range(2, 9):
        for k in range(1, n):
            for systematic in (False, True):
                psi = rbt_build_encoding(RbtParams(f11, n, k, systematic=systematic))
                mat_inv(FieldMatrix(f11, psi))


def test_phi_any_k_rows_independent():
    for params in (REF4, RbtParams(F7, 6, 3), RbtParams(F7, 8, 4, systematic=True)):
        phi = rbt_build_encoding(params)[:, : params.k]
        for subset in itertools.combinations(range(params.n), params.k):
            mat_inv(FieldMatrix(params.field, phi[list(subset)]))


def test_encode_zero_and_char2_signfix():
    cw = rbt_encode(REF4, [0] * 9)
    assert cw.check.tolist() == [[0] * 5] * 5
    assert cw.check.dtype == np.int64 and not cw.check.flags.writeable
    rng = random.Random(1)
    u = rand_message(REF4, rng)
    # char 2: check matrix equals the raw congruence elementwise
    m = rbt_build_message(REF4, u)
    psi = rbt_build_encoding(REF4)
    assert np.array_equal(rbt_encode(REF4, u).check, congruence(F4, psi, m))


def test_encode_symmetry_gf7():
    rng = random.Random(2)
    params = RbtParams(F7, 6, 3)
    for _ in range(50):
        cw = rbt_encode(params, rand_message(params, rng))
        a = cw.check
        assert (a == a.T).all() and (a.diagonal() == 0).all()


def test_signfix_involution():
    from regencodes.rbt import sign_fix

    rng = random.Random(3)
    params = RbtParams(F7, 6, 3)
    m = rbt_build_message(params, rand_message(params, rng))
    nodes = range(1, params.n + 1)
    assert np.array_equal(sign_fix(params, sign_fix(params, m, nodes), nodes), m)
    # a read's rows flip as they do in the whole matrix, at node - 1 add each
    counter = OpCounter()
    read = [5, 1, 3]
    got = sign_fix(params, m[[i - 1 for i in read]], read, counter)
    assert np.array_equal(got, sign_fix(params, m, nodes)[[i - 1 for i in read]])
    assert (counter.mul, counter.add) == (0, 4 + 0 + 2)


def test_repair_round_trip_and_zero_ops():
    rng = random.Random(4)
    for params in (REF4, RbtParams(F7, 6, 3)):
        for _ in range(20):
            cw = rbt_encode(params, rand_message(params, rng))
            frags = {f.node: f for f in cw.fragments()}
            for failed in range(1, params.n + 1):
                counter = OpCounter()
                responses = [
                    (i, fragment_symbol(frags[i], failed))
                    for i in range(1, params.n + 1)
                    if i != failed
                ]
                repaired = rbt_repair(params, responses, failed, counter)
                assert repaired == frags[failed]
                assert counter.mul == 0 and counter.add == 0


def test_repair_validation():
    cw = rbt_encode(REF4, [1, 2, 3, 0, 1, 2, 3, 0, 1])
    frags = {f.node: f for f in cw.fragments()}
    responses = [(i, fragment_symbol(frags[i], 5)) for i in (1, 2, 3)]
    with pytest.raises(WrongHelperCount):
        rbt_repair(REF4, responses, 5)
    bad = responses + [(5, 0)]
    with pytest.raises(DuplicateHelper):  # the failed node cannot help itself
        rbt_repair(REF4, bad, 5)


def test_reconstruct_full_exhaustive():
    rng = random.Random(5)
    params = RbtParams(F7, 6, 3)
    for _ in range(10):
        u = rand_message(params, rng)
        cw = rbt_encode(params, u)
        for subset in itertools.combinations(range(1, 7), 3):
            frags = [cw.fragments()[i - 1] for i in subset]
            assert rbt_reconstruct_full(params, frags) == u


def test_reconstruct_zero():
    cw = rbt_encode(REF4, [0] * 9)
    assert rbt_reconstruct_full(REF4, [cw.fragments()[i - 1] for i in (2, 4, 5)]) == [0] * 9


def test_systematic_encode_matches_remapped_congruence():
    rng = random.Random(6)
    params = RbtParams(F7, 6, 3, systematic=True)
    for _ in range(30):
        u = rand_message(params, rng)
        block = source_block(params, u)
        direct = rbt_encode_systematic(params, block)
        via_congruence = rbt_encode(params, remapped_message(params, block))
        assert np.array_equal(direct.check, via_congruence.check)
        assert message_from_block(params, direct.check) == u


def test_systematic_source_rows_verbatim():
    rng = random.Random(7)
    params = RbtParams(prime_field(11), 7, 3, systematic=True)
    u = rand_message(params, rng)
    cw = rbt_encode_systematic(params, source_block(params, u))
    assert message_from_block(params, cw.check) == u


def test_systematic_v_block_skew():
    rng = random.Random(8)
    params = RbtParams(F7, 6, 3, systematic=True)
    for _ in range(50):
        u = rand_message(params, rng)
        m = rbt_build_message(params, remapped_message(params, source_block(params, u)))
        psi = rbt_build_encoding(params)
        c_hat = congruence(params.field, psi, m)
        assert is_skew_symmetric(params.field, c_hat[3:, 3:])


def test_systematic_rejects_bad_block():
    params = RbtParams(F7, 6, 3, systematic=True)
    block = source_block(params, [1] * params.B)
    bad = block.copy()
    bad[0, 0] = 1  # nonzero diagonal in U_L
    with pytest.raises(NotSkewSymmetric):
        rbt_encode_systematic(params, bad)
    with pytest.raises(ParamsInvalid):
        rbt_encode_systematic(RbtParams(F7, 6, 3), block)
    with pytest.raises(ParamsInvalid, match="only in systematic mode"):
        parity_block(RbtParams(F7, 6, 3))
    with pytest.raises(ValueError, match="symmetric with zero diagonal"):
        RbtCodeword(params, np.ones((6, 6), dtype=np.int64))


def test_systematic_reconstruct_fast_path_agrees():
    rng = random.Random(9)
    params = RbtParams(F7, 6, 3, systematic=True)
    u = rand_message(params, rng)
    cw = rbt_encode_systematic(params, source_block(params, u))
    sys_frags = [cw.fragments()[i - 1] for i in (1, 2, 3)]
    other = [cw.fragments()[i - 1] for i in (2, 4, 6)]
    assert rbt_reconstruct_full(params, sys_frags) == u
    assert rbt_reconstruct_full(params, other) == u


def test_decision_tables_k5_k6():
    expected_k5 = {
        (1, 5): 1, (1, 4): 4, (2, 5): 5, (2, 4): 2, (3, 5): 3,
        (3, 4): 4, (4, 5): 5, (1, 3): 1, (2, 3): 3, (1, 2): 2,
    }
    for (j, l), want in expected_k5.items():
        assert decision(j, l) == want
    expected_k6 = {
        (1, 6): 6, (2, 6): 2, (3, 6): 6, (4, 6): 4, (5, 6): 6,
        (1, 5): 1, (2, 5): 5, (3, 5): 3, (4, 5): 5,
        (1, 4): 4, (2, 4): 2, (3, 4): 4,
        (1, 3): 1, (2, 3): 3,
        (1, 2): 2,
    }
    for (j, l), want in expected_k6.items():
        assert decision(j, l) == want


def test_partial_plan_totals_and_balance():
    for n in range(2, 11):
        for k in range(1, n):
            params = RbtParams(prime_field(13) if n <= 13 else fermat_field(), n, k)
            plan = rbt_partial_plan(params, list(range(1, k + 1)))
            assert plan.total_symbols == params.B
            counts = [len(p) for p in plan.positions]
            if k % 2 == 1:
                assert all(c == (n - 1) - (k - 1) // 2 for c in counts)
            else:
                for slot, c in enumerate(counts, start=1):
                    save = k // 2 - 1 if slot % 2 == 1 else k // 2
                    assert c == (n - 1) - save


def _pairwise_walk_plan(params, nodes):
    """Reference plan: `decision` names, for every slot pair, the slot that
    leaves the shared symbol out; each slot then scans all n columns."""
    k = params.k
    omit = {j: set() for j in range(1, k + 1)}
    for j in range(1, k + 1):
        for l in range(j + 1, k + 1):
            chosen = decision(j, l)
            other = l if chosen == j else j
            omit[chosen].add(nodes[other - 1])
    positions = tuple(tuple(c for c in range(1, params.n + 1) if c != node and c not in omit[j])
                      for j, node in enumerate(nodes, start=1))
    return DownloadPlan(scheme="rbt-pairwise", nodes=tuple(nodes), positions=positions)


def test_partial_plan_matches_pairwise_walk():
    # every ordered connected set for n <= 7, and random ones at (32,16)
    for n in range(2, 8):
        for k in range(1, n):
            params = RbtParams(F7, n, k)
            for nodes in itertools.permutations(range(1, n + 1), k):
                assert rbt_partial_plan(params, nodes) == _pairwise_walk_plan(params, nodes)
    params = RbtParams(binary_field(8), 32, 16, systematic=True)
    rng = random.Random(32)
    for _ in range(300):
        nodes = rng.sample(range(1, 33), 16)
        assert rbt_partial_plan(params, nodes) == _pairwise_walk_plan(params, nodes)


PSI_INVERSE_CASES = [
    (prime_field(11), [(n, k) for n in range(2, 13) for k in range(1, n)]),  # up to q+1
    (binary_field(4), [(n, k) for n in (5, 16, 17) for k in range(1, n)]),
    (binary_field(8), [(32, 1), (32, 16), (32, 31)]),
    (fermat_field(), [(32, 1), (32, 16), (32, 31)]),
]


@pytest.mark.parametrize("field, sizes", PSI_INVERSE_CASES, ids=[repr(f) for f, _ in PSI_INVERSE_CASES])
def test_psi_t_inv_is_the_block_inverse(field, sizes):
    # Psi = [[Phi_top, 0], [Phi_bot, I]] is inverted blockwise, with no n x n
    # elimination; it must equal Gauss-Jordan on Psi^t
    for n, k in sizes:
        for systematic in (False, True):
            params = RbtParams(field, n, k, systematic=systematic)
            expected = mat_inv(FieldMatrix(field, rbt_build_encoding(params).T))
            assert np.array_equal(rbt._psi_t_inv(params), expected), params


def test_partial_plan_k1():
    params = RbtParams(F7, 6, 1)
    plan = rbt_partial_plan(params, [4])
    assert plan.total_symbols == params.B == 5


def test_partial_plan_duplicate_nodes():
    with pytest.raises(DuplicateIndex):
        rbt_partial_plan(RbtParams(F7, 6, 3), [1, 1, 2])


def test_partial_reconstruct_matches_full():
    rng = random.Random(10)
    params = RbtParams(F7, 6, 3)
    for _ in range(50):
        u = rand_message(params, rng)
        cw = rbt_encode(params, u)
        connected = rng.sample(range(1, 7), 3)
        plan = rbt_partial_plan(params, connected)
        payloads = extract_payloads(cw.fragments(), plan)
        assert rbt_reconstruct_partial(params, plan, payloads) == u


def test_partial_reconstruct_zero():
    params = RbtParams(F7, 6, 3)
    cw = rbt_encode(params, [0] * params.B)
    plan = rbt_partial_plan(params, [1, 3, 5])
    assert rbt_reconstruct_partial(params, plan, extract_payloads(cw.fragments(), plan)) == [0] * params.B


def test_partial_plan_missing_shared_symbol():
    # a hand-built plan that leaves out both copies of the symbol nodes 1
    # and 2 share is refused with a typed error
    params = RbtParams(prime_field(11), 6, 3)
    cw = rbt_encode(params, [i % 11 for i in range(params.B)])
    plan = rbt_partial_plan(params, [1, 2, 3])
    positions = tuple(tuple(c for c in pos if (node, c) not in ((1, 2), (2, 1)))
                      for node, pos in zip(plan.nodes, plan.positions))
    plan = dataclasses.replace(plan, positions=positions)
    with pytest.raises(PlanPayloadMismatch):
        rbt_reconstruct_partial(params, plan, extract_payloads(cw.fragments(), plan))


@pytest.mark.parametrize("column", [0, 7])
def test_partial_plan_position_outside_row(column):
    params = RbtParams(F7, 6, 3)
    cw = rbt_encode(params, [i % 7 for i in range(params.B)])
    plan = rbt_partial_plan(params, [1, 3, 5])
    payloads = extract_payloads(cw.fragments(), plan)
    positions = list(plan.positions)
    positions[2] = (column,) + positions[2][1:]
    plan = dataclasses.replace(plan, positions=tuple(positions))
    with pytest.raises(IndexOutOfRange):
        rbt_reconstruct_partial(params, plan, payloads)


def test_exhaustive_small_n_everything():
    # reconstruction from every k-subset and repair of every failure, n <= 8
    rng = random.Random(11)
    f11 = prime_field(11)
    for n in range(2, 8):
        for k in range(1, n):
            params = RbtParams(f11, n, k)
            u = rand_message(params, rng)
            cw = rbt_encode(params, u)
            frags = {f.node: f for f in cw.fragments()}
            for failed in range(1, n + 1):
                responses = [(i, fragment_symbol(frags[i], failed))
                             for i in frags if i != failed]
                assert rbt_repair(params, responses, failed) == frags[failed]
            for subset in itertools.combinations(range(1, n + 1), k):
                assert rbt_reconstruct_full(params, [frags[i] for i in subset]) == u


@pytest.mark.parametrize("n", [6, 7, 8])
def test_systematic_reads_every_node_set(n):
    # rbt-sys over GF(7): for n <= q = 7 the read inverts Phi_DC in closed
    # form, with the point 0 when n = q; at n = q+1 = 8, whose last row is
    # the point at infinity, by Gauss-Jordan
    params = RbtParams(F7, n, 3, systematic=True)
    rng = random.Random(n)
    u = rand_message(params, rng)
    cw = rbt_encode_systematic(params, source_block(params, u))
    for nodes in itertools.combinations(range(1, n + 1), params.k):
        nodes = rng.sample(nodes, params.k)
        if n <= F7.q:
            rows = [i - 1 for i in nodes]
            got = interpolation_inverse(F7, rbt._sys_points(params), rows)
            assert got.tolist() == mat_inv(FieldMatrix(F7, rbt_build_encoding(params)[rows, :params.k])).tolist()
        assert rbt_reconstruct_full(params, [cw.fragments()[i - 1] for i in nodes]) == u
        plan = rbt_partial_plan(params, nodes)
        assert rbt_reconstruct_partial(params, plan, extract_payloads(cw.fragments(), plan)) == u


# an rbt-sys (32, 16) read by its number of systematic nodes: five products
# and two sums (32,768 mul, 31,744 add) and interpolation_cost(16, c) for
# the c = 16 - systematic rows of Phi_DC^-1 that are not unit rows
PARTIAL_READ_COUNTS = {0: (34_016, 32_240), 8: (33_512, 32_112), 15: (33_071, 32_000)}


@pytest.mark.parametrize("systematic", [0, 8, 15])
def test_partial_read_count_does_not_depend_on_unit_rows(systematic):
    # rbt-sys nodes 1..k hold unit rows of Phi; the closed-form Phi_DC^-1
    # computes only the rows of the systematic points the read lacks
    params = RbtParams(binary_field(8), 32, 16, systematic=True)
    rng = random.Random(40 + systematic)
    u = rand_message(params, rng)
    cw = rbt_encode_systematic(params, source_block(params, u))
    nodes = rng.sample(range(1, 17), systematic) + rng.sample(range(17, 33), 16 - systematic)
    rng.shuffle(nodes)
    plan = rbt_partial_plan(params, nodes)
    counter = OpCounter()
    assert rbt_reconstruct_partial(params, plan, extract_payloads(cw.fragments(), plan), counter) == u
    assert (counter.mul, counter.add) == PARTIAL_READ_COUNTS[systematic]
