import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regencodes.counting import OpCounter
from regencodes.errors import (
    DuplicateHelper,
    FieldTooSmall,
    ParamsInvalid,
    SchemeBackendMismatch,
    WrongFragmentCount,
    WrongHelperCount,
)
from regencodes.fragments import Fragment
from regencodes.gf import binary_field, fermat_field, prime_field
from regencodes.matrix import FieldMatrix, mat_mul
from regencodes.mbr import (
    MbrParams,
    assign_slots,
    mbr_build_encoding,
    mbr_build_message,
    mbr_encode,
    mbr_encode_columns,
    mbr_extract_payloads,
    mbr_helper_response,
    mbr_partial_plan,
    mbr_reconstruct_full,
    mbr_reconstruct_partial,
    mbr_repair,
    mbr_timeshare_schedule,
    message_from_block,
    psi_row,
    repair_from_fragments,
)

F7 = prime_field(7)
REF7 = MbrParams(F7, 6, 3, 4)  # systematic psrs backend over GF(7)
REF7_PSI = [
    [1, 0, 0, 0],
    [0, 1, 0, 0],
    [0, 0, 1, 0],
    [1, 4, 3, 6],
    [3, 6, 6, 3],
    [6, 6, 3, 4],
]


def rand_message(params, rng):
    return [rng.randrange(params.field.q) for _ in range(params.B)]


def test_params():
    assert REF7.alpha == 4 and REF7.beta == 1 and REF7.B == 9
    with pytest.raises(ParamsInvalid):
        MbrParams(F7, 6, 4, 3)
    with pytest.raises(FieldTooSmall):
        MbrParams(F7, 8, 3, 4)
    with pytest.raises(ParamsInvalid):
        MbrParams(F7, 6, 3, 4, ntt=True)  # ntt needs the Fermat field


def test_message_matrix_reference_layout():
    params = MbrParams(prime_field(11), 6, 3, 4)
    m = mbr_build_message(params, list(range(1, 10)))
    assert m.tolist() == [
        [1, 2, 3, 4],
        [2, 5, 6, 7],
        [3, 6, 8, 9],
        [4, 7, 9, 0],
    ]


def test_message_matrix_symmetric_random():
    rng = random.Random(0)
    params = MbrParams(prime_field(11), 8, 3, 6)
    for _ in range(50):
        a = mbr_build_message(params, rand_message(params, rng)).a
        assert (a == a.T).all()


def test_encoding_matrix_reference_values():
    assert mbr_build_encoding(REF7).tolist() == REF7_PSI


def test_encoding_matrix_vandermonde_backend():
    params = MbrParams(F7, 6, 3, 4, backend="vandermonde")
    psi = mbr_build_encoding(params)
    pts = list(range(1, 7))
    assert psi.tolist() == [[pow(x, j, 7) for j in range(4)] for x in pts]


def test_encode_systematic_rows():
    rng = random.Random(1)
    u = rand_message(REF7, rng)
    frags = mbr_encode(REF7, u)
    m = mbr_build_message(REF7, u)
    for i in range(3):
        assert list(frags[i].symbols) == m.row(i)
    # concatenating rows 1..k re-exposes the message
    block = FieldMatrix(F7, [list(frags[i].symbols) for i in range(3)])
    assert message_from_block(REF7, block) == u


def test_encode_zero():
    assert all(set(f.symbols) == {0} for f in mbr_encode(REF7, [0] * 9))


def test_encode_dual_path_equivalence():
    rng = random.Random(2)
    for params in (REF7, MbrParams(prime_field(11), 9, 4, 6), MbrParams(binary_field(4), 12, 3, 7)):
        for _ in range(10):
            u = rand_message(params, rng)
            assert mbr_encode(params, u) == mbr_encode_columns(params, u)


def test_encode_ntt_mode_matches_native():
    ff = fermat_field()
    rng = random.Random(3)
    params = MbrParams(ff, 16, 6, 8, ntt=True)
    for _ in range(5):
        u = rand_message(params, rng)
        assert mbr_encode(params, u) == mbr_encode_columns(params, u)


def test_helper_response_examples():
    zero = Fragment("mbr-psrs", 1, (0, 0, 0, 0))
    assert mbr_helper_response(zero, [1, 2, 3, 4], F7) == 0
    frag = Fragment("mbr-psrs", 1, (5, 6, 1, 2))
    assert mbr_helper_response(frag, [1, 0, 0, 0], F7) == 5
    c = OpCounter()
    mbr_helper_response(frag, [1, 2, 3, 4], F7, counter=c)
    assert c.mul == 4


def test_helper_response_matches_matrix_product():
    rng = random.Random(4)
    u = rand_message(REF7, rng)
    frags = mbr_encode(REF7, u)
    psi = mbr_build_encoding(REF7)
    m = mbr_build_message(REF7, u)
    c = mat_mul(psi, m)
    for failed in range(1, 7):
        col = mat_mul(c, FieldMatrix(F7, [[v] for v in psi_row(REF7, failed)]))
        for helper in range(1, 7):
            if helper == failed:
                continue
            got = mbr_helper_response(frags[helper - 1], psi_row(REF7, failed), F7)
            assert got == col[helper - 1, 0]


def test_repair_exhaustive():
    rng = random.Random(5)
    for _ in range(5):
        u = rand_message(REF7, rng)
        frags = mbr_encode(REF7, u)
        for failed in range(1, 7):
            helpers = [i for i in range(1, 7) if i != failed]
            for subset in itertools.combinations(helpers, 4):
                got = repair_from_fragments(REF7, [frags[i - 1] for i in subset], failed)
                assert got == frags[failed - 1]


def test_repair_zero_codeword():
    frags = mbr_encode(REF7, [0] * 9)
    got = repair_from_fragments(REF7, [frags[i - 1] for i in (2, 3, 4, 5)], 1)
    assert got == frags[0]


def test_repair_validation():
    frags = mbr_encode(REF7, [1] * 9)
    row = psi_row(REF7, 1)
    resp = [(f.node, mbr_helper_response(f, row, F7)) for f in frags[1:4]]
    with pytest.raises(WrongHelperCount):
        mbr_repair(REF7, resp, 1)
    with pytest.raises(DuplicateHelper):
        mbr_repair(REF7, resp + [resp[0]], 1)


def test_repaired_systematic_fragment_exposes_message():
    rng = random.Random(6)
    u = rand_message(REF7, rng)
    frags = mbr_encode(REF7, u)
    got = repair_from_fragments(REF7, [frags[i - 1] for i in (2, 3, 4, 5)], 1)
    assert list(got.symbols) == list(frags[0].symbols) == u[:4]


def test_reconstruct_full_exhaustive_both_backends():
    rng = random.Random(7)
    for backend in ("psrs", "vandermonde"):
        params = MbrParams(F7, 6, 3, 4, backend=backend)
        for _ in range(10):
            u = rand_message(params, rng)
            frags = mbr_encode(params, u)
            for subset in itertools.combinations(range(1, 7), 3):
                assert mbr_reconstruct_full(params, [frags[i - 1] for i in subset]) == u


def test_reconstruct_zero_and_count_checks():
    frags = mbr_encode(REF7, [0] * 9)
    assert mbr_reconstruct_full(REF7, [frags[0], frags[2], frags[4]]) == [0] * 9
    with pytest.raises(WrongFragmentCount):
        mbr_reconstruct_full(REF7, frags[:4])


def test_systematic_fast_path_agrees_with_solver():
    rng = random.Random(8)
    u = rand_message(REF7, rng)
    frags = mbr_encode(REF7, u)
    fast = mbr_reconstruct_full(REF7, frags[:3])
    solver = mbr_reconstruct_full(REF7, frags[:3], order=(1, 2, 3))
    # force the generic solver by bypassing the fast path with shuffled nodes
    other = mbr_reconstruct_full(REF7, [frags[1], frags[3], frags[5]])
    assert fast == u and other == u
    assert solver == u


def test_assign_slots_greedy():
    assert assign_slots(REF7, [1, 2, 4]) == (1, 2, 3)
    assert assign_slots(REF7, [4, 2, 6]) == (1, 2, 3)
    assert assign_slots(REF7, [3, 5, 1]) == (3, 2, 1)
    vdm = MbrParams(F7, 6, 3, 4, backend="vandermonde")
    assert assign_slots(vdm, [4, 2, 6]) == (1, 2, 3)
    vdm_q = MbrParams(F7, 7, 3, 4, backend="vandermonde")  # node 7 sits at the point 0
    assert assign_slots(vdm_q, [4, 2, 7]) == (2, 3, 1)
    assert assign_slots(vdm_q, [4, 2, 6]) == (1, 2, 3)


def test_partial_plan_reference_shape():
    plan = mbr_partial_plan(REF7, [1, 2, 4], "lower")
    assert plan.order == (1, 2, 3)
    assert plan.positions == ((1, 4), (1, 2, 4), (1, 2, 3, 4))
    assert plan.total_symbols == REF7.B == 9


def test_partial_plan_total_is_B_sweep():
    f = prime_field(13)
    for n in range(2, 11):
        for d in range(1, n):
            for k in range(1, d + 1):
                params = MbrParams(f if n <= 13 else fermat_field(), n, k, d)
                for scheme in ("lower", "upper"):
                    plan = mbr_partial_plan(params, list(range(1, k + 1)), scheme)
                    assert plan.total_symbols == params.B
                vdm = MbrParams(f if n <= 13 else fermat_field(), n, k, d, backend="vandermonde")
                plan = mbr_partial_plan(vdm, list(range(1, k + 1)), "gong")
                assert plan.total_symbols == vdm.B


def test_partial_plan_k1():
    params = MbrParams(F7, 6, 1, 4)
    plan = mbr_partial_plan(params, [3], "lower")
    assert plan.total_symbols == params.B == params.d


def test_gong_requires_vandermonde():
    with pytest.raises(SchemeBackendMismatch):
        mbr_partial_plan(REF7, [1, 2, 4], "gong")


def test_partial_reconstruct_matches_full():
    rng = random.Random(9)
    for _ in range(10):
        u = rand_message(REF7, rng)
        frags = mbr_encode(REF7, u)
        for subset in itertools.combinations(range(1, 7), 3):
            for scheme in ("lower", "upper"):
                plan = mbr_partial_plan(REF7, list(subset), scheme)
                payloads = mbr_extract_payloads(frags, plan)
                assert mbr_reconstruct_partial(REF7, plan, payloads) == u


def test_partial_reconstruct_gong():
    rng = random.Random(10)
    params = MbrParams(F7, 6, 3, 4, backend="vandermonde")
    for _ in range(10):
        u = rand_message(params, rng)
        frags = mbr_encode(params, u)
        for subset in itertools.combinations(range(1, 7), 3):
            plan = mbr_partial_plan(params, list(subset), "gong")
            payloads = mbr_extract_payloads(frags, plan)
            assert mbr_reconstruct_partial(params, plan, payloads) == u


def test_partial_reconstruct_zero():
    frags = mbr_encode(REF7, [0] * 9)
    plan = mbr_partial_plan(REF7, [2, 4, 6], "upper")
    assert mbr_reconstruct_partial(REF7, plan, mbr_extract_payloads(frags, plan)) == [0] * 9


def test_collector_stage_systems():
    from regencodes.mbr import StageRecord

    rng = random.Random(11)
    u = rand_message(REF7, rng)
    frags = mbr_encode(REF7, u)
    plan = mbr_partial_plan(REF7, [1, 2, 4], "lower")
    trace: list[StageRecord] = []
    got = mbr_reconstruct_partial(REF7, plan, mbr_extract_payloads(frags, plan), trace=trace)
    assert got == u
    stage_matrix = [[1, 0, 0], [0, 1, 0], [1, 4, 3]]
    assert [r.matrix.tolist() for r in trace] == [stage_matrix] * 3
    # stage 1 solves u1,u2,u3; stage 2 solves u5,u6; stage 3 solves u8
    assert trace[0].solved == ((1, 1), (1, 2), (1, 3))
    assert trace[1].solved == ((2, 2), (2, 3))
    assert trace[2].solved == ((3, 3),)
    # identity rows of later stages carry previously solved S entries
    assert trace[1].rhs[0] == u[1]  # u2 = S[1,2]
    assert trace[2].rhs[0] == u[2]  # u3 = S[1,3]
    assert trace[2].rhs[1] == u[5]  # u6 = S[2,3]


def test_timeshare_schedule():
    plans = mbr_timeshare_schedule(REF7, [1, 2, 4], 4)
    assert [p.scheme for p in plans] == ["lower", "upper", "lower", "upper"]
    assert all(p.total_symbols == REF7.B for p in plans)
    # one round equals the lower plan
    single = mbr_timeshare_schedule(REF7, [1, 2, 4], 1)
    lower = mbr_partial_plan(REF7, [1, 2, 4], "lower")
    assert single[0].positions == lower.positions
    # two consecutive rounds: each node sends 2d-(k-1) symbols
    for a, b in zip(plans, plans[1:]):
        ca, cb = a.per_node_counts(), b.per_node_counts()
        for node in ca:
            assert ca[node] + cb[node] == 2 * REF7.d - (REF7.k - 1)


def test_timeshare_reconstruct_each_round():
    rng = random.Random(12)
    u = rand_message(REF7, rng)
    frags = mbr_encode(REF7, u)
    for plan in mbr_timeshare_schedule(REF7, [2, 3, 5], 3):
        assert mbr_reconstruct_partial(REF7, plan, mbr_extract_payloads(frags, plan)) == u


def test_exhaustive_small_n_repair_and_reconstruct():
    rng = random.Random(13)
    f11 = prime_field(11)
    for n in range(2, 8):
        for d in range(1, n):
            for k in range(1, d + 1):
                params = MbrParams(f11, n, k, d)
                u = rand_message(params, rng)
                frags = mbr_encode(params, u)
                for subset in itertools.combinations(range(1, n + 1), k):
                    assert mbr_reconstruct_full(params, [frags[i - 1] for i in subset]) == u
                for failed in range(1, n + 1):
                    helpers = [i for i in range(1, n + 1) if i != failed]
                    subset = helpers[:d]
                    got = repair_from_fragments(params, [frags[i - 1] for i in subset], failed)
                    assert got == frags[failed - 1]


def test_reconstruct_full_explicit_order():
    # any slot permutation must give the same message
    rng = random.Random(14)
    u = rand_message(REF7, rng)
    frags = mbr_encode(REF7, u)
    chosen = [frags[1], frags[3], frags[5]]
    for order in itertools.permutations((1, 2, 3)):
        assert mbr_reconstruct_full(REF7, chosen, order=order) == u


def test_vandermonde_backend_lower_upper_partial():
    # no systematic rows, so the ordering constraints are vacuous; the
    # stage solver either succeeds or raises SingularStageMatrix cleanly
    from regencodes.errors import SingularStageMatrix

    rng = random.Random(15)
    params = MbrParams(prime_field(11), 8, 3, 5, backend="vandermonde")
    frags = mbr_encode(params, rand_message(params, rng))
    ok, singular = 0, 0
    for subset in itertools.combinations(range(1, 9), 3):
        for scheme in ("lower", "upper"):
            plan = mbr_partial_plan(params, list(subset), scheme)
            assert plan.total_symbols == params.B
            try:
                mbr_reconstruct_partial(params, plan, mbr_extract_payloads(frags, plan))
                ok += 1
            except SingularStageMatrix:
                singular += 1
    assert ok > 0  # the scheme is usable on this backend in practice


def test_ntt_mode_non_power_of_two_n():
    ff = fermat_field()
    rng = random.Random(16)
    params = MbrParams(ff, 24, 9, 12, ntt=True)
    u = rand_message(params, rng)
    frags_a = mbr_encode(params, u)
    frags_b = mbr_encode_columns(params, u)
    assert frags_a == frags_b
    subset = [frags_a[i - 1] for i in (2, 9, 17, 20, 23, 24, 1, 5, 13)]
    assert mbr_reconstruct_full(params, subset) == u


def test_plan_payload_mismatch():
    from regencodes.errors import PlanPayloadMismatch

    plan = mbr_partial_plan(REF7, [1, 2, 4], "lower")
    frags = mbr_encode(REF7, [0] * 9)
    payloads = mbr_extract_payloads(frags, plan)
    with pytest.raises(PlanPayloadMismatch):
        mbr_reconstruct_partial(REF7, plan, payloads[:-1])
    payloads[0] = payloads[0] + [0]
    with pytest.raises(PlanPayloadMismatch):
        mbr_reconstruct_partial(REF7, plan, payloads)


# ---------------------------------------------------------------------------
# pinned partial-read behaviour: op counts, stage systems, random cases
# ---------------------------------------------------------------------------

REF7_VDM = MbrParams(F7, 6, 3, 4, backend="vandermonde")


@pytest.mark.parametrize(
    "params,nodes,scheme,mul,add",
    [
        (REF7, [1, 2, 4], "lower", 165, 102),
        (REF7, [1, 2, 4], "upper", 165, 102),
        (REF7_VDM, [2, 4, 6], "lower", 165, 102),
        (REF7_VDM, [2, 4, 6], "upper", 165, 102),
        (REF7_VDM, [2, 4, 6], "gong", 108, 64),
    ],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_partial_op_counts(params, nodes, scheme, mul, add):
    u = rand_message(params, random.Random(17))
    frags = mbr_encode(params, u)
    plan = mbr_partial_plan(params, nodes, scheme)
    counter = OpCounter()
    assert mbr_reconstruct_partial(params, plan, mbr_extract_payloads(frags, plan), counter) == u
    assert (counter.mul, counter.add) == (mul, add)


@pytest.mark.parametrize(
    "scheme,matrices",
    [
        ("upper", [[[1, 2, 4], [1, 4, 2], [1, 6, 1]],
                   [[1, 2, 4], [1, 4, 2], [0, 0, 1]],
                   [[1, 2, 4], [0, 1, 0], [0, 0, 1]]]),
        ("gong", [[[1, 2, 4], [1, 4, 2], [1, 6, 1]],
                  [[1, 2], [1, 4]],
                  [[1]]]),
    ],
)
def test_backward_stage_systems(scheme, matrices):
    from regencodes.mbr import StageRecord

    u = rand_message(REF7_VDM, random.Random(18))
    frags = mbr_encode(REF7_VDM, u)
    plan = mbr_partial_plan(REF7_VDM, [2, 4, 6], scheme)
    trace: list[StageRecord] = []
    assert mbr_reconstruct_partial(REF7_VDM, plan, mbr_extract_payloads(frags, plan),
                                   trace=trace) == u
    assert [r.matrix.tolist() for r in trace] == matrices
    assert [r.stage for r in trace] == [1, 2, 3]
    assert [r.s_column for r in trace] == [3, 2, 1]
    assert [r.solved for r in trace] == [
        ((1, 3), (2, 3), (3, 3)),
        ((1, 2), (2, 2)),
        ((1, 1),),
    ]
    assert all(len(r.rhs) == r.matrix.rows for r in trace)
    if scheme == "upper":
        # identity rows carry S entries solved in earlier stages
        assert trace[1].rhs[2] == u[5]  # u6 = S[2,3]
        assert trace[2].rhs[1:] == (u[1], u[2])  # u2 = S[1,2], u3 = S[1,3]


@st.composite
def _partial_case(draw):
    field = draw(st.sampled_from([prime_field(7), prime_field(11), binary_field(3),
                                  binary_field(4), fermat_field()]))
    n = draw(st.integers(2, min(8, field.q)))
    d = draw(st.integers(1, n - 1))
    k = draw(st.integers(1, d))
    backend = draw(st.sampled_from(["psrs", "vandermonde"]))
    nodes = draw(st.permutations(range(1, n + 1)))[:k]
    seed = draw(st.integers(0, 2**16))
    return MbrParams(field, n, k, d, backend=backend), list(nodes), seed


@given(_partial_case())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_partial_schemes_recover_or_refuse(case):
    from regencodes.errors import OrderingInfeasible

    params, nodes, seed = case
    u = rand_message(params, random.Random(seed))
    frags = mbr_encode(params, u)
    for scheme in ("lower", "upper", "gong"):
        try:
            plan = mbr_partial_plan(params, nodes, scheme)
        except (OrderingInfeasible, SchemeBackendMismatch):
            continue
        payloads = mbr_extract_payloads(frags, plan)
        assert mbr_reconstruct_partial(params, plan, payloads) == u


def test_vandermonde_zero_point_takes_slot_one():
    # n = q: node 7 evaluates at 0, so its row of Phi is e_1; every node
    # set, in every order, reads back under each partial scheme
    params = MbrParams(F7, 7, 3, 4, backend="vandermonde")
    u = rand_message(params, random.Random(19))
    frags = mbr_encode(params, u)
    for nodes in itertools.permutations(range(1, 8), 3):
        for scheme in ("lower", "upper", "gong"):
            plan = mbr_partial_plan(params, nodes, scheme)
            if 7 in nodes:
                assert plan.order[nodes.index(7)] == 1
            assert mbr_reconstruct_partial(params, plan, mbr_extract_payloads(frags, plan)) == u


def test_plan_missing_stage_entry():
    # a hand-built plan that leaves out an entry a stage needs is refused,
    # not solved with a zero in its place
    import dataclasses

    from regencodes.errors import PlanPayloadMismatch

    plan = mbr_partial_plan(REF7, [1, 2, 4], "lower")
    positions = list(plan.positions)
    positions[1] = positions[1][1:]  # node 2 keeps back C^Phi[2, 1]
    plan = dataclasses.replace(plan, positions=tuple(positions))
    frags = mbr_encode(REF7, [i % 7 for i in range(9)])
    with pytest.raises(PlanPayloadMismatch):
        mbr_reconstruct_partial(REF7, plan, mbr_extract_payloads(frags, plan))
