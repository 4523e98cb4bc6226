import dataclasses
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regencodes import codec, mbr, psrs
from regencodes.counting import OpCounter
from regencodes.errors import (
    DuplicateHelper,
    DuplicateIndex,
    FieldTooSmall,
    IndexOutOfRange,
    InsufficientSymbols,
    ParamsInvalid,
    PlanPayloadMismatch,
    SchemeBackendMismatch,
    SingularMatrix,
    SingularStageMatrix,
    WrongFragmentCount,
    WrongHelperCount,
)
from regencodes.fragments import Fragment
from regencodes.gf import binary_field, enumerate_points, fermat_field, prime_field
from regencodes.matrix import FieldMatrix, is_singular, mat_inv, mat_mul, mat_solve
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
    message_from_block,
    psi_row,
    timeshare_scheme,
)
from regencodes.plans import DownloadPlan
from regencodes.psrs import PsrsParams, eval_params, generator_matrix

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
    with pytest.raises(ParamsInvalid, match="unknown backend 'x'"):
        MbrParams(F7, 6, 3, 4, backend="x")


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
        a = mbr_build_message(params, rand_message(params, rng))
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
        assert list(frags[i].symbols) == m[i].tolist()
    # concatenating rows 1..k re-exposes the message
    block = np.array([list(frags[i].symbols) for i in range(3)])
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


def test_encode_columns_requires_psrs():
    # the column-wise encoder runs the PSRS encoder, which the vandermonde
    # backend does not have
    params = MbrParams(F7, 7, 3, 4, backend="vandermonde")
    u = rand_message(params, random.Random(4))
    with pytest.raises(SchemeBackendMismatch, match="requires the psrs backend"):
        mbr_encode_columns(params, u)


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
    c = mat_mul(F7, psi, m)
    for failed in range(1, 7):
        col = mat_mul(F7, c, np.array([[v] for v in psi_row(REF7, failed)]))
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
                got, _ = codec.repair(REF7, {i: frags[i - 1] for i in subset}, failed, subset)
                assert got == frags[failed - 1]


def test_repair_zero_codeword():
    frags = mbr_encode(REF7, [0] * 9)
    got, _ = codec.repair(REF7, {i: frags[i - 1] for i in (2, 3, 4, 5)}, 1, (2, 3, 4, 5))
    assert got == frags[0]


def test_repair_validation():
    frags = mbr_encode(REF7, [1] * 9)
    row = psi_row(REF7, 1)
    resp = [(f.node, mbr_helper_response(f, row, F7)) for f in frags[1:4]]
    with pytest.raises(WrongHelperCount):
        mbr_repair(REF7, resp, 1)
    with pytest.raises(DuplicateHelper):
        mbr_repair(REF7, resp + [resp[0]], 1)
    with pytest.raises(IndexOutOfRange, match=r"node 0 outside \[1, 6\]"):
        psi_row(REF7, 0)
    with pytest.raises(WrongFragmentCount, match="length 4 vs encoding row length 3"):
        mbr_helper_response(frags[1], row[:3], F7)


def test_repaired_systematic_fragment_exposes_message():
    rng = random.Random(6)
    u = rand_message(REF7, rng)
    frags = mbr_encode(REF7, u)
    got, _ = codec.repair(REF7, {i: frags[i - 1] for i in (2, 3, 4, 5)}, 1, (2, 3, 4, 5))
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
    # force the generic solver by bypassing the fast path with shuffled nodes
    other = mbr_reconstruct_full(REF7, [frags[1], frags[3], frags[5]])
    assert fast == u and other == u


def test_assign_slots_greedy():
    # the nodes in slot order: systematic node i takes slot i, the rest
    # fill the free slots in list order
    assert assign_slots(REF7, [1, 2, 4]) == (1, 2, 4)
    assert assign_slots(REF7, [4, 2, 6]) == (4, 2, 6)
    assert assign_slots(REF7, [3, 5, 1]) == (1, 5, 3)
    vdm = MbrParams(F7, 6, 3, 4, backend="vandermonde")
    assert assign_slots(vdm, [4, 2, 6]) == (4, 2, 6)
    vdm_q = MbrParams(F7, 7, 3, 4, backend="vandermonde")  # node 7 sits at the point 0
    assert assign_slots(vdm_q, [4, 2, 7]) == (7, 4, 2)
    assert assign_slots(vdm_q, [4, 2, 6]) == (4, 2, 6)


@pytest.mark.parametrize("params, claimed", [
    (REF7, {1: 1, 2: 2, 3: 3}),  # systematic node i claims slot i
    (MbrParams(F7, 6, 3, 4, backend="vandermonde"), {}),
    (MbrParams(F7, 7, 3, 4, backend="vandermonde"), {7: 1}),  # node 7 sits at the point 0
], ids=["psrs", "vdm", "vdm-zero-point"])
def test_assign_slots_places_claimed_nodes(params, claimed):
    # every node list comes back as the same nodes, each claimed node in
    # its slot and the rest in list order
    for nodes in itertools.permutations(range(1, params.n + 1), params.k):
        slots = assign_slots(params, nodes)
        assert sorted(slots) == sorted(nodes)
        assert all(slots[claimed[i] - 1] == i for i in nodes if i in claimed)
        assert [i for i in slots if i not in claimed] == [i for i in nodes if i not in claimed]


def test_partial_plan_lists_nodes_in_slot_order():
    # node j of a plan fills row j of Phi_DC, whatever order they came in
    assert mbr_partial_plan(REF7, [3, 5, 1], "lower").nodes == (1, 5, 3)
    vdm_q = MbrParams(F7, 7, 3, 4, backend="vandermonde")
    assert mbr_partial_plan(vdm_q, [4, 2, 7], "upper").nodes == (7, 4, 2)


def test_partial_plan_reference_shape():
    plan = mbr_partial_plan(REF7, [1, 2, 4], "lower")
    assert plan.nodes == (1, 2, 4)
    assert plan.positions == ((1, 4), (1, 2, 4), (1, 2, 3, 4))
    assert plan.total_symbols == REF7.B == 9


@pytest.mark.parametrize("scheme", ["full", "timeshare", "bogus"])
def test_a_plan_names_a_partial_scheme(scheme):
    # a full read and a time-sharing round build no plan of their own
    with pytest.raises(ValueError, match="unknown scheme"):
        DownloadPlan(scheme, (1, 2, 4), ((1, 4), (1, 2, 4), (1, 2, 3, 4)))
    with pytest.raises(ParamsInvalid, match="unknown partial scheme"):
        mbr_partial_plan(REF7, [1, 2, 4], scheme)


def test_a_plan_lists_positions_per_node_and_an_mbr_read_an_mbr_scheme():
    with pytest.raises(ValueError, match="equal lengths"):
        DownloadPlan("lower", (1, 2), ((1,),))
    pairwise = DownloadPlan("rbt-pairwise", (1, 2, 4), ((1, 4), (1, 2, 4), (1, 2, 3, 4)))
    frags = mbr_encode(REF7, [0] * 9)
    with pytest.raises(ParamsInvalid, match="'rbt-pairwise' is not a partial scheme"):
        mbr_reconstruct_partial(REF7, pairwise, mbr_extract_payloads(frags, pairwise))


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
                plan = mbr_partial_plan(vdm, list(range(1, k + 1)), "upper")
                assert plan.total_symbols == vdm.B


def test_partial_plan_k1():
    params = MbrParams(F7, 6, 1, 4)
    plan = mbr_partial_plan(params, [3], "lower")
    assert plan.total_symbols == params.B == params.d


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


def test_partial_reconstruct_vandermonde_upper():
    rng = random.Random(10)
    params = MbrParams(F7, 6, 3, 4, backend="vandermonde")
    for _ in range(10):
        u = rand_message(params, rng)
        frags = mbr_encode(params, u)
        for subset in itertools.combinations(range(1, 7), 3):
            plan = mbr_partial_plan(params, list(subset), "upper")
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
    plans = [mbr_partial_plan(REF7, [1, 2, 4], timeshare_scheme(r)) for r in range(4)]
    assert [p.scheme for p in plans] == ["lower", "upper", "lower", "upper"]
    assert all(p.total_symbols == REF7.B for p in plans)
    # the first round is the lower plan
    lower = mbr_partial_plan(REF7, [1, 2, 4], "lower")
    assert plans[0].positions == lower.positions
    # two consecutive rounds: each node sends 2d-(k-1) symbols
    for a, b in zip(plans, plans[1:]):
        ca, cb = a.per_node_counts(), b.per_node_counts()
        for node in ca:
            assert ca[node] + cb[node] == 2 * REF7.d - (REF7.k - 1)


def test_timeshare_reconstruct_each_round():
    rng = random.Random(12)
    u = rand_message(REF7, rng)
    frags = mbr_encode(REF7, u)
    for r in range(3):
        plan = mbr_partial_plan(REF7, [2, 3, 5], timeshare_scheme(r))
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
                    got, _ = codec.repair(params, {i: frags[i - 1] for i in subset}, failed,
                                          subset)
                    assert got == frags[failed - 1]


def test_reconstruct_full_explicit_order():
    # any list order of the fragments must give the same message and cost:
    # the solver path, the systematic fast path, and a mix of claimed slots
    rng = random.Random(14)
    u = rand_message(REF7, rng)
    frags = mbr_encode(REF7, u)
    for nodes in ((2, 4, 6), (1, 2, 3), (1, 3, 5)):
        counts = set()
        for perm in itertools.permutations(nodes):
            c = OpCounter()
            assert mbr_reconstruct_full(REF7, [frags[i - 1] for i in perm], c) == u
            counts.add((c.mul, c.add))
        assert len(counts) == 1


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


@pytest.mark.parametrize("position", [0, 5])
def test_plan_position_outside_fragment(position):
    # a hand-built plan position outside [1, d] is refused: position 0 read
    # the last symbol of a fragment and returned a wrong message
    plan = mbr_partial_plan(REF7, [1, 2, 4], "lower")
    frags = mbr_encode(REF7, [i % 7 for i in range(9)])
    payloads = mbr_extract_payloads(frags, plan)
    positions = list(plan.positions)
    positions[2] = (1, 2, position, 4)  # node 4 at slot 3
    plan = dataclasses.replace(plan, positions=tuple(positions))
    with pytest.raises(IndexOutOfRange):
        mbr_reconstruct_partial(REF7, plan, payloads)


@pytest.mark.parametrize("nodes, error", [((1, 2, 0), IndexOutOfRange),
                                          ((1, 2, 9), IndexOutOfRange),
                                          ((1, 2, 2), DuplicateIndex)])
def test_plan_nodes_checked(nodes, error):
    # node 0 read node n's encoding row and returned a wrong message
    plan = mbr_partial_plan(REF7, [1, 2, 4], "lower")
    payloads = mbr_extract_payloads(mbr_encode(REF7, [i % 7 for i in range(9)]), plan)
    with pytest.raises(error):
        mbr_reconstruct_partial(REF7, dataclasses.replace(plan, nodes=nodes), payloads)


def test_node_checks_shared_with_full_read():
    frags = mbr_encode(REF7, [0] * 9)
    with pytest.raises(InsufficientSymbols, match="got 2 fragments, need 3"):
        mbr_partial_plan(REF7, [1, 2], "lower")
    with pytest.raises(InsufficientSymbols, match="got 2 fragments, need 3"):
        mbr_reconstruct_full(REF7, frags[:2])
    for nodes, error in (([1, 2, 3, 4], WrongFragmentCount), ([1, 1, 2], DuplicateIndex),
                         ([1, 2, 7], IndexOutOfRange)):
        with pytest.raises(error):
            mbr_partial_plan(REF7, nodes, "upper")


# ---------------------------------------------------------------------------
# pinned partial-read behaviour: op counts, stage systems, random cases
# ---------------------------------------------------------------------------

REF7_VDM = MbrParams(F7, 6, 3, 4, backend="vandermonde")


@pytest.mark.parametrize(
    "params,nodes,scheme,gj_mul,gj_add",  # counts of one Gauss-Jordan solve per stage and for T
    [
        (REF7, [1, 2, 4], "lower", 165, 102),
        (REF7, [1, 2, 4], "upper", 165, 102),
        (REF7_VDM, [2, 4, 6], "lower", 165, 102),
        (REF7_VDM, [2, 4, 6], "upper", 165, 102),
    ],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_partial_op_counts(params, nodes, scheme, gj_mul, gj_add):
    u = rand_message(params, random.Random(17))
    frags = mbr_encode(params, u)
    plan = mbr_partial_plan(params, nodes, scheme)
    counter = OpCounter()
    assert mbr_reconstruct_partial(params, plan, mbr_extract_payloads(frags, plan), counter) == u
    # one factorization of Phi_DC, then triangular products, on every scheme
    assert (counter.mul, counter.add) == (55, 37)
    assert counter.mul < gj_mul and counter.add < gj_add


def test_backward_stage_systems():
    from regencodes.mbr import StageRecord

    u = rand_message(REF7_VDM, random.Random(18))
    frags = mbr_encode(REF7_VDM, u)
    plan = mbr_partial_plan(REF7_VDM, [2, 4, 6], "upper")
    trace: list[StageRecord] = []
    assert mbr_reconstruct_partial(REF7_VDM, plan, mbr_extract_payloads(frags, plan),
                                   trace=trace) == u
    assert [r.matrix.tolist() for r in trace] == [
        [[1, 2, 4], [1, 4, 2], [1, 6, 1]],
        [[1, 2, 4], [1, 4, 2], [0, 0, 1]],
        [[1, 2, 4], [0, 1, 0], [0, 0, 1]],
    ]
    assert [r.stage for r in trace] == [1, 2, 3]
    assert [r.s_column for r in trace] == [3, 2, 1]
    assert [r.solved for r in trace] == [
        ((1, 3), (2, 3), (3, 3)),
        ((1, 2), (2, 2)),
        ((1, 1),),
    ]
    assert all(len(r.rhs) == len(r.matrix) for r in trace)
    assert all(r.matrix.dtype == np.int64 and not r.matrix.flags.writeable for r in trace)
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
@settings(max_examples=200)
def test_partial_schemes_recover(case):
    params, nodes, seed = case
    u = rand_message(params, random.Random(seed))
    frags = mbr_encode(params, u)
    for scheme in ("lower", "upper"):
        plan = mbr_partial_plan(params, nodes, scheme)
        payloads = mbr_extract_payloads(frags, plan)
        assert mbr_reconstruct_partial(params, plan, payloads) == u


def test_vandermonde_zero_point_takes_slot_one():
    # n = q: node 7 evaluates at 0, so its row of Phi is e_1; every node
    # set, in every order, reads back under each partial scheme
    params = MbrParams(F7, 7, 3, 4, backend="vandermonde")
    u = rand_message(params, random.Random(19))
    frags = mbr_encode(params, u)
    for nodes in itertools.permutations(range(1, 8), 3):
        for scheme in ("lower", "upper"):
            plan = mbr_partial_plan(params, nodes, scheme)
            if 7 in nodes:
                assert plan.nodes[0] == 7
            assert mbr_reconstruct_partial(params, plan, mbr_extract_payloads(frags, plan)) == u


@pytest.mark.parametrize("scheme, column, part", [
    ("lower", 1, "Phi"),  # node 2 keeps back C^Phi[2, 1]
    ("lower", 4, "Delta"),  # node 2 keeps back its C^Delta entry; once decoded as a zero
    ("upper", 4, "Delta"),
])
def test_plan_missing_stage_entry(scheme, column, part):
    # a hand-built plan that leaves out an entry a stage needs is refused,
    # not solved with a zero in its place
    import dataclasses

    from regencodes.errors import PlanPayloadMismatch

    plan = mbr_partial_plan(REF7, [1, 2, 4], scheme)
    positions = list(plan.positions)
    positions[1] = tuple(p for p in positions[1] if p != column)  # node 2 is slot 2
    plan = dataclasses.replace(plan, positions=tuple(positions))
    frags = mbr_encode(REF7, [i % 7 for i in range(9)])
    with pytest.raises(PlanPayloadMismatch, match=rf"C\^{part} entries of column {column}"):
        mbr_reconstruct_partial(REF7, plan, mbr_extract_payloads(frags, plan))


@pytest.mark.parametrize("position", [0, 5])
def test_extract_payloads_position_outside_fragment(position):
    # position 0 read the last symbol of the fragment, 5 raised a bare IndexError
    plan = mbr_partial_plan(REF7, [1, 2, 4], "lower")
    positions = list(plan.positions)
    positions[2] = (1, 2, position, 4)  # node 4 at slot 3
    plan = dataclasses.replace(plan, positions=tuple(positions))
    frags = mbr_encode(REF7, [i % 7 for i in range(9)])
    with pytest.raises(IndexOutOfRange):
        mbr_extract_payloads(frags, plan)


def test_plan_malformed_slot_order():
    # the positions of the reversed slot order, with their payloads, leave
    # out entries the lower stages need
    plan = mbr_partial_plan(REF7, [1, 2, 4], "lower")
    payloads = mbr_extract_payloads(mbr_encode(REF7, [i % 7 for i in range(9)]), plan)
    plan = dataclasses.replace(plan, positions=plan.positions[::-1])
    with pytest.raises(PlanPayloadMismatch):
        mbr_reconstruct_partial(REF7, plan, payloads[::-1])


# ---------------------------------------------------------------------------
# stage singularity, repair and full-read costs, repair property
# ---------------------------------------------------------------------------

def _hand_plan(params, nodes, scheme):
    """The plan of `scheme` with `nodes` in this slot order."""
    k, d = params.k, params.d
    positions = []
    for g in range(1, k + 1):
        phi_cols = range(1, g + 1) if scheme == "lower" else range(g, k + 1)
        positions.append(tuple(phi_cols) + tuple(range(k + 1, d + 1)))
    return DownloadPlan(scheme=scheme, nodes=tuple(nodes), positions=tuple(positions))


def _some_stage_singular(params, nodes, scheme):
    """Whether a stage system is singular: a `lower` stage solves a trailing
    block of Phi_DC, an `upper` stage a leading block."""
    k = params.k
    phi = mbr_build_encoding(params)[[i - 1 for i in nodes], :k]
    for c in range(k):
        block = phi[c:, c:] if scheme == "lower" else phi[:c + 1, :c + 1]
        try:
            mat_inv(FieldMatrix(params.field, block))
        except SingularMatrix:
            return True
    return False


@pytest.mark.parametrize(
    "params,singular",
    [
        (MbrParams(F7, 7, 3, 4), 170),
        (MbrParams(prime_field(5), 5, 2, 3), 8),
        (MbrParams(F7, 7, 3, 4, backend="vandermonde"), 60),
        (MbrParams(prime_field(5), 5, 2, 3, backend="vandermonde"), 4),
    ],
    ids=["psrs-gf7", "psrs-gf5", "vdm-gf7", "vdm-gf5"],
)
def test_singular_stage_matrix_exhaustive(params, singular):
    # every node tuple, which is every slot assignment once: a read raises
    # SingularStageMatrix exactly when one of its stage blocks is singular,
    # and returns the message otherwise
    n, k = params.n, params.k
    u = rand_message(params, random.Random(21))
    frags = mbr_encode(params, u)
    raised = 0
    for nodes in itertools.permutations(range(1, n + 1), k):
        for scheme in ("lower", "upper"):
            plan = _hand_plan(params, nodes, scheme)
            payloads = mbr_extract_payloads(frags, plan)
            if _some_stage_singular(params, nodes, scheme):
                with pytest.raises(SingularStageMatrix):
                    mbr_reconstruct_partial(params, plan, payloads)
                raised += 1
            else:
                assert mbr_reconstruct_partial(params, plan, payloads) == u
    assert raised == singular


def test_stage_factors_solve_phi_dc_or_raise():
    # the stage LU does not pivot: the factors of a partial read raise
    # SingularStageMatrix exactly when some leading (upper) or trailing
    # (lower) block of Phi_DC is singular, and otherwise solve Phi_DC itself
    params = MbrParams(F7, 7, 3, 4, backend="vandermonde")
    rng = np.random.default_rng(23)
    raised = solved = 0
    for nodes in itertools.permutations(range(1, 8), 3):
        phi = mbr_build_encoding(params)[[i - 1 for i in nodes], :3]
        b = rng.integers(0, 7, (3, 2))
        for trailing in (False, True):
            blocks = [phi[c:, c:] if trailing else phi[:c + 1, :c + 1] for c in range(3)]
            if any(is_singular(F7, block) for block in blocks):
                with pytest.raises(SingularStageMatrix):
                    mbr._stage_factors(params, nodes, trailing)
                raised += 1
                continue
            inverse, _ = mbr._stage_factors(params, nodes, trailing)
            assert mat_solve(inverse, b).tolist() == mat_solve(FieldMatrix(F7, phi), b).tolist()
            solved += 1
    assert raised and solved


def test_plan_payload_mismatch_comes_before_a_singular_stage():
    # a node order with a singular stage block, read by a plan that leaves
    # out a C^Phi entry: the plan is refused before the stages are factored
    params = MbrParams(F7, 7, 3, 4, backend="vandermonde")
    frags = mbr_encode(params, rand_message(params, random.Random(24)))
    nodes = next(nodes for nodes in itertools.permutations(range(1, 8), 3)
                 if _some_stage_singular(params, nodes, "lower"))
    plan = _hand_plan(params, nodes, "lower")
    with pytest.raises(SingularStageMatrix):
        mbr_reconstruct_partial(params, plan, mbr_extract_payloads(frags, plan))
    short = DownloadPlan(scheme="lower", nodes=plan.nodes,
                         positions=(plan.positions[0][1:],) + plan.positions[1:])
    with pytest.raises(PlanPayloadMismatch, match="column 1"):
        mbr_reconstruct_partial(params, short, mbr_extract_payloads(frags, short))


BIG = MbrParams(fermat_field(), 64, 32, 48)


def test_repair_and_full_read_op_counts_at_scale():
    # the paper's (64, 32, 48) point over GF(65537): a repair costs one
    # d x d Gauss-Jordan solve, a full read the closed-form Phi_DC^-1 of its
    # non-systematic nodes (15 here, interpolation_cost(32, 15)) and three
    # products of 65,536 mul
    rng = random.Random(22)
    u = rand_message(BIG, rng)
    frags = mbr_encode(BIG, u)
    failed = 5
    helpers = sorted(rng.sample([i for i in range(1, 65) if i != failed], BIG.d))
    row = psi_row(BIG, failed)
    responses = [(h, mbr_helper_response(frags[h - 1], row, BIG.field)) for h in helpers]
    counter = OpCounter()
    assert mbr_repair(BIG, responses, failed, counter) == frags[failed - 1]
    assert (counter.mul, counter.add) == (112_944, 110_544)
    nodes = sorted(rng.sample(range(1, 65), BIG.k))
    counter = OpCounter()
    assert sum(i <= BIG.k for i in nodes) == 17
    assert mbr_reconstruct_full(BIG, [frags[i - 1] for i in nodes], counter) == u
    assert (counter.mul, counter.add) == (68_433, 65_472)


@pytest.mark.parametrize("scheme", ["lower", "upper"])
def test_partial_op_counts_at_scale(scheme):
    # one LU with inverted factors (21,856 mul), T by triangular products,
    # Delta_DC T^t, then k stages of m*k multiplications for m unknowns
    rng = random.Random(23)
    u = rand_message(BIG, rng)
    frags = mbr_encode(BIG, u)
    plan = mbr_partial_plan(BIG, sorted(rng.sample(range(1, 65), BIG.k)), scheme)
    counter = OpCounter()
    assert mbr_reconstruct_partial(BIG, plan, mbr_extract_payloads(frags, plan), counter) == u
    assert (counter.mul, counter.add) == (71_520, 69_456)


# a full read at (64, 32, 48) by its number of systematic nodes: three
# products and a subtraction (65,536 mul, 64,000 add) and
# interpolation_cost(32, c) for the c = 32 - systematic rows of Phi_DC^-1
# that are not unit rows
FULL_READ_COUNTS = {0: (70_592, 66_016), 16: (68_560, 65_504), 31: (66_655, 65_024)}


@pytest.mark.parametrize("systematic", [0, 16, 31])
def test_op_counts_do_not_depend_on_unit_rows(systematic):
    # psrs nodes 1..k hold the unit rows [I_k 0] of Psi, which the
    # elimination kernels skip; repairs and partial reads are still charged
    # the dense count.  A repair set of d = 48 helpers holds at least 16
    # systematic nodes.  A full read pays only for its non-systematic nodes.
    _clear_set_caches()
    rng = random.Random(24 + systematic)
    u = rand_message(BIG, rng)
    frags = mbr_encode(BIG, u)
    failed = 1
    helpers = (rng.sample(range(2, 33), max(16, systematic))
               + rng.sample(range(33, 65), BIG.d - max(16, systematic)))
    rng.shuffle(helpers)
    row = psi_row(BIG, failed)
    responses = [(h, mbr_helper_response(frags[h - 1], row, BIG.field)) for h in helpers]
    counter = OpCounter()
    assert mbr_repair(BIG, responses, failed, counter) == frags[failed - 1]
    assert (counter.mul, counter.add) == (112_944, 110_544)
    nodes = rng.sample(range(1, 33), systematic) + rng.sample(range(33, 65), BIG.k - systematic)
    rng.shuffle(nodes)
    counter = OpCounter()
    assert mbr_reconstruct_full(BIG, [frags[i - 1] for i in nodes], counter) == u
    assert (counter.mul, counter.add) == FULL_READ_COUNTS[systematic]
    for scheme in ("lower", "upper"):
        plan = mbr_partial_plan(BIG, nodes, scheme)
        counter = OpCounter()
        payloads = mbr_extract_payloads(frags, plan)
        assert mbr_reconstruct_partial(BIG, plan, payloads, counter) == u
        assert (counter.mul, counter.add) == (71_520, 69_456)


@st.composite
def _repair_case(draw):
    field = draw(st.sampled_from([prime_field(5), prime_field(7), prime_field(11),
                                  binary_field(3), binary_field(4), fermat_field()]))
    n = draw(st.integers(2, min(9, field.q)))
    d = draw(st.integers(1, n - 1))
    k = draw(st.integers(1, d))
    backend = draw(st.sampled_from(["psrs", "vandermonde"]))
    failed = draw(st.integers(1, n))
    helpers = draw(st.permutations([i for i in range(1, n + 1) if i != failed]))[:d]
    seed = draw(st.integers(0, 2**16))
    return MbrParams(field, n, k, d, backend=backend), failed, list(helpers), seed


@given(_repair_case())
@settings(max_examples=200)
def test_repair_returns_lost_fragment(case):
    params, failed, helpers, seed = case
    frags = mbr_encode(params, rand_message(params, random.Random(seed)))
    got, _ = codec.repair(params, {h: frags[h - 1] for h in helpers}, failed, helpers)
    assert got == frags[failed - 1]


@pytest.mark.parametrize("params", [MbrParams(fermat_field(), 12, 5, 7, ntt=True),
                                    MbrParams(prime_field(11), 11, 4, 6),
                                    MbrParams(binary_field(3), 8, 3, 5)], ids=repr)
def test_psrs_full_read_inverse_is_closed_form(params):
    # the psrs Phi_DC^-1 comes from the code's own points: the leading
    # powers of a root of unity under ntt, and 0 last when n = q; every node
    # set, with 0, some or all systematic nodes, in shuffled order
    points = mbr._psrs_params(params).points
    assert params.ntt == (list(points) != enumerate_points(params.field, params.n))
    assert (0 in points) == (params.n == params.field.q)
    rng = random.Random(params.n)
    u = rand_message(params, rng)
    frags = mbr_encode(params, u)
    psi = mbr_build_encoding(params)
    seen = set()
    for nodes in itertools.combinations(range(1, params.n + 1), params.k):
        nodes = rng.sample(nodes, params.k)
        phi_dc = psi[[i - 1 for i in nodes], :params.k]
        phi_inv, _ = mbr._collector_inverse(params, tuple(nodes))
        assert phi_inv.tolist() == mat_inv(FieldMatrix(params.field, phi_dc)).tolist()
        assert mbr_reconstruct_full(params, [frags[i - 1] for i in nodes]) == u
        seen.add(sum(i <= params.k for i in nodes))
    assert seen == set(range(params.k + 1))


def _clear_set_caches():
    for cache in (mbr._repair_inverse, mbr._collector_inverse, mbr._stage_factors):
        cache.cache_clear()


@given(_partial_case(), st.data())
@settings(max_examples=60)
def test_cached_calls_match_cold_calls(case, data):
    # a call that finds its matrices cached returns and counts the same as
    # one that builds them
    params, nodes, seed = case
    u = rand_message(params, random.Random(seed))
    frags = mbr_encode(params, u)
    failed = data.draw(st.integers(1, params.n))
    helpers = data.draw(st.permutations([i for i in range(1, params.n + 1) if i != failed]))
    row = psi_row(params, failed)
    responses = [(h, mbr_helper_response(frags[h - 1], row, params.field))
                 for h in helpers[:params.d]]
    calls = {"repair": lambda c: mbr_repair(params, responses, failed, c),
             "full": lambda c: mbr_reconstruct_full(params, [frags[i - 1] for i in nodes], c)}
    for scheme in ("lower", "upper"):
        plan = mbr_partial_plan(params, nodes, scheme)
        payloads = mbr_extract_payloads(frags, plan)
        calls[scheme] = lambda c, plan=plan, payloads=payloads: mbr_reconstruct_partial(
            params, plan, payloads, c)
    for name, call in calls.items():
        _clear_set_caches()
        runs = []
        for _ in range(2):
            counter = OpCounter()
            runs.append((call(counter), counter.mul, counter.add))
        assert runs[0] == runs[1], name
        assert runs[0][0] == (frags[failed - 1] if name == "repair" else u), name


# ---------------------------------------------------------------------------
# encoding-matrix conditions: any d rows of Psi and any k rows of Phi are
# invertible.  They hold by construction and `mbr_build_encoding` does not
# check them, so they are checked here.


def _invertible(field, mats):
    """Whether each matrix of a stack of square matrices is invertible, by
    Gaussian elimination on the whole stack at once."""
    a = np.array(mats, dtype=np.int64)
    count, size = a.shape[:2]
    ok = np.ones(count, dtype=bool)
    every = np.arange(count)
    for c in range(size):
        nonzero = a[:, c:, c] != 0
        ok &= nonzero.any(axis=1)
        p = c + nonzero.argmax(axis=1)
        row = a[every, p]
        a[every, p] = a[:, c]
        # a matrix already found singular is carried along with pivot 1
        row = field.vmul(row, field.vinv(np.where(ok, row[:, c], 1))[:, None])
        a[:, c] = row
        a[:, c + 1:] = field.vsub(a[:, c + 1:], field.vmul(a[:, c + 1:, c:c + 1], row[:, None, :]))
    return ok


def _singular_sets(field, psi, cols, row_sets):
    """The 1-based row sets whose rows of Psi[:, :cols] are singular."""
    sets = np.array(row_sets, dtype=np.int64).reshape(-1, cols)
    ok = _invertible(field, psi[sets, :cols])
    return [tuple(s) for s in (sets[~ok] + 1).tolist()]


def _condition_failures(params):
    psi = mbr_build_encoding(params)
    rows = range(params.n)
    return [(size, bad) for size in (params.d, params.k)
            for bad in _singular_sets(params.field, psi, size,
                                      list(itertools.combinations(rows, size)))]


@pytest.mark.parametrize("field", [prime_field(11), binary_field(4), binary_field(8),
                                   fermat_field()], ids=repr)
def test_invertibility_check_agrees_with_mat_inv(field):
    rng = np.random.default_rng(field.q)
    for size in range(1, 6):
        mats = rng.integers(0, field.q, (120, size, size))
        mats[::4] *= rng.integers(0, 2, (30, size, size))  # zeros force row swaps
        if size > 1:
            # a multiple of row 0 added to row 1 in the last row: singular
            scale = rng.integers(0, field.q, (40, 1))
            mats[1::3, -1] = field.vadd(field.vmul(scale, mats[1::3, 0]), mats[1::3, 1])
        expected = []
        for m in mats:
            try:
                mat_inv(FieldMatrix(field, m))
                expected.append(True)
            except SingularMatrix:
                expected.append(False)
        assert _invertible(field, mats).tolist() == expected
        assert size == 1 or not all(expected)


CONDITION_CODES = [(prime_field(11), "psrs", False), (prime_field(11), "vandermonde", False),
                   (binary_field(4), "psrs", False), (binary_field(4), "vandermonde", False),
                   (binary_field(8), "psrs", False), (binary_field(8), "vandermonde", False),
                   (fermat_field(), "psrs", False), (fermat_field(), "vandermonde", False),
                   (fermat_field(), "psrs", True)]


@pytest.mark.parametrize("field, backend, ntt", CONDITION_CODES,
                         ids=[f"{f!r}-{b}{'-ntt' if t else ''}" for f, b, t in CONDITION_CODES])
def test_encoding_conditions_every_row_set(field, backend, ntt):
    # every (n, k, d) with n <= 10, and n = q = 11 over GF(11), where the
    # vandermonde points include 0
    sizes = range(2, 12 if field.q == 11 else 11)
    for n in sizes:
        for d in range(1, n):
            for k in range(1, d + 1):
                params = MbrParams(field, n, k, d, backend, ntt)
                assert not _condition_failures(params), params


@pytest.mark.parametrize("params", [MbrParams(binary_field(8), 64, 32, 48),
                                    MbrParams(binary_field(8), 64, 32, 48, "vandermonde"),
                                    MbrParams(fermat_field(), 64, 32, 48),
                                    MbrParams(fermat_field(), 64, 32, 48, "vandermonde"),
                                    MbrParams(fermat_field(), 64, 32, 48, ntt=True)], ids=repr)
def test_encoding_conditions_at_scale(params):
    # the ten d-row and ten k-row sets the build used to check at
    # (64,32,48), drawn from the same seed
    n, k, d = params.n, params.k, params.d
    rng = random.Random(0xC0DE ^ n)
    d_sets = [tuple(sorted(rng.sample(range(n), d))) for _ in range(10)]
    k_sets = [tuple(sorted(rng.sample(range(n), k))) for _ in range(10)]
    psi = mbr_build_encoding(params)
    assert not _singular_sets(params.field, psi, d, d_sets)
    assert not _singular_sets(params.field, psi, k, k_sets)


@pytest.mark.parametrize("backend", mbr.BACKENDS)
def test_condition_check_catches_a_repeated_point(backend):
    # the last point repeats the fifth, so rows 5 and 7 are equal: exactly
    # the row sets holding both are singular
    field, n, k, d = prime_field(11), 7, 3, 5
    points = (1, 2, 3, 4, 5, 6, 5)
    if backend == "psrs":
        psi = generator_matrix(PsrsParams(field, n, k, d, "eval", points))
    else:
        psi = np.array([[pow(x, j, 11) for j in range(d)] for x in points], dtype=np.int64)
    for size in (d, k):
        sets = list(itertools.combinations(range(n), size))
        both = [tuple(i + 1 for i in s) for s in sets if 4 in s and 6 in s]
        assert both and _singular_sets(field, psi, size, sets) == both


def test_repeated_points_are_refused_before_psi_is_built(monkeypatch):
    with pytest.raises(ParamsInvalid):
        eval_params(prime_field(11), 6, 3, 4, points=(1, 2, 3, 4, 5, 5))
    monkeypatch.setattr(psrs, "enumerate_points", lambda field, n: [1] * n)
    with pytest.raises(ParamsInvalid):
        eval_params(prime_field(11), 6, 3, 4)
    monkeypatch.setattr(psrs, "ntt_points", lambda field, n: [1] * n)
    with pytest.raises(ParamsInvalid):
        eval_params(fermat_field(), 6, 3, 4, ntt=True)


def test_check_positions_bounds():
    plan = mbr_partial_plan(REF7, [1, 2, 4], "lower")
    plan.check_positions(REF7.d)
    with pytest.raises(IndexOutOfRange, match="node 1:"):
        plan.check_positions(REF7.d - 1)
