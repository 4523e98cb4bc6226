"""Acceptance suite: ten numbered criteria, each printing one PASS/FAIL line.

Every check is exact (finite-field equality); the only tolerances are the
per-criterion runtime budgets, asserted against the wall clock.
"""

import itertools
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from regencodes import codec
from regencodes.counting import OpCounter
from regencodes.errors import FieldTooSmall
from regencodes.fragments import fragment_symbol
from regencodes.gf import binary_field, fermat_field, prime_field
from regencodes.harness.bench import bench_compare
from regencodes.harness.reports import field_size_report
from regencodes.matrix import mat_mul
from regencodes.mbr import (
    MbrParams,
    StageRecord,
    mbr_build_encoding,
    mbr_build_message,
    mbr_encode,
    mbr_encode_columns,
    mbr_extract_payloads,
    mbr_partial_plan,
    mbr_reconstruct_full,
    mbr_reconstruct_partial,
    timeshare_scheme,
)
from regencodes.psrs import (
    PsrsMessage,
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
from regencodes.rbt import (
    RbtParams,
    decision,
    extract_payloads,
    rbt_build_encoding,
    rbt_encode,
    rbt_encode_systematic,
    rbt_partial_plan,
    rbt_reconstruct_full,
    rbt_reconstruct_partial,
    rbt_repair,
    source_block,
)
from regencodes.shah import ShahParams, shah_encode

from oracles import remapped_message, solve_full_genpoly_linear


@contextmanager
def criterion(capsys, num: int, name: str, limit: float):
    """Wrap one acceptance criterion: print a PASS/FAIL line, enforce the budget."""
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        with capsys.disabled():
            print(f"ACCEPTANCE {num} {name}: FAIL")
        raise
    dt = time.perf_counter() - t0
    if dt >= limit:
        with capsys.disabled():
            print(f"ACCEPTANCE {num} {name}: FAIL (over budget: {dt:.2f}s >= {limit:.0f}s)")
        raise AssertionError(f"criterion {num} over budget: {dt:.2f}s >= {limit}s")
    with capsys.disabled():
        print(f"ACCEPTANCE {num} {name}: PASS ({dt:.2f}s, budget {limit:.0f}s)")


def _rand(field, count, rng):
    return [rng.randrange(field.q) for _ in range(count)]


# ------------------------------------------------------------------------ 1 ---

def test_criterion_1_reference_constructions(capsys):
    with criterion(capsys, 1, "reference-constructions", 1.0):
        # construction A: (n=5, k=3) over GF(4); w is the primitive element
        f4 = binary_field(2)
        w = f4.omega
        w2 = f4.mul(w, w)
        w4 = f4.mul(w2, w2)
        psi_hat = rbt_build_encoding(RbtParams(f4, 5, 3))
        assert psi_hat.tolist() == [
            [1, 0, 0, 0, 0],
            [1, 1, 1, 0, 0],
            [1, w, w2, 0, 0],
            [1, w2, w4, 1, 0],
            [0, 0, 1, 0, 1],
        ]

        # construction B: (n=6, k=3, d=4) over GF(7)
        f7 = prime_field(7)
        ref = MbrParams(f7, 6, 3, 4)
        psi = mbr_build_encoding(ref)
        assert psi.tolist() == [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [1, 4, 3, 6],
            [3, 6, 6, 3],
            [6, 6, 3, 4],
        ]
        gen = generator_matrix(eval_params(f7, 6, 3, 4))
        assert [row[:3] for row in gen.tolist()] == [
            [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 4, 3], [3, 6, 6], [6, 6, 3]
        ]
        assert [row[3:] for row in gen.tolist()] == [[0], [0], [0], [6], [3], [4]]
        m = mbr_build_message(MbrParams(prime_field(11), 6, 3, 4), list(range(1, 10)))
        assert m.tolist() == [
            [1, 2, 3, 4],
            [2, 5, 6, 7],
            [3, 6, 8, 9],
            [4, 7, 9, 0],
        ]

        # construction C: collector on nodes {1,2,4}, lower scheme, stage systems
        rng = random.Random(1)
        u = _rand(f7, ref.B, rng)
        frags = mbr_encode(ref, u)
        plan = mbr_partial_plan(ref, [1, 2, 4], "lower")
        trace: list[StageRecord] = []
        got = mbr_reconstruct_partial(ref, plan, mbr_extract_payloads(frags, plan),
                                      trace=trace)
        assert got == u
        stage_matrix = [[1, 0, 0], [0, 1, 0], [1, 4, 3]]
        assert [r.matrix.tolist() for r in trace] == [stage_matrix] * 3
        assert [r.solved for r in trace] == [
            ((1, 1), (1, 2), (1, 3)),
            ((2, 2), (2, 3)),
            ((3, 3),),
        ]
        # identity rows of stages 2 and 3 carry the already-solved S entries
        assert trace[1].rhs[0] == u[1]
        assert trace[2].rhs[:2] == (u[2], u[5])


# ------------------------------------------------------------------------ 2 ---

def test_criterion_2_decision_tables(capsys):
    with criterion(capsys, 2, "pairwise-decision-tables", 1.0):
        k5 = {
            (1, 5): 1, (1, 4): 4, (1, 3): 1, (1, 2): 2,
            (2, 5): 5, (2, 4): 2, (2, 3): 3,
            (3, 5): 3, (3, 4): 4,
            (4, 5): 5,
        }
        k6 = {
            (1, 6): 6, (1, 5): 1, (1, 4): 4, (1, 3): 1, (1, 2): 2,
            (2, 6): 2, (2, 5): 5, (2, 4): 2, (2, 3): 3,
            (3, 6): 6, (3, 5): 3, (3, 4): 4,
            (4, 6): 4, (4, 5): 5,
            (5, 6): 6,
        }
        for table, k in ((k5, 5), (k6, 6)):
            assert len(table) == k * (k - 1) // 2  # complete pair coverage
            for (j, l), want in table.items():
                assert decision(j, l) == want, (j, l)


# ------------------------------------------------------------------------ 3 ---

@pytest.mark.parametrize("field", [prime_field(11), binary_field(4), fermat_field()],
                         ids=lambda f: repr(f))
def test_criterion_3_exhaustive_round_trip(capsys, field):
    # the 60s budget covers all three fields; give each a third
    with criterion(capsys, 3, f"exhaustive-round-trip[{field!r}]", 20.0):
        rng = random.Random(0xACC3)
        messages = 5
        for n in range(2, 9):
            # repair-by-transfer codec: d = n-1
            for k in range(1, n):
                params = RbtParams(field, n, k)
                for _ in range(messages):
                    u = _rand(field, params.B, rng)
                    cw = rbt_encode(params, u)
                    frags = {f.node: f for f in cw.fragments()}
                    for failed in range(1, n + 1):
                        responses = [(i, fragment_symbol(frags[i], failed))
                                     for i in frags if i != failed]
                        assert rbt_repair(params, responses, failed) == frags[failed]
                    for subset in itertools.combinations(range(1, n + 1), k):
                        got = rbt_reconstruct_full(params, [frags[i] for i in subset])
                        assert got == u
            # product-matrix codec: all k <= d <= n-1
            for d in range(1, n):
                for k in range(1, d + 1):
                    params = MbrParams(field, n, k, d)
                    for _ in range(messages):
                        u = _rand(field, params.B, rng)
                        frags = mbr_encode(params, u)
                        for subset in itertools.combinations(range(1, n + 1), k):
                            got = mbr_reconstruct_full(params, [frags[i - 1] for i in subset])
                            assert got == u
                        for failed in range(1, n + 1):
                            others = [i for i in range(1, n + 1) if i != failed]
                            for helpers in itertools.combinations(others, d):
                                got, _ = codec.repair(
                                    params, {i: frags[i - 1] for i in helpers}, failed, helpers)
                                assert got == frags[failed - 1]


# ------------------------------------------------------------------------ 4 ---

def test_criterion_4_transfer_only_repair(capsys):
    with criterion(capsys, 4, "transfer-only-repair", 1.0):
        rng = random.Random(4)
        params = RbtParams(prime_field(11), 7, 3)
        u = _rand(params.field, params.B, rng)
        frags = {f.node: f for f in rbt_encode(params, u).fragments()}
        for failed in range(1, 8):
            counter = OpCounter()
            responses = [(i, fragment_symbol(frags[i], failed))
                         for i in frags if i != failed]
            assert rbt_repair(params, responses, failed, counter) == frags[failed]
            assert counter.mul == 0 and counter.add == 0
        sparams = ShahParams(binary_field(6), 5, 3)
        stores = {f.node: f
                  for f in shah_encode(sparams, _rand(sparams.field, sparams.B, rng))}
        for failed in range(1, 6):  # placement only
            responses = [(i, fragment_symbol(stores[i], failed))
                         for i in stores if i != failed]
            assert rbt_repair(sparams, responses, failed) == stores[failed]


# ------------------------------------------------------------------------ 5 ---

def _connected_choices(n, k, rng):
    first = list(range(1, k + 1))
    last = list(range(n - k + 1, n + 1))
    mixed = sorted(rng.sample(range(1, n + 1), k))
    seen, out = set(), []
    for c in (first, last, mixed):
        key = tuple(c)
        if key not in seen:
            seen.add(key)
            out.append(c)
    return out


def test_criterion_5_download_accounting(capsys):
    with criterion(capsys, 5, "download-accounting", 10.0):
        f = prime_field(11)
        rng = random.Random(5)
        for n in range(2, 11):
            for k in range(1, n):
                params = RbtParams(f, n, k)
                for connected in _connected_choices(n, k, rng):
                    assert rbt_partial_plan(params, connected).total_symbols == params.B
            for d in range(1, n):
                for k in range(1, d + 1):
                    params = MbrParams(f, n, k, d)
                    vdm = MbrParams(f, n, k, d, backend="vandermonde")
                    for connected in _connected_choices(n, k, rng):
                        for scheme in ("lower", "upper"):
                            plan = mbr_partial_plan(params, connected, scheme)
                            assert plan.total_symbols == params.B
                        assert mbr_partial_plan(vdm, connected, "upper").total_symbols == vdm.B
                        for r in range(4):
                            plan = mbr_partial_plan(params, connected, timeshare_scheme(r))
                            assert plan.total_symbols == params.B


# ------------------------------------------------------------------------ 6 ---

def test_criterion_6_balance_formulas(capsys):
    with criterion(capsys, 6, "balance-formulas", 5.0):
        f = prime_field(11)
        for n in range(2, 11):
            for k in range(1, n):
                params = RbtParams(f, n, k)
                plan = rbt_partial_plan(params, list(range(1, k + 1)))
                counts = [len(p) for p in plan.positions]
                if k % 2 == 1:
                    assert all(c == (n - 1) - (k - 1) // 2 for c in counts)
                else:
                    for slot, c in enumerate(counts, start=1):
                        if slot % 2 == 1:
                            assert c == (n - 1) - (k // 2 - 1)
                        else:
                            assert c == (n - 1) - k // 2
            for d in range(1, n):
                for k in range(1, d + 1):
                    params = MbrParams(f, n, k, d)
                    r1, r2 = (mbr_partial_plan(params, list(range(1, k + 1)), timeshare_scheme(r))
                              for r in range(2))
                    c1, c2 = r1.per_node_counts(), r2.per_node_counts()
                    for node in c1:
                        assert c1[node] + c2[node] == 2 * d - (k - 1)


# ------------------------------------------------------------------------ 7 ---

def test_criterion_7_field_size_advantage(capsys):
    with criterion(capsys, 7, "field-size-advantage", 1.0):
        f8 = binary_field(3)
        rng = random.Random(7)
        # congruence codes fit GF(8) at n=8 (n <= q+1) ...
        params = RbtParams(f8, 8, 4)
        u = _rand(f8, params.B, rng)
        cw = rbt_encode(params, u)
        assert rbt_reconstruct_full(params, [cw.fragments()[i - 1] for i in (1, 4, 6, 8)]) == u
        # ... while the packet baseline needs C(8,2)=28 <= q+1=9
        with pytest.raises(FieldTooSmall):
            ShahParams(f8, 8, 4)
        # at n = q the psrs backend still builds; the Cauchy bound fails for d > k
        f7 = prime_field(7)
        mbr_build_encoding(MbrParams(f7, 7, 2, 4))
        report = {row.scheme: row for row in field_size_report(f7, 7, 2, 4)}
        assert report["mbr-psrs"].satisfied
        assert not report["cauchy-systematic"].satisfied
        assert report["cauchy-systematic"].limit == 7 + 2 - 4
        assert report["shah"].bound == "C(n,2) <= q+1" and not report["shah"].satisfied


# ------------------------------------------------------------------------ 8 ---

def test_criterion_8_complexity_trends(capsys):
    with criterion(capsys, 8, "complexity-trends", 120.0):
        rep1 = bench_compare("rbt-vs-shah", [8, 12, 16, 20, 24, 28, 32], binary_field(16))
        shah, rbt = rep1.counts("shah"), rep1.counts("rbt")
        ns = sorted(shah)
        ratios = [shah[n] / rbt[n] for n in ns]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

        rep2 = bench_compare("mbr-naive-vs-ntt", [32, 64, 128, 256, 512], fermat_field())
        naive, ntt = rep2.counts("naive"), rep2.counts("ntt")
        assert any(ntt[n] < naive[n] for n in sorted(naive))


# ------------------------------------------------------------------------ 9 ---

def test_criterion_9_psrs_mds_properties(capsys):
    with criterion(capsys, 9, "psrs-mds-properties", 60.0):
        f11 = prime_field(11)
        rng = random.Random(9)
        for n in range(2, 11):
            for d in range(1, n):
                for k in range(1, d + 1):
                    ev = eval_params(f11, n, k, d)
                    gp = genpoly_params(f11, n, k, d)
                    msg = PsrsMessage(tuple(_rand(f11, k, rng)),
                                      tuple(_rand(f11, d - k, rng)))
                    cw = encode_eval(ev, msg)
                    cf = encode_genpoly(gp, msg)
                    for subset in itertools.combinations(range(1, n + 1), d):
                        assert decode_full_eval(ev, [(p, cw[p - 1]) for p in subset]) == msg
                    for subset in itertools.combinations(range(n), d):
                        assert decode_full_genpoly(gp, [(t, cf[t]) for t in subset]) == msg
                    for subset in itertools.combinations(range(1, n + 1), k):
                        got = decode_partial_eval(
                            ev, [(p, cw[p - 1]) for p in subset], list(msg.b))
                        assert tuple(got) == msg.a
                    for subset in itertools.combinations(range(n), k):
                        got = decode_partial_genpoly(
                            gp, [(t, cf[t]) for t in subset], list(msg.b))
                        assert tuple(got) == msg.a
        # Forney against the independent linear-system oracle
        gp = genpoly_params(f11, 9, 3, 6)
        for _ in range(100):
            msg = PsrsMessage(tuple(_rand(f11, 3, rng)), tuple(_rand(f11, 3, rng)))
            cf = encode_genpoly(gp, msg)
            subset = rng.sample(range(9), 6)
            pairs = [(t, cf[t]) for t in subset]
            assert decode_full_genpoly(gp, pairs) \
                == solve_full_genpoly_linear(gp, pairs) == msg


# ----------------------------------------------------------------------- 10 ---

def test_criterion_10_cross_path_equivalences(capsys):
    with criterion(capsys, 10, "cross-path-equivalences", 30.0):
        f11 = prime_field(11)
        rng = random.Random(10)

        # partial reconstruction == full reconstruction (both codecs)
        params = RbtParams(f11, 8, 4)
        for _ in range(50):
            u = _rand(f11, params.B, rng)
            cw = rbt_encode(params, u)
            connected = sorted(rng.sample(range(1, 9), 4))
            plan = rbt_partial_plan(params, connected)
            part = rbt_reconstruct_partial(params, plan, extract_payloads(cw.fragments(), plan))
            full = rbt_reconstruct_full(params, [cw.fragments()[i - 1] for i in connected])
            assert part == full == u
        mparams = MbrParams(f11, 8, 3, 5)
        for trial in range(50):
            u = _rand(f11, mparams.B, rng)
            frags = mbr_encode(mparams, u)
            connected = sorted(rng.sample(range(1, 9), 3))
            scheme = ("lower", "upper")[trial % 2]
            plan = mbr_partial_plan(mparams, connected, scheme)
            part = mbr_reconstruct_partial(mparams, plan, mbr_extract_payloads(frags, plan))
            full = mbr_reconstruct_full(mparams, [frags[i - 1] for i in connected])
            assert part == full == u

        # systematic encode == congruence encode of the remapped message
        sparams = RbtParams(f11, 8, 4, systematic=True)
        for _ in range(50):
            u = _rand(f11, sparams.B, rng)
            block = source_block(sparams, u)
            assert np.array_equal(rbt_encode_systematic(sparams, block).check,
                                  rbt_encode(sparams, remapped_message(sparams, block)).check)

        # generator-matrix encode == polynomial-evaluation encode
        pp = eval_params(f11, 9, 4, 6)
        gen = generator_matrix(pp)
        for _ in range(50):
            msg = PsrsMessage(tuple(_rand(f11, 4, rng)), tuple(_rand(f11, 2, rng)))
            col = np.array([[v] for v in list(msg.a) + list(msg.b)])
            assert encode_eval(pp, msg) == [r[0] for r in mat_mul(f11, gen, col).tolist()]

        # NTT encode == naive encode (whole-codeword level)
        ff = fermat_field()
        nparams = MbrParams(ff, 16, 6, 8, ntt=True)
        for _ in range(50):
            u = _rand(ff, nparams.B, rng)
            assert mbr_encode(nparams, u) == mbr_encode_columns(nparams, u)
