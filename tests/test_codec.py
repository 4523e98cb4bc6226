import itertools
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from regencodes import codec, mbr, psrs, rbt, shah
from regencodes.counting import OpCounter
from regencodes.errors import (
    DuplicateHelper,
    FieldTooSmall,
    IndexOutOfRange,
    InsufficientSymbols,
    ParamsInvalid,
    WrongFragmentCount,
    WrongHelperCount,
)
from regencodes.fragments import CODEC_TAGS, Fragment, fragment_symbol
from regencodes.gf import binary_field, fermat_field, prime_field
from regencodes.harness.selftest import CODECS
from regencodes.mbr import MbrParams, mbr_partial_plan
from regencodes.rbt import RbtParams
from regencodes.shah import ShahParams

F11 = prime_field(11)


def test_scheme_table_covers_every_tag_in_order():
    assert tuple(codec.SCHEMES) == CODEC_TAGS


def test_params_for_rejects_unknown_tag():
    with pytest.raises(ParamsInvalid):
        codec.params_for("mbr", F11, 6, 3, 4)


RBT_SYS = RbtParams(F11, 6, 3, systematic=True)
CACHED_BUILDERS = {
    "mbr_build_encoding": lambda: mbr.mbr_build_encoding(MbrParams(F11, 6, 3, 4)),
    "mbr_build_encoding[vdm]":
        lambda: mbr.mbr_build_encoding(MbrParams(F11, 6, 3, 4, backend="vandermonde")),
    "rbt_build_encoding": lambda: rbt.rbt_build_encoding(RbtParams(F11, 6, 3)),
    "rbt_build_encoding[sys]": lambda: rbt.rbt_build_encoding(RBT_SYS),
    "rbt_build_encoding[sys, n=q+1]":
        lambda: rbt.rbt_build_encoding(RbtParams(F11, 12, 5, systematic=True)),
    "rbt._psi_t_inv": lambda: rbt._psi_t_inv(RBT_SYS),
    "rbt._psi_t_inv[plain]": lambda: rbt._psi_t_inv(RbtParams(F11, 6, 3)),
    "shah._generator_rows": lambda: shah._generator_rows(ShahParams(F11, 5, 3)),
    "psrs._sys_basis": lambda: psrs._sys_basis(psrs.eval_params(F11, 6, 3, 4)),
}


@pytest.mark.parametrize("name", sorted(CACHED_BUILDERS))
def test_cached_builders_return_read_only_arrays(name):
    # every caller shares the cached matrix: a write would corrupt later calls
    a = CACHED_BUILDERS[name]()
    assert a is CACHED_BUILDERS[name]()
    assert a.dtype == np.int64 and not a.flags.writeable
    before = a.copy()
    with pytest.raises(ValueError):
        a[0, 0] = (int(a[0, 0]) + 1) % F11.q
    with pytest.raises(ValueError):
        a += 1
    assert np.array_equal(a, before)


def test_generator_matrix_is_read_only():
    # built afresh on each call; mbr_build_encoding caches and shares it
    g = psrs.generator_matrix(psrs.eval_params(F11, 6, 3, 4))
    assert g.dtype == np.int64 and not g.flags.writeable
    with pytest.raises(ValueError):
        g[0, 0] = 1


def test_default_repair_helpers():
    params = MbrParams(F11, 6, 3, 4)
    u = list(range(params.B))
    frags = {f.node: f for f in codec.encode(params, u)}
    survivors = {i: f for i, f in frags.items() if i != 3}
    frag, per_node = codec.repair(params, survivors, 3)
    assert frag == frags[3]
    assert per_node == {1: 1, 2: 1, 4: 1, 5: 1}  # first d survivors

    rparams = RbtParams(F11, 6, 3)
    rfrags = {f.node: f for f in codec.encode(rparams, [i % 11 for i in range(rparams.B)])}
    frag, per_node = codec.repair(rparams, rfrags, 2)  # the failed node is never a helper
    assert frag == rfrags[2]
    assert per_node == {i: 1 for i in (1, 3, 4, 5, 6)}


def test_timeshare_alternates_with_phase():
    params = MbrParams(F11, 6, 3, 4)
    u = list(range(params.B))
    frags = {f.node: f for f in codec.encode(params, u)}
    nodes = [1, 2, 4]
    for phase, scheme in ((0, "lower"), (1, "upper"), (2, "lower")):
        got, per_node = codec.reconstruct(params, frags, nodes, "timeshare", phase=phase)
        assert got == u
        assert per_node == mbr_partial_plan(params, nodes, scheme).per_node_counts()


@pytest.mark.parametrize("tag", ["mbr-psrs", "mbr-vdm"])
def test_partial_read_counts_come_in_slot_order(tag):
    # node j of the per-node dict a partial read returns fills row j of
    # Phi_DC, whatever order the nodes were listed in; the counts add to B
    params = codec.params_for(tag, prime_field(7), 6, 3, 4)
    u = [i % 7 for i in range(params.B)]
    frags = {f.node: f for f in codec.encode(params, u)}
    for nodes in itertools.permutations(range(1, params.n + 1), params.k):
        slots = mbr.assign_slots(params, nodes)
        for scheme in ("lower", "upper", "timeshare"):
            got, per_node = codec.reconstruct(params, frags, nodes, scheme)
            assert got == u
            assert tuple(per_node) == slots
            assert sum(per_node.values()) == params.B


@st.composite
def _transfer_case(draw):
    tag = draw(st.sampled_from(["rbt", "rbt-sys", "shah"]))
    field = draw(st.sampled_from([prime_field(5), prime_field(7), prime_field(31),
                                  binary_field(3), binary_field(6), fermat_field()]))
    n = draw(st.integers(2, 8))
    k = draw(st.integers(1, n - 1))
    failed = draw(st.integers(1, n))
    return tag, field, n, k, failed, draw(st.integers(0, 2**16))


@given(_transfer_case())
@settings(max_examples=100)
def test_transfer_repair_is_placement(case):
    # rbt and shah store the rows of a symmetric matrix without its diagonal:
    # node i holds in column j what node j holds in column i, and a lost
    # node comes back from those symbols with no field operation
    tag, field, n, k, failed, seed = case
    try:
        params = codec.params_for(tag, field, n, k)
    except FieldTooSmall:
        assume(False)
    rng = random.Random(seed)
    frags = {f.node: f for f in codec.encode(params, [rng.randrange(field.q)
                                                      for _ in range(params.B)])}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                assert fragment_symbol(frags[i], j) == fragment_symbol(frags[j], i)
    survivors = {i: f for i, f in frags.items() if i != failed}
    counter = OpCounter()
    frag, per_node = codec.repair(params, survivors, failed, counter=counter)
    assert frag == frags[failed]
    assert counter.mul == 0 and counter.add == 0
    assert per_node == {i: 1 for i in survivors}


@pytest.mark.parametrize("tag", ["rbt", "rbt-sys", "shah"])
@pytest.mark.parametrize("failed", [0, 7])
def test_transfer_repair_of_node_outside_range(tag, failed):
    params = codec.params_for(tag, binary_field(6), 6, 3)
    frags = {f.node: f for f in codec.encode(params, [1] * params.B)}
    with pytest.raises(IndexOutOfRange):
        codec.repair(params, frags, failed)


@st.composite
def _read_case(draw):
    tag = draw(st.sampled_from(["rbt", "rbt-sys", "mbr-psrs", "mbr-vdm", "shah"]))
    field = draw(st.sampled_from([prime_field(5), prime_field(7), prime_field(31),
                                  binary_field(3), binary_field(6), fermat_field()]))
    n = draw(st.integers(2, 8))
    k = draw(st.integers(1, n - 1))
    d = draw(st.integers(k, n - 1)) if tag.startswith("mbr") else None
    nodes = draw(st.permutations(range(1, n + 1)))[:k]
    return tag, field, n, k, d, list(nodes), draw(st.integers(0, 2**16))


@given(_read_case())
@settings(max_examples=200)
def test_full_read_ignores_node_list_order(case):
    # any k fragments, listed in any order, read back the message at the
    # cost of the same nodes listed in ascending order
    tag, field, n, k, d, nodes, seed = case
    try:
        params = codec.params_for(tag, field, n, k, d)
    except FieldTooSmall:
        assume(False)
    rng = random.Random(seed)
    u = [rng.randrange(field.q) for _ in range(params.B)]
    frags = {f.node: f for f in codec.encode(params, u)}
    listed, ascending = OpCounter(), OpCounter()
    assert codec.reconstruct(params, frags, nodes, "full", listed)[0] == u
    assert codec.reconstruct(params, frags, sorted(nodes), "full", ascending)[0] == u
    assert (listed.mul, listed.add) == (ascending.mul, ascending.add)


@pytest.mark.parametrize("case", CODECS, ids=lambda case: case[0])
def test_every_codec_sits_at_the_mbr_point(case):
    # every codec stores alpha = d symbols a node, sends beta = 1 a helper
    # and holds B = kd - C(k, 2) message symbols; a repair and a read of
    # every scheme refuse a fragment one symbol short or long and name its node
    tag, field, n, k, d = case
    params = codec.params_for(tag, field, n, k, d)
    d = params.d
    assert (params.alpha, params.beta, params.B) == (d, 1, k * d - k * (k - 1) // 2)
    encoded = {f.node: f for f in codec.encode(params, [1] * params.B)}
    nodes = list(range(2, k + 2))
    bad = nodes[-1]  # also one of node 1's default helpers 2 .. d+1
    symbols = encoded[bad].symbols
    for wrong in (symbols[:-1], np.append(symbols, 0)):
        frags = {**encoded, bad: Fragment(tag, bad, wrong)}
        match = f"fragment of node {bad} has {len(wrong)} symbols, expected {d}"
        with pytest.raises(WrongFragmentCount, match=match):
            codec.repair(params, frags, 1)
        for scheme in codec.SCHEMES[tag]:
            with pytest.raises(WrongFragmentCount, match=match):
                codec.reconstruct(params, frags, nodes, scheme)


def _bad_repairs(n, d):
    """(failed node, helpers or None for the default, node without a
    fragment, error): check_helpers' checks in its order, then a helper
    whose fragment is missing."""
    others = list(range(2, n + 1))
    return [
        (n + 1, None, None, IndexOutOfRange),
        (1, others[: d - 1] + others[:1], None, DuplicateHelper),
        (1, [1] + others[: d - 1], None, DuplicateHelper),
        (1, others[: d - 1], None, WrongHelperCount),
        (1, others[: d - 1] + [n + 1], None, IndexOutOfRange),
        (1, others[:d], others[0], InsufficientSymbols),
    ]


@pytest.mark.parametrize("case", CODECS, ids=lambda case: case[0])
def test_repair_checks_its_helpers_before_reading(case):
    # every codec repairs from d distinct helpers in [1, n] other than the
    # failed node, and says which rule a helper list breaks with a typed
    # error before any field operation
    params = codec.params_for(*case)
    encoded = {f.node: f for f in codec.encode(params, [1] * params.B)}
    for failed, helpers, absent, error in _bad_repairs(params.n, params.d):
        frags = {i: f for i, f in encoded.items() if i != absent}
        counter = OpCounter()
        with pytest.raises(error):
            codec.repair(params, frags, failed, helpers, counter)
        assert (counter.mul, counter.add) == (0, 0)


@pytest.mark.parametrize("case", CODECS, ids=lambda case: case[0])
def test_reconstruct_checks_its_nodes_before_reading(case):
    params = codec.params_for(*case)
    n, k = params.n, params.k
    frags = {f.node: f for f in codec.encode(params, [1] * params.B)}
    lost = {i: f for i, f in frags.items() if i != k}
    for scheme in codec.SCHEMES[params.codec]:
        for nodes in ([0] + list(range(2, k + 1)), list(range(1, k)) + [n + 1]):
            with pytest.raises(IndexOutOfRange):
                codec.reconstruct(params, frags, nodes, scheme)
        with pytest.raises(InsufficientSymbols, match=f"no fragment for planned node {k}"):
            codec.reconstruct(params, lost, list(range(1, k + 1)), scheme)
