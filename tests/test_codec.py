import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from regencodes import codec
from regencodes.counting import OpCounter
from regencodes.errors import FieldTooSmall, IndexOutOfRange, ParamsInvalid
from regencodes.fragments import CODEC_TAGS, fragment_symbol
from regencodes.gf import binary_field, fermat_field, prime_field
from regencodes.mbr import MbrParams, mbr_partial_plan
from regencodes.rbt import RbtParams

F11 = prime_field(11)


def test_scheme_table_covers_every_tag_in_order():
    assert tuple(codec.SCHEMES) == CODEC_TAGS


def test_params_for_rejects_unknown_tag():
    with pytest.raises(ParamsInvalid):
        codec.params_for("mbr", F11, 6, 3, 4)


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
@settings(max_examples=100, deadline=None, derandomize=True)
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
