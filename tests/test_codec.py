import pytest

from regencodes import codec
from regencodes.errors import ParamsInvalid
from regencodes.fragments import CODEC_TAGS
from regencodes.gf import prime_field
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
