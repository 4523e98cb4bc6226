"""Inputs that fit the expected shape but not the code are refused with a
typed error, never decoded to a wrong result: another codec's fragments,
two disagreeing copies of a shared symbol, a diagonal position, a
position listed twice in a plan, and evaluation points outside the field."""

import random

import numpy as np
import pytest

from regencodes import codec, mbr, rbt
from regencodes.errors import DecodeMismatch, DuplicateIndex, IndexOutOfRange, ParamsInvalid
from regencodes.fragments import fragment_symbol, fragment_symbols
from regencodes.gf import binary_field, prime_field
from regencodes.matrix import vandermonde
from regencodes.mbr import (
    mbr_extract_payloads,
    mbr_partial_plan,
    mbr_reconstruct_full,
    mbr_reconstruct_partial,
)
from regencodes.plans import DownloadPlan
from regencodes.psrs import eval_params
from regencodes.rbt import (
    rbt_partial_plan,
    rbt_reconstruct_full,
    rbt_reconstruct_partial,
)
from regencodes.shah import shah_reconstruct

F11 = prime_field(11)
F17 = prime_field(17)

# (codec of the params, codec of the fragments, field, n, k, d): the two
# codecs store fragments of the same length
SAME_SHAPE = [
    ("mbr-psrs", "mbr-vdm", F11, 6, 3, 4),
    ("mbr-vdm", "mbr-psrs", F11, 6, 3, 4),
    ("rbt", "rbt-sys", F11, 6, 3, None),
    ("rbt-sys", "rbt", F11, 6, 3, None),
    ("shah", "rbt", F17, 6, 3, None),
    ("rbt", "shah", F17, 6, 3, None),
]
FULL_READS = {"rbt": rbt_reconstruct_full, "mbr": mbr_reconstruct_full, "shah": shah_reconstruct}
READ_NODES = (1, 2, 4)


def _encoded(tag, field, n, k, d, seed=0):
    params = codec.params_for(tag, field, n, k, d)
    rng = random.Random(seed)
    u = [rng.randrange(field.q) for _ in range(params.B)]
    return params, u, {f.node: f for f in codec.encode(params, u)}


def _entries(tag):
    yield "full read", lambda p, f: FULL_READS[tag.split("-")[0]](p, [f[i] for i in READ_NODES])
    yield "codec.repair", lambda p, f: codec.repair(p, {i: f[i] for i in range(1, p.n)}, p.n)
    for scheme in codec.SCHEMES[tag]:
        yield f"codec.reconstruct {scheme}", (
            lambda p, f, scheme=scheme: codec.reconstruct(p, f, READ_NODES, scheme))


CASES = [pytest.param(case, entry, id=f"{case[0]}<-{case[1]}:{name}")
         for case in SAME_SHAPE for name, entry in _entries(case[0])]


@pytest.mark.parametrize("case,entry", CASES)
def test_fragments_of_another_codec_are_refused(case, entry):
    tag, other, field, n, k, d = case
    params = _encoded(tag, field, n, k, d)[0]
    _, _, frags = _encoded(other, field, n, k, d)
    with pytest.raises(ParamsInvalid, match=f"is {other}, params are {tag}"):
        entry(params, frags)


@pytest.mark.parametrize("case", SAME_SHAPE[::2])
def test_fragments_of_the_same_codec_pass_every_entry(case):
    tag, _, field, n, k, d = case
    params, u, frags = _encoded(tag, field, n, k, d)
    for name, entry in _entries(tag):
        out = entry(params, frags)
        result = out[0] if isinstance(out, tuple) else out
        assert result == u or result == frags[n], name


def _rbt_partial(plan_edit):
    """An rbt (6,3) GF(11) partial read from nodes 1, 2, 3 whose plan and
    payloads `plan_edit(positions, payloads)` changes in place."""
    params, u, frags = _encoded("rbt", F11, 6, 3, None)
    plan = rbt_partial_plan(params, [1, 2, 3])
    positions = [list(p) for p in plan.positions]
    payloads = [fragment_symbols(frags[node], pos) for node, pos in zip(plan.nodes, positions)]
    plan_edit(positions, payloads, frags)
    edited = DownloadPlan(plan.scheme, plan.nodes, tuple(map(tuple, positions)))
    return params, u, edited, payloads


def test_rbt_partial_read_checks_both_copies_of_a_shared_symbol():
    def both_copies(shift):
        def edit(positions, payloads, frags):
            # the plan has node 1 send the symbol it shares with node 2;
            # node 2 now sends its copy too
            assert 2 in positions[0] and 1 not in positions[1]
            copy = fragment_symbol(frags[2], 1)
            positions[1].insert(0, 1)
            payloads[1].insert(0, (copy + shift) % 11)
        return edit

    params, u, plan, payloads = _rbt_partial(both_copies(0))
    assert rbt_reconstruct_partial(params, plan, payloads) == u
    params, u, plan, payloads = _rbt_partial(both_copies(1))
    with pytest.raises(DecodeMismatch, match="nodes 1 and 2 disagree"):
        rbt_reconstruct_partial(params, plan, payloads)


def test_rbt_partial_read_refuses_a_diagonal_position():
    def diagonal(positions, payloads, frags):
        positions[0].insert(0, 1)
        payloads[0].insert(0, 5)

    params, _, plan, payloads = _rbt_partial(diagonal)
    with pytest.raises(IndexOutOfRange, match="node 1 does not store its diagonal zero"):
        rbt_reconstruct_partial(params, plan, payloads)


def test_a_position_listed_twice_is_refused():
    params, u, frags = _encoded("mbr-psrs", F11, 6, 3, 4)
    plan = mbr_partial_plan(params, [2, 4, 5], "lower")
    payloads = mbr_extract_payloads([frags[i] for i in plan.nodes], plan)
    assert mbr_reconstruct_partial(params, plan, payloads) == u
    first = plan.positions[0][0]
    positions = ((*plan.positions[0], first),) + plan.positions[1:]
    repeated = DownloadPlan(plan.scheme, plan.nodes, positions)
    wrong = (payloads[0][0] + 1) % 11
    with pytest.raises(DuplicateIndex, match=f"node 4: position {first} listed twice"):
        mbr_reconstruct_partial(params, repeated, [payloads[0] + [wrong]] + payloads[1:])
    with pytest.raises(DuplicateIndex):
        mbr_extract_payloads([frags[i] for i in plan.nodes], repeated)


@pytest.mark.parametrize("field,bad", [(F11, 2.7), (F11, "3"), (F11, -1), (F11, 12),
                                       (binary_field(4), 16)])
def test_evaluation_points_are_checked_where_they_enter(field, bad):
    points = (1, 2, 4, 5, 6, bad)
    with pytest.raises(ValueError):
        eval_params(field, 6, 3, 4, points=points)
    with pytest.raises(ValueError):
        vandermonde(field, 6, 3, points=points)


def test_explicit_points_still_build_the_same_code():
    points = (3, 1, 4, 5, 9, 2)
    assert eval_params(F11, 6, 3, 4, points=np.array(points)).points == points
    assert vandermonde(F11, 6, 3, points=list(points)).tolist() == [
        [1, p, p * p % 11] for p in points]


def test_point_arrays_are_built_once_and_read_only():
    rparams = codec.params_for("rbt-sys", binary_field(8), 32, 16)
    mparams = codec.params_for("mbr-psrs", binary_field(8), 64, 32, 48)
    for points, params in ((rbt._sys_points, rparams), (mbr._psrs_points, mparams)):
        assert points(params) is points(params)
        assert not points(params).flags.writeable
