"""Every value that enters the library from a caller is range-checked once,
where it enters: a symbol >= q, a negative one or one too wide for int64
raises ValueError, never a bare OverflowError or IndexError, and is never
silently folded into the field."""

import random

import numpy as np
import pytest

from regencodes.counting import OpCounter
from regencodes.errors import DecodeMismatch, InsufficientSymbols, WrongMessageLength
from regencodes.fragments import Fragment, fragment_symbol, stored_position
from regencodes.gf import binary_field, fermat_field, prime_field
from regencodes.matrix import FieldMatrix
from regencodes.mbr import (
    MbrParams,
    mbr_encode,
    mbr_extract_payloads,
    mbr_helper_response,
    mbr_partial_plan,
    mbr_reconstruct_full,
    mbr_reconstruct_partial,
    mbr_repair,
    psi_row,
    repair_from_fragments,
)
from regencodes.psrs import PsrsMessage, encode_genpoly, genpoly_params, solve_full_genpoly_linear
from regencodes.rbt import (
    RbtParams,
    extract_payloads,
    rbt_encode,
    rbt_encode_systematic,
    rbt_partial_plan,
    rbt_reconstruct_full,
    rbt_reconstruct_partial,
    rbt_repair,
    remapped_message,
    source_block,
)
from regencodes.shah import ShahParams, shah_encode, shah_reconstruct, shah_repair

F7 = prime_field(7)
F11 = prime_field(11)
RANGE = "array values outside field range"


def message(params, seed=0):
    rng = random.Random(seed)
    return [rng.randrange(params.field.q) for _ in range(params.B)]


def corrupt(frag, index, value):
    symbols = list(frag.symbols)
    symbols[index] = value
    return Fragment(frag.codec, frag.node, tuple(symbols))


def bad_values(field):
    return (field.q, 2**70, -1)


RBT = [RbtParams(F11, 6, 3), RbtParams(F11, 6, 3, systematic=True)]
MBR = [MbrParams(F7, 6, 3, 4), MbrParams(F7, 6, 3, 4, backend="vandermonde")]


def encoded(params):
    if isinstance(params, RbtParams):
        return rbt_encode(params, message(params)).fragments()
    if isinstance(params, MbrParams):
        return mbr_encode(params, message(params))
    return shah_encode(params, message(params))


READS = [pytest.param(p, read, id=p.codec) for p, read in
         [(p, rbt_reconstruct_full) for p in RBT] + [(p, mbr_reconstruct_full) for p in MBR]
         + [(ShahParams(F11, 5, 3), shah_reconstruct)]]


@pytest.mark.parametrize("params, read", READS)
@pytest.mark.parametrize("nodes", [(2, 4, 5), (1, 2, 3)], ids=["general", "systematic"])
@pytest.mark.parametrize("index", [0, -1], ids=["first", "last"])
def test_full_read_rejects_symbol_outside_field(params, read, nodes, index):
    frags = encoded(params)
    for bad in bad_values(params.field):
        chosen = [frags[i - 1] for i in nodes]
        chosen[1] = corrupt(chosen[1], index, bad)
        with pytest.raises(ValueError, match=RANGE):
            read(params, chosen, OpCounter())


def test_shah_read_checks_a_shared_packet_a_later_node_also_holds():
    # node 1's first packet is the edge (1, 2), which node 2 holds too
    params = ShahParams(F11, 5, 3)
    frags = encoded(params)
    chosen = [corrupt(frags[0], 0, 13), frags[1], frags[2]]
    with pytest.raises(ValueError, match=RANGE):
        shah_reconstruct(params, chosen)


TRANSFER_READS = [pytest.param(p, read, id=p.codec) for p, read in
                  [(p, rbt_reconstruct_full) for p in RBT]
                  + [(ShahParams(F11, 5, 3), shah_reconstruct)]]


@pytest.mark.parametrize("params, read", TRANSFER_READS)
@pytest.mark.parametrize("nodes", [(2, 4, 5), (1, 2, 3), (3, 1, 2)],
                         ids=["general", "systematic", "unsorted"])
def test_full_read_refuses_copies_of_a_shared_symbol_that_disagree(params, read, nodes):
    # the second node's copy of the symbol it shares with the first, still in the field
    frags = encoded(params)
    chosen = [frags[i - 1] for i in nodes]
    pos = stored_position(nodes[1], nodes[0])
    chosen[1] = corrupt(chosen[1], pos, (chosen[1].symbols[pos] + 1) % params.field.q)
    counter = OpCounter()
    with pytest.raises(DecodeMismatch, match=f"nodes {nodes[0]} and {nodes[1]} disagree"):
        read(params, chosen, counter)
    assert (counter.mul, counter.add) == (0, 0)


TRANSFER_REPAIRS = [pytest.param(p, repair, id=p.codec) for p, repair in
                    [(p, rbt_repair) for p in RBT] + [(ShahParams(F11, 5, 3), shah_repair)]]


@pytest.mark.parametrize("params, repair", TRANSFER_REPAIRS)
def test_transfer_repair_rejects_response_outside_field(params, repair):
    frags = encoded(params)
    for bad in (99,) + bad_values(params.field):
        responses = [(j, fragment_symbol(frags[j - 1], 1)) for j in range(2, params.n + 1)]
        responses[0] = (2, bad)
        counter = OpCounter()
        with pytest.raises(ValueError, match=RANGE):
            repair(params, responses, 1, counter)
        assert (counter.mul, counter.add) == (0, 0)


@pytest.mark.parametrize("field", [F7, binary_field(3)], ids=repr)
def test_helper_response_rejects_symbol_outside_field(field):
    params = MbrParams(field, 6, 3, 4)
    frags = encoded(params)
    row = psi_row(params, 1)
    for bad in (9,) + bad_values(field):
        helper = corrupt(frags[1], 0, bad)
        with pytest.raises(ValueError, match=RANGE):
            mbr_helper_response(helper, row, field)
        with pytest.raises(ValueError, match=RANGE):
            repair_from_fragments(params, [helper] + frags[2:5], 1)


@pytest.mark.parametrize("field", [F7, binary_field(8), fermat_field()], ids=repr)
def test_helper_response_matches_scalar_loop(field):
    params = MbrParams(field, 7, 3, 5)
    frags = encoded(params)
    for failed in (1, 7):
        row = psi_row(params, failed)
        for frag in frags:
            want = 0
            for a, b in zip(frag.symbols, row):
                want = field.add(want, field.mul(a, b))
            counter = OpCounter()
            got = mbr_helper_response(frag, row, field, counter)
            assert got == want and type(got) is int
            assert (counter.mul, counter.add) == (5, 4)


@pytest.mark.parametrize("params", MBR, ids=lambda p: p.codec)
def test_mbr_repair_rejects_response_outside_field(params):
    for bad in bad_values(params.field):
        responses = [(2, bad), (3, 0), (4, 0), (5, 0)]
        with pytest.raises(ValueError, match=RANGE):
            mbr_repair(params, responses, 1)


@pytest.mark.parametrize("params", RBT, ids=lambda p: p.codec)
def test_rbt_partial_read_rejects_payload_outside_field(params):
    cw = rbt_encode(params, message(params))
    plan = rbt_partial_plan(params, [1, 2, 3])
    for bad in bad_values(params.field):
        payloads = extract_payloads(cw, plan)
        payloads[0][0] = bad
        with pytest.raises(ValueError, match=RANGE):
            rbt_reconstruct_partial(params, plan, payloads)


@pytest.mark.parametrize("params", MBR, ids=lambda p: p.codec)
def test_mbr_partial_read_rejects_payload_outside_field(params):
    frags = encoded(params)
    plan = mbr_partial_plan(params, [1, 2, 4], "lower")
    for bad in bad_values(params.field):
        payloads = mbr_extract_payloads(frags, plan)
        payloads[-1][-1] = bad
        with pytest.raises(ValueError, match=RANGE):
            mbr_reconstruct_partial(params, plan, payloads)


def test_linear_oracle_rejects_value_outside_field():
    params = genpoly_params(F7, 6, 3, 4)
    c = encode_genpoly(params, PsrsMessage((1, 2, 3), (4,)))
    for bad in bad_values(F7):
        pairs = [(t, c[t]) for t in range(4)]
        pairs[2] = (2, bad)
        with pytest.raises(ValueError, match=RANGE):
            solve_full_genpoly_linear(params, pairs)


@pytest.mark.parametrize("entry", [rbt_encode_systematic, remapped_message],
                         ids=lambda f: f.__name__)
def test_source_block_checked_where_it_enters(entry):
    params = RbtParams(F11, 6, 3, systematic=True)
    block = source_block(params, message(params)).tolist()
    for bad in bad_values(F11):
        rows = [list(r) for r in block]
        rows[0][4] = bad  # an entry of U_R
        with pytest.raises(ValueError, match=RANGE):
            entry(params, rows)
    for shape in ((2, 6), (3, 5), (18,)):
        with pytest.raises(WrongMessageLength):
            entry(params, np.zeros(shape, dtype=np.int64))


def test_source_block_as_list_encodes_like_the_array():
    params = RbtParams(F11, 6, 3, systematic=True)
    block = source_block(params, message(params))
    assert rbt_encode_systematic(params, block.tolist()).check == \
        rbt_encode_systematic(params, block).check
    assert remapped_message(params, block.tolist()) == remapped_message(params, block)


def test_message_symbols_checked_where_they_enter():
    for params in RBT + MBR + [ShahParams(F11, 5, 3)]:
        for bad in bad_values(params.field):
            u = message(params)
            u[-1] = bad
            with pytest.raises(ValueError, match=RANGE):
                if isinstance(params, RbtParams):
                    rbt_encode(params, u)
                elif isinstance(params, MbrParams):
                    mbr_encode(params, u)
                else:
                    shah_encode(params, u)


def test_public_field_matrix_checks_its_values():
    for bad in bad_values(F11):
        with pytest.raises(ValueError, match=RANGE):
            FieldMatrix(F11, [[0, 1], [bad, 0]])
        with pytest.raises(ValueError, match=RANGE):
            FieldMatrix(F11, np.array([[0, 1], [min(bad, 2**62), 0]]))


def test_extract_payloads_names_a_planned_node_without_fragment():
    params = MbrParams(F7, 6, 3, 4)
    frags = encoded(params)
    plan = mbr_partial_plan(params, [1, 2, 4], "lower")
    with pytest.raises(InsufficientSymbols, match="node 4"):
        mbr_extract_payloads(frags[:2], plan)


def test_fragment_refuses_non_integer_symbols():
    with pytest.raises(ValueError):
        Fragment("rbt", 1, (2.7, 3))
    with pytest.raises(ValueError):
        Fragment("rbt", 1, ("3",))
    frag = Fragment("rbt", 1, (np.int64(2), np.uint8(3)))
    assert frag.symbols == (2, 3)
    assert all(type(s) is int for s in frag.symbols)
