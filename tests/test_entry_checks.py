"""Every value that enters the library from a caller is range-checked once,
where it enters: a symbol >= q, a negative one or one too wide for int64
raises ValueError, never a bare OverflowError or IndexError, and is never
silently folded into the field."""

import random

import numpy as np
import pytest

from regencodes import codec
from regencodes.counting import OpCounter
from regencodes.errors import (
    DecodeMismatch,
    DuplicateHelper,
    IndexOutOfRange,
    InsufficientSymbols,
    WrongMessageLength,
)
from regencodes.fragments import Fragment, fragment_symbol, fragment_symbols, stored_position
from regencodes.gf import binary_field, fermat_field, ntt_interpolate, prime_field
from regencodes.matrix import FieldMatrix
from regencodes.mbr import (
    MbrParams,
    mbr_encode,
    mbr_encode_columns,
    mbr_extract_payloads,
    mbr_helper_response,
    mbr_partial_plan,
    mbr_reconstruct_full,
    mbr_reconstruct_partial,
    mbr_repair,
    psi_row,
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
    genpoly_params,
)
from regencodes.rbt import (
    RbtParams,
    extract_payloads,
    rbt_encode,
    rbt_encode_systematic,
    rbt_partial_plan,
    rbt_reconstruct_full,
    rbt_reconstruct_partial,
    rbt_repair,
    source_block,
)
from regencodes.shah import ShahParams, shah_encode, shah_reconstruct

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


WIDE = 2**70  # too wide for int64


def bad_values(field):
    return (field.q, WIDE, -1)


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
        if bad == WIDE:  # no int64 array holds it: refused where the fragment is built
            with pytest.raises(ValueError, match=RANGE):
                corrupt(chosen[1], index, bad)
            continue
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


TRANSFER_REPAIRS = [pytest.param(p, id=p.codec) for p in RBT + [ShahParams(F11, 5, 3)]]


@pytest.mark.parametrize("params", TRANSFER_REPAIRS)
def test_transfer_repair_rejects_response_outside_field(params):
    frags = encoded(params)
    for bad in (99,) + bad_values(params.field):
        responses = [(j, fragment_symbol(frags[j - 1], 1)) for j in range(2, params.n + 1)]
        responses[0] = (2, bad)
        with pytest.raises(ValueError, match=RANGE):
            rbt_repair(params, responses, 1)


@pytest.mark.parametrize("params", TRANSFER_REPAIRS)
def test_transfer_repair_rejects_a_helper_listed_twice(params):
    # helper 2 listed once more, and listed in place of helper n
    frags = encoded(params)
    responses = [(j, fragment_symbol(frags[j - 1], 1)) for j in range(2, params.n + 1)]
    for listed in (responses + responses[:1], responses[:1] + responses[:-1]):
        with pytest.raises(DuplicateHelper, match="duplicate helper"):
            rbt_repair(params, listed, 1)


@pytest.mark.parametrize("field", [F7, binary_field(3)], ids=repr)
def test_helper_response_rejects_symbol_outside_field(field):
    params = MbrParams(field, 6, 3, 4)
    frags = encoded(params)
    row = psi_row(params, 1)
    for bad in (9,) + bad_values(field):
        if bad == WIDE:  # refused where the fragment is built, as for full reads
            with pytest.raises(ValueError, match=RANGE):
                corrupt(frags[1], 0, bad)
            continue
        helper = corrupt(frags[1], 0, bad)
        with pytest.raises(ValueError, match=RANGE):
            mbr_helper_response(helper, row, field)
        with pytest.raises(ValueError, match=RANGE):
            codec.repair(params, {f.node: f for f in [helper] + frags[2:5]}, 1)


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
        payloads = extract_payloads(cw.fragments(), plan)
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


@pytest.mark.parametrize("field", [F7, binary_field(4)], ids=repr)
def test_psrs_symbols_checked_where_they_enter(field):
    # a symbol outside the field must not be reduced or wrap around: over
    # GF(2^4) a b of (-1,) could put -13 into a genpoly codeword and a
    # symbol -1 read as 15, and over GF(7) b = (8,) could read as 1
    ev, gp = eval_params(field, 6, 3, 4), genpoly_params(field, 6, 3, 4)
    msg = PsrsMessage((1, 2, 3), (4,))
    codewords = {ev: encode_eval(ev, msg), gp: encode_genpoly(gp, msg)}
    for bad in bad_values(field) + (field.q + 1,):
        for params, encode in ((ev, encode_eval), (gp, encode_genpoly)):
            for bad_msg in (PsrsMessage((1, bad, 3), (4,)), PsrsMessage((1, 2, 3), (bad,))):
                with pytest.raises(ValueError, match=RANGE):
                    encode(params, bad_msg)
        for params, full, partial, first in ((ev, decode_full_eval, decode_partial_eval, 1),
                                             (gp, decode_full_genpoly, decode_partial_genpoly, 0)):
            pairs = [(pos + first, v) for pos, v in enumerate(codewords[params])]
            wrong = pairs[:4]
            wrong[1] = (wrong[1][0], bad)
            with pytest.raises(ValueError, match=RANGE):
                full(params, wrong)
            with pytest.raises(ValueError, match=RANGE):
                partial(params, wrong, msg.b)
            with pytest.raises(ValueError, match=RANGE):
                partial(params, pairs, (bad,))


def _with_last(values, bad):
    values = list(values)
    values[-1] = bad
    return values


def _block_with(bad):
    params = RBT[1]
    rows = source_block(params, message(params)).tolist()
    rows[0][4] = bad  # an entry of U_R
    return rows


NON_INTEGER_ENTRIES = {
    "mbr_encode": lambda bad: mbr_encode(MBR[0], _with_last(message(MBR[0]), bad)),
    "rbt_encode": lambda bad: rbt_encode(RBT[0], _with_last(message(RBT[0]), bad)),
    "rbt_encode_systematic": lambda bad: rbt_encode_systematic(RBT[1], _block_with(bad)),
    "shah_encode": lambda bad: shah_encode(ShahParams(F11, 5, 3),
                                           _with_last(message(ShahParams(F11, 5, 3)), bad)),
    "mbr_repair": lambda bad: mbr_repair(MBR[0], [(2, 1), (3, 0), (4, bad), (5, 0)], 1),
    "encode_eval": lambda bad: encode_eval(eval_params(F7, 6, 3, 4), PsrsMessage((1, bad, 3), (4,))),
    "decode_full_genpoly": lambda bad: decode_full_genpoly(genpoly_params(F7, 6, 3, 4),
                                                           [(0, 1), (1, bad), (2, 0), (3, 0)]),
    "ntt_interpolate": lambda bad: ntt_interpolate(fermat_field(), [bad]),
    "Field.varray": lambda bad: F7.varray([[1, 2], [bad, 0]]),
    "Field.check": lambda bad: F7.check(bad),
}


@pytest.mark.parametrize("entry", sorted(NON_INTEGER_ENTRIES))
@pytest.mark.parametrize("bad", [2.5, 3.0, "3", np.float64(2.0)], ids=repr)
def test_non_integer_symbols_are_refused(entry, bad):
    # numpy would truncate a float and parse a digit string; Fragment refuses both too
    with pytest.raises(ValueError):
        NON_INTEGER_ENTRIES[entry](bad)


@pytest.mark.parametrize("entry", [rbt_encode_systematic], ids=lambda f: f.__name__)
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
    assert np.array_equal(rbt_encode_systematic(params, block.tolist()).check,
                          rbt_encode_systematic(params, block).check)


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
    with pytest.raises(ValueError, match=RANGE):
        Fragment("rbt", 1, (WIDE, 3))
    frag = Fragment("rbt", 1, (np.int64(2), np.uint8(3)))
    assert frag.symbols.dtype == np.int64 and frag.symbols.tolist() == [2, 3]


def test_fragment_refuses_a_bad_tag_node_or_shape():
    for args, match in ((("mds", 1, (1, 2)), "unknown codec tag 'mds'"),
                        (("rbt", 0, (1, 2)), "node index 0 must be >= 1"),
                        (("rbt", 1, [[1, 2], [3, 4]]), r"flat sequence, got shape \(2, 2\)")):
        with pytest.raises(ValueError, match=match):
            Fragment(*args)


def test_fragment_symbol_refuses_its_own_and_outside_columns():
    frag = Fragment("rbt", 2, (5, 6, 7))  # n = 4: node 2 stores columns 1, 3 and 4
    assert [fragment_symbol(frag, c) for c in (1, 3, 4)] == [5, 6, 7]
    for column, match in ((2, "node 2 does not store its diagonal zero"),
                          (0, r"node 0 outside \[1, 4\]"), (5, r"node 5 outside \[1, 4\]")):
        with pytest.raises(IndexOutOfRange, match=match):
            fragment_symbol(frag, column)
        with pytest.raises(IndexOutOfRange, match=match):  # the list gather's fallback
            fragment_symbols(frag, [1, column])


def test_fragment_refuses_non_integer_node():
    # a float node was once stored as given; a full read then failed on it
    # with a bare IndexError
    params = MbrParams(F11, 6, 3, 4)
    frags = encoded(params)
    for bad in (4.0, "4", None):
        with pytest.raises(ValueError):
            Fragment(params.codec, bad, frags[3].symbols)
    frag = Fragment(params.codec, np.int64(4), frags[3].symbols)
    assert type(frag.node) is int and frag == frags[3]
    assert mbr_reconstruct_full(params, [frags[0], frags[1], frag]) == message(params)


def test_fragments_from_any_int_sequence_are_equal_and_hash_equal():
    values = [3, 0, 10, 4]
    built = [Fragment("rbt", 2, tuple(values)), Fragment("rbt", 2, values),
             Fragment("rbt", 2, np.array(values, dtype=np.uint8))]
    for frag in built:
        assert frag == built[0] and hash(frag) == hash(built[0])
    assert len({built[0], built[1], built[2]}) == 1
    assert Fragment("rbt", 2, values[:3]) != built[0]
    assert Fragment("rbt", 3, values) != built[0]
    assert Fragment("shah", 2, values) != built[0]
    assert Fragment("rbt", 2, [3, 0, 10, 5]) != built[0]
    assert built[0] != tuple(values)


def test_fragment_symbols_are_read_only():
    source = np.array([1, 2, 3])
    frag = Fragment("rbt", 1, source)
    source[0] = 9  # the fragment holds its own copy
    assert frag.symbols.tolist() == [1, 2, 3]
    with pytest.raises(ValueError):
        frag.symbols[0] = 4
    assert source.flags.writeable


def test_codec_built_fragments_are_read_only():
    produced = []
    for params in RBT + MBR + [ShahParams(F11, 5, 3)]:
        frags = encoded(params)
        produced += frags
        if isinstance(params, MbrParams):
            produced.append(codec.repair(params, {f.node: f for f in frags}, 1)[0])
        elif isinstance(params, RbtParams):
            responses = [(j, fragment_symbol(frags[j - 1], 1)) for j in range(2, params.n + 1)]
            produced.append(rbt_repair(params, responses, 1))
    produced += mbr_encode_columns(MBR[0], message(MBR[0]))
    for frag in produced:
        assert frag.symbols.dtype == np.int64 and frag.symbols.ndim == 1
        with pytest.raises(ValueError):
            frag.symbols[0] = 1
    frag = encoded(RBT[0])[0]
    assert type(fragment_symbol(frag, 2)) is int
