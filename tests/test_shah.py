import itertools
import random

import pytest

from regencodes.counting import OpCounter
from regencodes.errors import FieldTooSmall, IndexOutOfRange, WrongHelperCount
from regencodes.fragments import Fragment, fragment_symbol
from regencodes.gf import binary_field, prime_field
from regencodes.shah import (
    ShahParams,
    helper_repair_packet,
    shah_encode,
    shah_reconstruct,
    shah_repair,
)

F64 = binary_field(6)
P5 = ShahParams(F64, 5, 3)  # N=10 packets on K_5, B=9


def rand_message(params, rng):
    return [rng.randrange(params.field.q) for _ in range(params.B)]


def test_params_and_field_bound():
    assert P5.N == 10 and P5.B == 9 and P5.alpha == 4
    with pytest.raises(FieldTooSmall):
        ShahParams(binary_field(3), 8, 4)  # C(8,2)=28 > 9


def distinct_codeword(params, rng):
    """Fragments whose N packets all differ, so a packet is known by its value."""
    while True:
        frags = shah_encode(params, rand_message(params, rng))
        if len({v for f in frags for v in f.symbols}) == params.N:
            return frags


def edge_packets(frags):
    """Packets in lexicographic edge order, read off the fragments."""
    n = len(frags)
    return [fragment_symbol(frags[i - 1], j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def test_edge_layout_k5():
    frags = distinct_codeword(P5, random.Random(3))
    assert all(len(f.symbols) == 4 for f in frags)
    # every packet appears in exactly two stores
    counts = {}
    for f in frags:
        for v in f.symbols:
            counts[v] = counts.get(v, 0) + 1
    assert sorted(counts) == sorted(edge_packets(frags))
    assert set(counts.values()) == {2}


def test_encode_zero_and_packet_duplication():
    frags = shah_encode(P5, [0] * 9)
    assert all(set(f.symbols) == {0} for f in frags)
    rng = random.Random(0)
    u = rand_message(P5, rng)
    frags = shah_encode(P5, u)
    for i in range(1, 6):
        for j in range(1, 6):
            if i != j:  # both copies of edge (i, j) agree
                assert fragment_symbol(frags[i - 1], j) == fragment_symbol(frags[j - 1], i)
    # systematic form: first B packets are the message itself
    assert edge_packets(frags)[: P5.B] == u


def test_encode_counts_parity_product():
    c = OpCounter()
    shah_encode(P5, [1] * 9, counter=c)
    assert c.mul == (P5.N - P5.B) * P5.B


def test_repair_round_trip_zero_ops():
    rng = random.Random(1)
    u = rand_message(P5, rng)
    frags = {f.node: f for f in shah_encode(P5, u)}
    for failed in range(1, 6):
        counter = OpCounter()
        responses = [
            (i, helper_repair_packet(P5, frags[i], failed)) for i in frags if i != failed
        ]
        got = shah_repair(P5, responses, failed, counter)
        assert got == frags[failed]
        assert counter.mul == 0 and counter.add == 0


def test_repair_wrong_helper_count():
    frags = {f.node: f for f in shah_encode(P5, [1] * 9)}
    with pytest.raises(WrongHelperCount):
        shah_repair(P5, [(1, 0), (2, 0)], 5)


def test_distinct_packet_count_is_B():
    rng = random.Random(4)
    for n in range(2, 9):
        for k in range(1, n):
            params = ShahParams(binary_field(8), n, k)
            frags = distinct_codeword(params, rng)
            for subset in itertools.combinations(range(1, n + 1), k):
                held = {v for i in subset for v in frags[i - 1].symbols}
                assert len(held) == params.B


def test_reconstruct_exhaustive():
    rng = random.Random(2)
    for _ in range(10):
        u = rand_message(P5, rng)
        frags = shah_encode(P5, u)
        for subset in itertools.combinations(range(1, 6), 3):
            got = shah_reconstruct(P5, [frags[i - 1] for i in subset])
            assert got == u


def test_reconstruct_zero():
    frags = shah_encode(P5, [0] * 9)
    assert shah_reconstruct(P5, [frags[1], frags[2], frags[4]]) == [0] * 9


def test_full_rate_no_parity():
    # k = n-1 gives B = N: parity block is empty and encode is the identity
    params = ShahParams(prime_field(11), 4, 3)
    assert params.B == params.N == 6
    u = [1, 2, 3, 4, 5, 6]
    frags = shah_encode(params, u)
    got = shah_reconstruct(params, frags[:3])
    assert got == u


def test_reconstruct_node_outside_range():
    frags = shah_encode(P5, [1] * 9)
    stray = Fragment("shah", 7, frags[0].symbols)
    with pytest.raises(IndexOutOfRange):
        shah_reconstruct(P5, [stray, frags[1], frags[2]])
