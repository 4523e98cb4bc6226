import pytest

from regencodes import codec
from regencodes.errors import ReconstructionMismatch, ScriptInvalid
from regencodes.fragments import Fragment
from regencodes.gf import binary_field, prime_field
from regencodes.harness.simulator import sim_run
from regencodes.mbr import MbrParams
from regencodes.rbt import RbtParams
from regencodes.shah import ShahParams

F7 = prime_field(7)


def test_empty_script():
    report, state = sim_run(MbrParams(F7, 6, 3, 4), "")
    assert report.events == [] and state.message is None


def test_rbt_scenario_repair_costs_zero():
    params = RbtParams(F7, 6, 3)
    script = """
    # basic failure and recovery
    encode
    fail 3
    repair 3
    reconstruct 1, 2, 4  # full download
    """.replace(", ", ",")
    report, state = sim_run(params, script)
    repair = report.events_of("repair")[0]
    assert repair.mul == 0 and repair.add == 0
    assert repair.symbols == params.n - 1
    recon = report.events_of("reconstruct")[0]
    assert recon.symbols == 3 * params.alpha
    assert state.nodes[3] == state.original[3]


def test_rbt_partial_scheme_transfers_B():
    params = RbtParams(F7, 6, 3)
    report, _ = sim_run(params, "encode\nreconstruct 1,3,5 scheme partial")
    ev = report.events_of("partial-reconstruct")[0]
    assert ev.symbols == params.B


def test_mbr_scenario_costs():
    params = MbrParams(F7, 6, 3, 4)
    script = (
        "encode\nfail 2\nrepair 2 with 1,3,4,5\n"
        "reconstruct 1,2,4 scheme lower\nreconstruct 1,2,4"
    )
    report, state = sim_run(params, script)
    repair = report.events_of("repair")[0]
    assert repair.symbols == params.d
    assert repair.per_node == {1: 1, 3: 1, 4: 1, 5: 1}
    partial = report.events_of("partial-reconstruct")[0]
    assert partial.symbols == params.B
    full = report.events_of("reconstruct")[0]
    assert full.symbols == params.k * params.d
    assert state.nodes[2] == state.original[2]


def test_mbr_timeshare_alternates_across_events():
    params = MbrParams(F7, 6, 3, 4)
    script = "encode\nreconstruct 1,2,4 scheme timeshare\nreconstruct 1,2,4 scheme timeshare"
    report, state = sim_run(params, script)
    first, second = report.events_of("partial-reconstruct")
    assert first.symbols == second.symbols == params.B
    # phase alternation balances traffic: over the two rounds every node
    # transmits 2d-(k-1) symbols
    for node in (1, 2, 4):
        assert first.per_node[node] + second.per_node[node] == 2 * params.d - (params.k - 1)


def test_shah_scenario():
    params = ShahParams(binary_field(6), 5, 3)
    report, _ = sim_run(params, "encode\nfail 1\nrepair 1\nreconstruct 2,3,5")
    repair = report.events_of("repair")[0]
    assert repair.mul == 0 and repair.add == 0 and repair.symbols == 4


def test_fixed_message():
    params = MbrParams(F7, 6, 3, 4)
    u = [1, 2, 3, 4, 5, 6, 0, 1, 2]
    _, state = sim_run(params, "encode", u=u)
    assert state.message == u


MBR7, RBT7 = MbrParams(F7, 6, 3, 4), RbtParams(F7, 6, 3)
SCRIPT_ERRORS = [  # (params, script, the ScriptInvalid message it gives)
    (MBR7, "fail 1", "line 1: encode must come first"),
    (MBR7, "encode\nfail 9", "line 2: no node 9"),
    (MBR7, "encode\nrepair 1", "line 2: node 1 has not failed"),
    (MBR7, "encode\nfly 1", "line 2: unknown command 'fly'"),
    (MBR7, "encode\nfail 1\nreconstruct 1,2,4", "line 3: node 1 unavailable"),
    (MBR7, "encode\nreconstruct 1,2,4 scheme bogus",
     "line 2: scheme 'bogus' not supported by codec mbr-psrs"),
    (MBR7, "encode\nreconstruct 1,2,4 scheme gong",
     "line 2: scheme 'gong' not supported by codec mbr-psrs"),
    (RBT7, "encode\nreconstruct 1,2,4 scheme gong",
     "line 2: scheme 'gong' not supported by codec rbt"),
    (MBR7, "encode x", "line 1: encode takes no arguments"),
    (MBR7, "encode\nencode", "line 2: message already encoded"),
    (MBR7, "encode\nfail 2\nfail 2", "line 3: node 2 already failed"),
    (MBR7, "encode\nfail 2\nrepair 2 using 1,3,4,5", r"line 3: expected 'repair i \[with h,h,...\]'"),
    (MBR7, "encode\nreconstruct 1,2,3 lower", r"line 2: expected 'reconstruct i,j,... \[scheme s\]'"),
    (MBR7, "encode\nreconstruct 1,2,3 mode lower", "line 2: expected 'scheme <name>'"),
    (MBR7, "encode\nfail x", "line 2: bad node 'x'"),
    (MBR7, "encode\nreconstruct 1,x,3", "line 2: bad node list '1,x,3'"),
    (MBR7, "encode\nfail", "line 2: expected 'fail <node>'"),
]


def test_script_errors():
    for params, script, match in SCRIPT_ERRORS:
        with pytest.raises(ScriptInvalid, match=match):
            sim_run(params, script)


def test_codec_error_annotated_with_event_index():
    from regencodes.errors import WrongFragmentCount

    params = MbrParams(F7, 6, 3, 4)
    with pytest.raises(WrongFragmentCount, match="event 1"):
        sim_run(params, "encode\nreconstruct 1,2,3,4")


def test_per_node_histogram():
    params = MbrParams(F7, 6, 3, 4)
    report, _ = sim_run(params, "encode\nreconstruct 1,2,4 scheme lower")
    hist = report.per_node_histogram()
    assert sum(hist.values()) == params.B


def test_rbt_repair_with_wrong_helper_set_is_annotated():
    from regencodes.errors import WrongHelperCount

    params = RbtParams(F7, 6, 3)
    with pytest.raises(WrongHelperCount, match="event 2"):
        sim_run(params, "encode\nfail 4\nrepair 4 with 1,2")


def test_repair_with_unavailable_helper_is_script_error():
    params = MbrParams(F7, 6, 3, 4)
    with pytest.raises(ScriptInvalid, match="helper 2 unavailable"):
        sim_run(params, "encode\nfail 1\nfail 2\nrepair 1 with 2,3,4,5")
    with pytest.raises(ScriptInvalid, match="helper 9 unavailable"):
        sim_run(params, "encode\nfail 1\nrepair 1 with 2,3,4,9")


def test_a_wrong_repair_or_read_is_a_reconstruction_mismatch(monkeypatch):
    # one symbol altered in what the codec returns: the simulator compares
    # against the encoded fragments and message, and names the event
    params = RbtParams(F7, 6, 3)
    real_repair, real_reconstruct = codec.repair, codec.reconstruct

    def repair(*args, **kwargs):
        frag, sent = real_repair(*args, **kwargs)
        symbols = [(frag.symbols[0] + 1) % 7, *frag.symbols[1:]]
        return Fragment(frag.codec, frag.node, symbols), sent

    def reconstruct(*args, **kwargs):
        u, sent = real_reconstruct(*args, **kwargs)
        return [(u[0] + 1) % 7] + u[1:], sent

    monkeypatch.setattr(codec, "repair", repair)
    with pytest.raises(ReconstructionMismatch,
                       match=r"^event 2 \(line 3\): repair of node 4 altered the fragment"):
        sim_run(params, "encode\nfail 4\nrepair 4")
    monkeypatch.setattr(codec, "repair", real_repair)
    monkeypatch.setattr(codec, "reconstruct", reconstruct)
    with pytest.raises(ReconstructionMismatch, match=r"^event 1 \(line 2\): reconstruction "
                                                     r"from \[1, 2, 3\] does not match"):
        sim_run(params, "encode\nreconstruct 1,2,3")
