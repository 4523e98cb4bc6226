"""Codec-selection behaviour shared by the CLI and the simulator.

Both front ends accept the same (codec, scheme) pairs, reject the same
parameter sets, and write the same fragments for the same message.
"""

import pytest

from regencodes.errors import ScriptInvalid
from regencodes.fragments import CODEC_TAGS
from regencodes.gf import binary_field, prime_field
from regencodes.harness.cli import main
from regencodes.harness.fragio import read_fragment, read_message, write_message
from regencodes.harness.simulator import sim_run
from regencodes.mbr import MbrParams
from regencodes.rbt import RbtParams
from regencodes.shah import ShahParams

F11 = prime_field(11)
F64 = binary_field(6)
N, K, D = 6, 3, 4

PARAMS = {
    "rbt": RbtParams(F11, N, K),
    "rbt-sys": RbtParams(F11, N, K, systematic=True),
    "mbr-psrs": MbrParams(F11, N, K, D),
    "mbr-vdm": MbrParams(F11, N, K, D, backend="vandermonde"),
    "shah": ShahParams(F64, N, K),
}
FIELD_SPECS = {"shah": "binary:6"}
SUPPORTED = {
    "rbt": ("full", "partial"),
    "rbt-sys": ("full", "partial"),
    "mbr-psrs": ("full", "lower", "upper", "timeshare"),
    "mbr-vdm": ("full", "lower", "upper", "timeshare"),
    "shah": ("full",),
}
REMOVED = "gong"  # ran upper's read; no codec lists it, so every codec refuses it
ALL_SCHEMES = ("full", "partial", "lower", "upper", "timeshare", REMOVED)
UNSUPPORTED = [(tag, s) for tag in CODEC_TAGS for s in ALL_SCHEMES if s not in SUPPORTED[tag]]


def _message(tag):
    params = PARAMS[tag]
    return [(5 * i + 2) % params.field.q for i in range(params.B)]


def _encode_args(tmp_path, tag, d=None):
    params = PARAMS[tag]
    msg = tmp_path / "msg.bin"
    write_message(msg, params.field, _message(tag))
    args = ["encode", str(msg), "--codec", tag, "--n", str(N), "--k", str(K),
            "--field", FIELD_SPECS.get(tag, "prime:11"), "--out-dir", str(tmp_path / "frags")]
    if d is not None:
        args += ["--d", str(d)]
    return args


def _cli_encode(tmp_path, tag):
    d = D if tag.startswith("mbr") else None
    assert main(_encode_args(tmp_path, tag, d)) == 0
    return tmp_path / "frags"


@pytest.mark.parametrize("tag", ["rbt", "rbt-sys", "shah"])
def test_cli_rejects_d_other_than_n_minus_1(tmp_path, capsys, tag):
    assert main(_encode_args(tmp_path, tag, d=N - 2)) == 1
    assert capsys.readouterr().err.startswith("ERROR ParamsInvalid")


@pytest.mark.parametrize("tag", ["rbt", "rbt-sys", "shah"])
def test_cli_accepts_d_equal_n_minus_1(tmp_path, tag):
    assert main(_encode_args(tmp_path, tag, d=N - 1)) == 0


@pytest.mark.parametrize("tag", ["mbr-psrs", "mbr-vdm"])
def test_cli_mbr_requires_d(tmp_path, capsys, tag):
    assert main(_encode_args(tmp_path, tag)) == 1
    assert capsys.readouterr().err.startswith("ERROR ParamsInvalid")


@pytest.mark.parametrize("tag,scheme", UNSUPPORTED, ids=lambda v: str(v))
def test_cli_rejects_unsupported_scheme(tmp_path, capsys, tag, scheme):
    frags = _cli_encode(tmp_path, tag)
    capsys.readouterr()
    args = ["reconstruct", "--nodes", "1,2,3", "--scheme", scheme,
            "--frags", str(frags), "--out", str(tmp_path / "out.bin")]
    if scheme == REMOVED:  # not a --scheme choice: a usage error
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert "invalid choice: 'gong'" in capsys.readouterr().err
    else:
        assert main(args) == 1
        assert capsys.readouterr().err.startswith("ERROR ParamsInvalid")
    assert not (tmp_path / "out.bin").exists()


@pytest.mark.parametrize("tag,scheme", UNSUPPORTED, ids=lambda v: str(v))
def test_sim_rejects_unsupported_scheme(tag, scheme):
    with pytest.raises(ScriptInvalid):
        sim_run(PARAMS[tag], f"encode\nreconstruct 1,2,3 scheme {scheme}")


@pytest.mark.parametrize("tag", CODEC_TAGS)
def test_cli_fragments_match_simulator(tmp_path, tag):
    frags = _cli_encode(tmp_path, tag)
    written = {}
    for path in sorted(frags.glob("*.rgc")):
        _, n, k, d, frag = read_fragment(path)
        assert (n, k, d) == (N, K, PARAMS[tag].d)
        written[frag.node] = frag
    _, state = sim_run(PARAMS[tag], "encode", u=_message(tag))
    assert written == state.original


@pytest.mark.parametrize("tag", CODEC_TAGS)
def test_cli_and_simulator_agree_on_every_supported_scheme(tmp_path, tag):
    params = PARAMS[tag]
    frags = _cli_encode(tmp_path, tag)
    u = _message(tag)
    script = ["encode"]
    for scheme in SUPPORTED[tag]:
        out = tmp_path / f"{scheme}.bin"
        assert main(["reconstruct", "--nodes", "1,2,4", "--scheme", scheme,
                     "--frags", str(frags), "--out", str(out)]) == 0
        assert read_message(out, params.field, params.B) == u
        script.append(f"reconstruct 1,2,4 scheme {scheme}")
    report, _ = sim_run(params, "\n".join(script), u=u)
    assert len(report.events) == len(script)
