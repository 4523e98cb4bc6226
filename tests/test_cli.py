import pytest

from regencodes.errors import ParamsInvalid
from regencodes.gf import binary_field, prime_field
from regencodes.harness.cli import main, parse_field
from regencodes.harness.fragio import read_message, write_message


def run(argv, capsys=None):
    return main(argv)


def test_parse_field():
    assert parse_field("prime:7") is prime_field(7)
    assert parse_field("binary:4") is binary_field(4)
    assert parse_field("fermat").kind == "fermat"
    with pytest.raises(ParamsInvalid):
        parse_field("gf:7")
    with pytest.raises(ParamsInvalid):
        parse_field("prime:x")


def encode_round_trip(tmp_path, codec, field_spec, n, k, d, scheme):
    field = parse_field(field_spec)
    # message of exactly B symbols
    if codec in ("rbt", "rbt-sys", "shah"):
        B = (n - 1) * k - k * (k - 1) // 2
    else:
        B = k * (k + 1) // 2 + k * (d - k)
    u = [(3 * i + 1) % field.q for i in range(B)]
    msg = tmp_path / "msg.bin"
    out = tmp_path / "out.bin"
    frags = tmp_path / "frags"
    write_message(msg, field, u)
    args = ["encode", str(msg), "--codec", codec, "--n", str(n), "--k", str(k),
            "--field", field_spec, "--out-dir", str(frags)]
    if codec.startswith("mbr"):
        args += ["--d", str(d)]
    assert run(args) == 0
    # lose a node, repair it from the rest
    (frags / "frag_0002.rgc").unlink()
    assert run(["repair", "--failed", "2", "--frags", str(frags)]) == 0
    nodes = ",".join(str(i) for i in range(1, k + 1))
    assert run(["reconstruct", "--nodes", nodes, "--scheme", scheme,
                "--frags", str(frags), "--out", str(out)]) == 0
    assert out.read_bytes() == msg.read_bytes()
    assert read_message(out, field, B) == u


def test_cli_round_trip_mbr_gf7(tmp_path):
    encode_round_trip(tmp_path, "mbr-psrs", "prime:7", 6, 3, 4, "full")


def test_cli_round_trip_mbr_lower(tmp_path):
    encode_round_trip(tmp_path, "mbr-psrs", "prime:7", 6, 3, 4, "lower")


def test_cli_round_trip_mbr_vdm_gong(tmp_path):
    encode_round_trip(tmp_path, "mbr-vdm", "prime:11", 7, 3, 5, "gong")


def test_cli_round_trip_rbt_partial(tmp_path):
    encode_round_trip(tmp_path, "rbt", "binary:4", 8, 3, None, "partial")


def test_cli_round_trip_rbt_sys(tmp_path):
    encode_round_trip(tmp_path, "rbt-sys", "prime:11", 6, 3, None, "full")


def test_cli_round_trip_shah(tmp_path):
    encode_round_trip(tmp_path, "shah", "binary:6", 5, 3, None, "full")


def test_cli_insufficient_fragments_exit1(tmp_path, capsys):
    field = parse_field("prime:7")
    msg = tmp_path / "msg.bin"
    write_message(msg, field, [1, 2, 3, 4, 5, 6, 0, 1, 2])
    frags = tmp_path / "frags"
    run(["encode", str(msg), "--codec", "mbr-psrs", "--n", "6", "--k", "3",
         "--d", "4", "--field", "prime:7", "--out-dir", str(frags)])
    code = run(["reconstruct", "--nodes", "1,2", "--frags", str(frags),
                "--out", str(tmp_path / "o.bin")])
    assert code == 1
    assert "ERROR InsufficientSymbols" in capsys.readouterr().err


def test_cli_wrong_message_length_exit1(tmp_path, capsys):
    msg = tmp_path / "msg.bin"
    msg.write_bytes(b"\x01\x02")  # 2 symbols, B=9 needed
    code = run(["encode", str(msg), "--codec", "mbr-psrs", "--n", "6", "--k", "3",
                "--d", "4", "--field", "prime:7", "--out-dir", str(tmp_path / "f")])
    assert code == 1
    assert "ERROR WrongMessageLength" in capsys.readouterr().err


def test_cli_usage_error_exit2():
    with pytest.raises(SystemExit) as exc:
        main(["encode"])  # missing required args
    assert exc.value.code == 2


def test_cli_bench_writes_csv(tmp_path):
    report = tmp_path / "bench.csv"
    assert run(["bench", "--family", "rbt-vs-shah", "--sizes", "8,12",
                "--field", "binary:16", "--report", str(report)]) == 0
    lines = report.read_text().splitlines()
    assert lines[0] == "n,contender,multiplications,additions,symbols"
    assert len(lines) == 5


def test_cli_selftest_exit0():
    assert run(["selftest"]) == 0


def test_cli_round_trip_mbr_upper(tmp_path):
    encode_round_trip(tmp_path, "mbr-psrs", "prime:11", 8, 3, 5, "upper")


def test_cli_round_trip_mbr_timeshare(tmp_path):
    # one-shot timeshare uses the first (lower) phase
    encode_round_trip(tmp_path, "mbr-psrs", "fermat", 6, 3, 4, "timeshare")


def test_cli_scheme_codec_mismatch(tmp_path, capsys):
    field = parse_field("prime:7")
    msg = tmp_path / "msg.bin"
    write_message(msg, field, [1, 2, 3, 4, 5, 6, 0, 1, 2])
    frags = tmp_path / "frags"
    run(["encode", str(msg), "--codec", "mbr-psrs", "--n", "6", "--k", "3",
         "--d", "4", "--field", "prime:7", "--out-dir", str(frags)])
    code = run(["reconstruct", "--nodes", "1,2,4", "--scheme", "gong",
                "--frags", str(frags), "--out", str(tmp_path / "o.bin")])
    assert code == 1
    assert "ERROR SchemeBackendMismatch" in capsys.readouterr().err


def _encode_gf7(tmp_path):
    msg = tmp_path / "msg.bin"
    write_message(msg, parse_field("prime:7"), [1, 2, 3, 4, 5, 6, 0, 1, 2])
    frags = tmp_path / "frags"
    assert run(["encode", str(msg), "--codec", "mbr-psrs", "--n", "6", "--k", "3",
                "--d", "4", "--field", "prime:7", "--out-dir", str(frags)]) == 0
    return frags


def test_cli_message_symbol_out_of_field_exit1(tmp_path, capsys):
    msg = tmp_path / "msg.bin"
    msg.write_bytes(bytes([1, 2, 3, 4, 5, 6, 7, 1, 2]))  # 7 is not in GF(7)
    code = run(["encode", str(msg), "--codec", "mbr-psrs", "--n", "6", "--k", "3",
                "--d", "4", "--field", "prime:7", "--out-dir", str(tmp_path / "f")])
    assert code == 1
    assert "ERROR ParamsInvalid" in capsys.readouterr().err


@pytest.mark.parametrize("offset,value", [(-1, b"\x07"), (16, b"\x00\x00")],
                         ids=["symbol-out-of-field", "node-0-header"])
def test_cli_malformed_fragment_file_exit1(tmp_path, capsys, offset, value):
    # the damaged file is not among the --nodes read, yet it is refused
    frags = _encode_gf7(tmp_path)
    path = frags / "frag_0006.rgc"
    raw = bytearray(path.read_bytes())
    raw[offset:offset + len(value) or None] = value
    path.write_bytes(bytes(raw))
    code = run(["reconstruct", "--nodes", "1,2,4", "--frags", str(frags),
                "--out", str(tmp_path / "o.bin")])
    assert code == 1
    assert "ERROR ParamsInvalid" in capsys.readouterr().err


@pytest.mark.parametrize("codec", ["rbt", "shah"])
def test_cli_repair_node_outside_range_exit1(tmp_path, capsys, codec):
    msg = tmp_path / "msg.bin"
    write_message(msg, binary_field(6), list(range(12)))  # B = 12 at (6, 3)
    frags = tmp_path / "frags"
    assert run(["encode", str(msg), "--codec", codec, "--n", "6", "--k", "3",
                "--field", "binary:6", "--out-dir", str(frags)]) == 0
    assert run(["repair", "--failed", "7", "--frags", str(frags)]) == 1
    assert "ERROR IndexOutOfRange" in capsys.readouterr().err
