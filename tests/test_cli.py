from pathlib import Path

import pytest

from regencodes.errors import ParamsInvalid
from regencodes.gf import binary_field, prime_field
from regencodes.harness import cli
from regencodes.harness.cli import build_parser, main, parse_field
from regencodes.harness.fragio import read_fragment, read_message, write_message


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


def encode_files(tmp_path, codec, field_spec, n, k, d):
    """Encode a message of exactly B symbols through the CLI; returns it and
    the paths of the message file and the fragment directory."""
    field = parse_field(field_spec)
    if codec in ("rbt", "rbt-sys", "shah"):
        B = (n - 1) * k - k * (k - 1) // 2
    else:
        B = k * (k + 1) // 2 + k * (d - k)
    u = [(3 * i + 1) % field.q for i in range(B)]
    msg = tmp_path / "msg.bin"
    frags = tmp_path / "frags"
    write_message(msg, field, u)
    args = ["encode", str(msg), "--codec", codec, "--n", str(n), "--k", str(k),
            "--field", field_spec, "--out-dir", str(frags)]
    if codec.startswith("mbr"):
        args += ["--d", str(d)]
    assert run(args) == 0
    return u, msg, frags


def encode_round_trip(tmp_path, codec, field_spec, n, k, d, scheme):
    u, msg, frags = encode_files(tmp_path, codec, field_spec, n, k, d)
    out = tmp_path / "out.bin"
    # lose a node, repair it from the rest
    (frags / "frag_0002.rgc").unlink()
    assert run(["repair", "--failed", "2", "--frags", str(frags)]) == 0
    nodes = ",".join(str(i) for i in range(1, k + 1))
    assert run(["reconstruct", "--nodes", nodes, "--scheme", scheme,
                "--frags", str(frags), "--out", str(out)]) == 0
    assert out.read_bytes() == msg.read_bytes()
    assert read_message(out, parse_field(field_spec), len(u)) == u


def test_cli_round_trip_mbr_gf7(tmp_path):
    encode_round_trip(tmp_path, "mbr-psrs", "prime:7", 6, 3, 4, "full")


def test_cli_round_trip_mbr_lower(tmp_path):
    encode_round_trip(tmp_path, "mbr-psrs", "prime:7", 6, 3, 4, "lower")


def test_cli_round_trip_mbr_vdm_upper(tmp_path):
    encode_round_trip(tmp_path, "mbr-vdm", "prime:11", 7, 3, 5, "upper")


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


def test_cli_missing_message_file_exit1(tmp_path, capsys):
    out = tmp_path / "f"
    code = run(["encode", str(tmp_path / "absent.bin"), "--codec", "mbr-psrs", "--n", "6",
                "--k", "3", "--d", "4", "--field", "prime:7", "--out-dir", str(out)])
    assert code == 1
    assert "ERROR FileNotFound" in capsys.readouterr().err
    assert not out.exists()


def test_cli_fragments_of_two_encodes_exit1(tmp_path, capsys):
    # same codec, field, n and d, but k = 3 and k = 2: the same file size
    frags = encode_files(tmp_path, "mbr-psrs", "prime:7", 6, 3, 4)[2]
    other = tmp_path / "other"
    other.mkdir()
    other = encode_files(other, "mbr-psrs", "prime:7", 6, 2, 4)[2]
    (other / "frag_0002.rgc").replace(frags / "frag_0002.rgc")
    code = run(["reconstruct", "--nodes", "1,2,3", "--frags", str(frags),
                "--out", str(tmp_path / "o.bin")])
    assert code == 1
    err = capsys.readouterr().err
    assert "ERROR ParamsInvalid" in err and "header disagrees with other fragments" in err


def test_cli_usage_error_exit2():
    with pytest.raises(SystemExit) as exc:
        main(["encode"])  # missing required args
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["reconstruct", "--nodes", "1,x,3", "--frags", "frags", "--out", "out.bin"],
    ["bench", "--family", "rbt-vs-shah", "--sizes", "4,y", "--field", "prime:7",
     "--report", "bench.csv"],
], ids=["nodes", "sizes"])
def test_cli_bad_int_list_is_usage_error_exit2(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "not a comma-separated list of ints" in err and "ERROR" not in err
    assert list(tmp_path.iterdir()) == []


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
    code = run(["reconstruct", "--nodes", "1,2,4", "--scheme", "partial",
                "--frags", str(frags), "--out", str(tmp_path / "o.bin")])
    assert code == 1
    assert "ERROR ParamsInvalid" in capsys.readouterr().err
    # a scheme no codec lists is a usage error
    with pytest.raises(SystemExit) as exc:
        run(["reconstruct", "--nodes", "1,2,4", "--scheme", "gong",
             "--frags", str(frags), "--out", str(tmp_path / "o.bin")])
    assert exc.value.code == 2


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


def _damage(path, offset, value):
    raw = bytearray(path.read_bytes())
    raw[offset:offset + len(value) or None] = value
    path.write_bytes(bytes(raw))


DAMAGE = pytest.mark.parametrize("offset,value", [(-1, b"\x07"), (16, b"\x00\x00")],
                                 ids=["symbol-out-of-field", "node-0-header"])


@DAMAGE
def test_cli_malformed_fragment_file_exit1(tmp_path, capsys, offset, value):
    # node 4 is among the --nodes read, and among the d = 4 helpers 1, 3, 4, 5
    # of node 2
    frags = _encode_gf7(tmp_path)
    _damage(frags / "frag_0004.rgc", offset, value)
    code = run(["reconstruct", "--nodes", "1,2,4", "--frags", str(frags),
                "--out", str(tmp_path / "o.bin")])
    assert code == 1
    assert "ERROR ParamsInvalid" in capsys.readouterr().err
    (frags / "frag_0002.rgc").unlink()
    assert run(["repair", "--failed", "2", "--frags", str(frags)]) == 1
    assert "ERROR ParamsInvalid" in capsys.readouterr().err
    assert not (frags / "frag_0002.rgc").exists()


@DAMAGE
def test_cli_damaged_file_a_command_does_not_use_exit0(tmp_path, offset, value):
    # node 6 is neither among the --nodes read nor among the helpers of node 2
    frags = _encode_gf7(tmp_path)
    _damage(frags / "frag_0006.rgc", offset, value)
    out = tmp_path / "o.bin"
    assert run(["reconstruct", "--nodes", "1,2,4", "--frags", str(frags),
                "--out", str(out)]) == 0
    assert out.read_bytes() == (tmp_path / "msg.bin").read_bytes()
    lost = frags / "frag_0002.rgc"
    original = lost.read_bytes()
    lost.unlink()
    assert run(["repair", "--failed", "2", "--frags", str(frags)]) == 0
    assert lost.read_bytes() == original


def test_cli_header_node_must_match_file_name(tmp_path, capsys):
    frags = _encode_gf7(tmp_path)
    (frags / "frag_0004.rgc").replace(frags / "frag_0003.rgc")  # its header names node 4
    code = run(["reconstruct", "--nodes", "1,2,3", "--frags", str(frags),
                "--out", str(tmp_path / "o.bin")])
    assert code == 1
    assert "ERROR ParamsInvalid" in capsys.readouterr().err
    # the helpers of node 2 are now 1, 3, 5, 6
    assert run(["repair", "--failed", "2", "--frags", str(frags)]) == 1
    assert "ERROR ParamsInvalid" in capsys.readouterr().err


def test_cli_missing_nodes_file_exit1(tmp_path, capsys):
    frags = _encode_gf7(tmp_path)
    (frags / "frag_0004.rgc").unlink()
    (frags / "frag_0005.rgc").unlink()
    code = run(["reconstruct", "--nodes", "4,1,5", "--frags", str(frags),
                "--out", str(tmp_path / "o.bin")])
    assert code == 1
    assert "ERROR InsufficientSymbols: fragments missing for nodes [4, 5]" in \
        capsys.readouterr().err


def test_cli_fragment_directory_forms(tmp_path, monkeypatch, capsys):
    # an empty directory argument names the current directory
    monkeypatch.chdir(tmp_path)
    write_message("msg.bin", parse_field("prime:7"), [1, 2, 3, 4, 5, 6, 0, 1, 2])
    assert run(["encode", "msg.bin", "--codec", "mbr-psrs", "--n", "6", "--k", "3",
                "--d", "4", "--field", "prime:7", "--out-dir", ""]) == 0
    original = (tmp_path / "frag_0002.rgc").read_bytes()
    (tmp_path / "frag_0002.rgc").unlink()
    assert run(["repair", "--failed", "2", "--frags", ""]) == 0
    assert (tmp_path / "frag_0002.rgc").read_bytes() == original
    assert run(["reconstruct", "--nodes", "1,2,3", "--frags", "", "--out", "o.bin"]) == 0
    assert (tmp_path / "o.bin").read_bytes() == (tmp_path / "msg.bin").read_bytes()
    # a directory that cannot be listed holds no fragment files
    capsys.readouterr()
    for frags in ("missing", "msg.bin"):
        assert run(["repair", "--failed", "2", "--frags", frags]) == 1
        assert f"ERROR InsufficientSymbols: no fragment files to read in {frags}" in \
            capsys.readouterr().err


READ_CASES = [("rbt", "binary:4", 8, 3, None), ("rbt-sys", "prime:11", 6, 3, None),
              ("shah", "binary:6", 5, 3, None), ("mbr-psrs", "prime:7", 6, 3, 4),
              ("mbr-vdm", "prime:11", 7, 3, 5)]


@pytest.mark.parametrize("codec,field_spec,n,k,d", READ_CASES, ids=[c[0] for c in READ_CASES])
def test_cli_opens_only_the_files_it_uses(tmp_path, monkeypatch, codec, field_spec, n, k, d):
    opened = []

    def spy(path):
        opened.append(Path(path).name)
        return read_fragment(path)

    monkeypatch.setattr(cli, "read_fragment", spy)
    _, msg, frags = encode_files(tmp_path, codec, field_spec, n, k, d)
    (frags / "frag_0002.rgc").unlink()
    assert run(["repair", "--failed", "2", "--frags", str(frags)]) == 0
    # n-1 helpers for the transfer codecs, the first d present nodes for mbr
    helpers = [1] + list(range(3, n + 1))
    assert opened == [f"frag_{i:04d}.rgc" for i in helpers[:d or n - 1]]
    opened.clear()
    nodes = list(range(n, n - k, -1))
    out = tmp_path / "out.bin"
    assert run(["reconstruct", "--nodes", ",".join(map(str, nodes)),
                "--frags", str(frags), "--out", str(out)]) == 0
    assert opened == [f"frag_{i:04d}.rgc" for i in nodes]
    assert out.read_bytes() == msg.read_bytes()


def test_cli_parser_is_built_once_and_reused(tmp_path):
    assert build_parser() is build_parser()
    written = []
    for r in range(2):
        work = tmp_path / f"round{r}"
        work.mkdir()
        _, msg, frags = encode_files(work, "mbr-psrs", "prime:7", 6, 3, 4)
        with pytest.raises(SystemExit) as exc:
            main(["repair", "--failed", "2"])  # missing --frags
        assert exc.value.code == 2
        (frags / "frag_0002.rgc").unlink()
        assert run(["repair", "--failed", "2", "--frags", str(frags)]) == 0
        out = work / "out.bin"
        assert run(["reconstruct", "--nodes", "2,4,6", "--scheme", "lower",
                    "--frags", str(frags), "--out", str(out)]) == 0
        assert out.read_bytes() == msg.read_bytes()
        written.append({p.relative_to(work): p.read_bytes()
                        for p in work.rglob("*") if p.is_file()})
    assert written[0] == written[1]


@pytest.mark.parametrize("codec", ["rbt", "shah"])
def test_cli_repair_node_outside_range_exit1(tmp_path, capsys, codec):
    msg = tmp_path / "msg.bin"
    write_message(msg, binary_field(6), list(range(12)))  # B = 12 at (6, 3)
    frags = tmp_path / "frags"
    assert run(["encode", str(msg), "--codec", codec, "--n", "6", "--k", "3",
                "--field", "binary:6", "--out-dir", str(frags)]) == 0
    assert run(["repair", "--failed", "7", "--frags", str(frags)]) == 1
    assert "ERROR IndexOutOfRange" in capsys.readouterr().err
