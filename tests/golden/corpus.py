"""The golden corpus: the outputs and counted operations of the codec seam,
the two README `bench` sweeps and the CLI files, at small params.

`corpus.txt` holds one `# <codec> <field> (n,k,d)` header per parameter
set, then one `key = value` line per call:

- every tag's encoding, over a prime and a binary field, plus mbr-psrs
  over GF(65537) with ntt=True (whose column-wise encoding is listed too);
- every repair: each failed node from each ascending helper set;
- every read: each k-subset, ascending and in one shuffled order, with
  each scheme of `codec.SCHEMES` and both time-sharing phases.

A value is a digest of the output, the exact (mul, add) and the symbols
each node sent as sorted (node, count) pairs; a call that raises gives
its error instead.  `rbt.csv` and `ntt.csv` are the README sweeps, and
the `cli` entries hold the bytes of the fragment and message files of
one message per tag.

`tests/test_golden.py` rebuilds the corpus and names the first entry
that differs.  When a change to the outputs or counts is intended,
rewrite the corpus from the repository root with

    PYTHONPATH=src python tests/golden/corpus.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from itertools import combinations
from pathlib import Path
from random import Random

from regencodes import codec
from regencodes.counting import OpCounter
from regencodes.errors import RegenError
from regencodes.harness import cli
from regencodes.harness.bench import bench_compare, report_to_csv
from regencodes.harness.fragio import write_message
from regencodes.mbr import MbrParams, mbr_encode_columns

HERE = Path(__file__).resolve().parent

# (tag, field spec, n, k, d); rbt with n = q+1 and mbr-vdm with n = q
# reach the point at infinity and the point 0
CASES = (
    ("rbt", "prime:5", 6, 3, None),
    ("rbt", "binary:3", 6, 3, None),
    ("rbt-sys", "prime:7", 6, 3, None),
    ("rbt-sys", "binary:2", 5, 3, None),
    ("mbr-psrs", "prime:7", 6, 3, 4),
    ("mbr-psrs", "binary:3", 7, 3, 5),
    ("mbr-vdm", "prime:7", 7, 3, 4),
    ("mbr-vdm", "binary:3", 8, 3, 5),
    ("shah", "prime:11", 5, 3, None),
    ("shah", "binary:4", 5, 3, None),
)
NTT_CASE = ("mbr-psrs", "fermat", 8, 3, 5)

# the README sweeps: file name -> (family, sizes, field spec)
SWEEPS = {
    "rbt.csv": ("rbt-vs-shah", (8, 12, 16, 20, 24, 28, 32), "binary:16"),
    "ntt.csv": ("mbr-naive-vs-ntt", (32, 64, 128, 256, 512), "fermat"),
}


def _digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()[:12]


def _result(call) -> str:
    """Digest, (mul, add) and sorted (node, count) pairs of one seam call,
    or the error it raises."""
    counter = OpCounter()
    try:
        out, sent = call(counter)
    except RegenError as exc:
        return f"{type(exc).__name__}: {exc}"
    pairs = " ".join(f"{node}:{count}" for node, count in sorted(sent.items()))
    return f"{_digest(out)} {counter.mul},{counter.add} {pairs}".rstrip()


def _params(tag, spec, n, k, d, ntt=False):
    if ntt:
        return MbrParams(cli.parse_field(spec), n, k, d, ntt=True)
    return codec.params_for(tag, cli.parse_field(spec), n, k, d)


def _symbols(frags) -> list[list[int]]:
    return [frag.symbols.tolist() for frag in frags]


def codec_entries(case, ntt=False):
    """The header and the (key, value) of every seam call at one parameter set."""
    params = _params(*case, ntt=ntt)
    name = f"{params.codec} {params.field!r} ({params.n},{params.k},{params.d})"
    if ntt:
        name += " ntt"
    rng = Random(name)
    u = [rng.randrange(params.field.q) for _ in range(params.B)]
    yield f"# {name}", None
    yield "encode", _result(lambda c: (_symbols(codec.encode(params, u, c)), {}))
    if ntt:
        yield "encode_columns", _result(
            lambda c: (_symbols(mbr_encode_columns(params, u, c)), {}))
    by_node = {frag.node: frag for frag in codec.encode(params, u)}
    everyone = range(1, params.n + 1)
    for failed in everyone:
        others = [i for i in everyone if i != failed]
        for helpers in combinations(others, params.d):
            yield (f"repair {failed} from {','.join(map(str, helpers))}", _result(
                lambda c: _fragment(codec.repair(params, by_node, failed, helpers, c))))
    for subset in combinations(everyone, params.k):
        shuffled = list(subset)
        rng.shuffle(shuffled)
        for nodes in dict.fromkeys((subset, tuple(shuffled))):
            for scheme in codec.SCHEMES[params.codec]:
                for phase in (0, 1) if scheme == "timeshare" else (0,):
                    key = f"read {scheme}{phase if scheme == 'timeshare' else ''}"
                    yield (f"{key} {','.join(map(str, nodes))}", _result(
                        lambda c: codec.reconstruct(params, by_node, list(nodes), scheme, c,
                                                    phase)))


def _fragment(result):
    frag, sent = result
    return (frag.node, frag.symbols.tolist()), sent


def cli_entries(case, workdir: Path):
    """(key, value) of the CLI files of one message: the fragments, node 1
    rebuilt by `repair`, and the message each scheme reconstructs."""
    tag, spec, n, k, d = case
    params = _params(*case)
    name = f"cli {tag} {spec} ({n},{k},{d})"
    yield f"# {name}", None
    out = workdir / f"{tag}-{spec.replace(':', '')}"
    out.mkdir()
    msg = out / "msg.bin"
    rng = Random(name)
    write_message(msg, params.field, [rng.randrange(params.field.q) for _ in range(params.B)])
    frags = out / "frags"

    def run(*argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main([str(a) for a in argv])

    size = ["--n", n, "--k", k] + (["--d", d] if d is not None else [])
    code = run("encode", msg, "--codec", tag, *size, "--field", spec, "--out-dir", frags)
    yield "message", msg.read_bytes().hex()
    yield "encode exit", str(code)
    for path in sorted(frags.iterdir()):
        yield path.name, path.read_bytes().hex()
    first = frags / "frag_0001.rgc"
    before = first.read_bytes()
    first.unlink()
    code = run("repair", "--failed", 1, "--frags", frags)
    yield "repair 1 exit", str(code)
    yield "repair 1 same", str(first.read_bytes() == before)
    nodes = ",".join(map(str, [n, *range(k - 1, 0, -1)]))
    for scheme in codec.SCHEMES[tag]:
        result = out / f"out-{scheme}.bin"
        code = run("reconstruct", "--nodes", nodes, "--scheme", scheme, "--frags", frags,
                   "--out", result)
        data = result.read_bytes().hex() if result.exists() else "-"
        yield f"reconstruct {scheme} {nodes}", f"{code} {data}"


def build(workdir: Path) -> dict[str, str]:
    """File name -> text of every corpus file."""
    lines = []
    for case in CASES:
        lines += codec_entries(case)
    lines += codec_entries(NTT_CASE, ntt=True)
    for case in CASES[::2]:
        lines += cli_entries(case, workdir)
    files = {"corpus.txt": "".join(f"{key} = {value}\n" if value is not None else f"{key}\n"
                                   for key, value in lines)}
    for file, (family, sizes, spec) in SWEEPS.items():
        files[file] = report_to_csv(bench_compare(family, sizes, cli.parse_field(spec)))
    return files


def first_difference(workdir: Path) -> str | None:
    """Where the rebuilt corpus first departs from the stored one, or None."""
    for file, text in build(workdir).items():
        path = HERE / file
        stored = path.read_text().splitlines() if path.exists() else []
        built = text.splitlines()
        section = ""
        for i, (old, new) in enumerate(zip(stored, built), start=1):
            if old.startswith("# "):
                section = f" ({old[2:]})"
            if old != new:
                return f"{file} line {i}{section}:\n  stored: {old}\n  built:  {new}"
        if len(stored) != len(built):
            return f"{file}: {len(stored)} lines stored, {len(built)} built"
    return None


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for file, text in build(Path(tmp)).items():
            (HERE / file).write_text(text)
            print(f"wrote {HERE / file}")


if __name__ == "__main__":
    sys.exit(main())
