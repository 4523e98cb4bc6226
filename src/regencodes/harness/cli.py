"""Command-line interface.

Subcommands: encode, repair, reconstruct, bench, selftest.  Exit codes:
0 success, 1 codec error (one machine-parsable `ERROR <Code>: ...` line
on stderr), 2 usage error.

Field specs are `prime:<p>`, `binary:<m>` or `fermat`.  Fragment files
are named frag_<node>.rgc inside the fragment directory.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .. import codec
from ..errors import InsufficientSymbols, ParamsInvalid, RegenError
from ..fragments import CODEC_TAGS
from ..gf import Field, field_new
from .bench import FAMILIES, bench_compare, report_to_csv
from .fragio import read_fragment, read_message, write_fragment, write_message
from .selftest import run_selftest


def parse_field(spec: str) -> Field:
    parts = spec.split(":")
    if parts[0] == "fermat" and len(parts) == 1:
        return field_new("fermat")
    if len(parts) == 2 and parts[0] in ("prime", "binary"):
        try:
            return field_new(parts[0], int(parts[1]))
        except ValueError:
            pass
    raise ParamsInvalid(f"bad field spec {spec!r}; use prime:<p>, binary:<m> or fermat")


def _frag_path(out_dir: Path, node: int) -> Path:
    return out_dir / f"frag_{node:04d}.rgc"


def _load_fragments(frags_dir: Path):
    """Read every fragment file in a directory; headers must agree."""
    paths = sorted(frags_dir.glob("*.rgc"))
    if not paths:
        raise InsufficientSymbols(f"no fragment files in {frags_dir}")
    meta = None
    frags = {}
    for path in paths:
        field, n, k, d, frag = read_fragment(path)
        header = (frag.codec, field, n, k, d)
        if meta is None:
            meta = header
        elif meta != header:
            raise ParamsInvalid(f"{path}: header disagrees with other fragments")
        frags[frag.node] = frag
    tag, field, n, k, d = meta
    return codec.params_for(tag, field, n, k, d), field, (n, k, d), frags


def _cmd_encode(args) -> int:
    field = parse_field(args.field)
    params = codec.params_for(args.codec, field, args.n, args.k, args.d)
    u = read_message(args.message, field, params.B)
    frags = codec.encode(params, u)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    n, k, d = params.n, params.k, params.d
    for frag in frags:
        write_fragment(_frag_path(out_dir, frag.node), field, n, k, d, frag)
    print(f"encoded B={params.B} symbols into {len(frags)} fragments under {out_dir}")
    return 0


def _cmd_repair(args) -> int:
    frags_dir = Path(args.frags)
    params, field, (n, k, d), frags = _load_fragments(frags_dir)
    frag, per_node = codec.repair(params, frags, args.failed)
    write_fragment(_frag_path(frags_dir, args.failed), field, n, k, d, frag)
    print(f"repaired node {args.failed} from {len(per_node)} helpers")
    return 0


def _cmd_reconstruct(args) -> int:
    frags_dir = Path(args.frags)
    params, field, _, frags = _load_fragments(frags_dir)
    nodes = [int(t) for t in args.nodes.split(",") if t]
    missing = [i for i in nodes if i not in frags]
    if missing:
        raise InsufficientSymbols(f"fragments missing for nodes {missing}")
    # a one-shot reconstruction uses the first time-sharing phase
    u, _ = codec.reconstruct(params, frags, nodes, args.scheme)
    write_message(args.out, field, u)
    print(f"reconstructed B={len(u)} symbols from nodes {nodes} (scheme {args.scheme})")
    return 0


def _cmd_bench(args) -> int:
    field = parse_field(args.field)
    sizes = [int(t) for t in args.sizes.split(",") if t]
    report = bench_compare(args.family, sizes, field)
    csv = report_to_csv(report)
    Path(args.report).write_text(csv)
    sys.stdout.write(csv)
    return 0


def _cmd_selftest(_args) -> int:
    return 0 if run_selftest() else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="regencodes",
                                 description="regenerating-code toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="encode a message file into fragment files")
    enc.add_argument("message", help="raw little-endian message file of exactly B symbols")
    enc.add_argument("--codec", required=True, choices=CODEC_TAGS)
    enc.add_argument("--n", required=True, type=int)
    enc.add_argument("--k", required=True, type=int)
    enc.add_argument("--d", type=int, default=None)
    enc.add_argument("--field", required=True)
    enc.add_argument("--out-dir", required=True)
    enc.set_defaults(func=_cmd_encode)

    rep = sub.add_parser("repair", help="regenerate one node's fragment file")
    rep.add_argument("--failed", required=True, type=int)
    rep.add_argument("--frags", required=True)
    rep.set_defaults(func=_cmd_repair)

    rec = sub.add_parser("reconstruct", help="rebuild the message from fragments")
    rec.add_argument("--nodes", required=True)
    schemes = dict.fromkeys(s for row in codec.SCHEMES.values() for s in row)
    rec.add_argument("--scheme", default="full", choices=list(schemes))
    rec.add_argument("--frags", required=True)
    rec.add_argument("--out", required=True)
    rec.set_defaults(func=_cmd_reconstruct)

    ben = sub.add_parser("bench", help="operation-count comparison sweep")
    ben.add_argument("--family", required=True, choices=FAMILIES)
    ben.add_argument("--sizes", required=True, help="comma-separated n values")
    ben.add_argument("--field", required=True)
    ben.add_argument("--report", required=True, help="CSV output path")
    ben.set_defaults(func=_cmd_bench)

    st = sub.add_parser("selftest", help="run the built-in invariant suites")
    st.set_defaults(func=_cmd_selftest)
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RegenError as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"ERROR FileNotFound: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
