"""Command-line interface.

Subcommands: encode, repair, reconstruct, bench, selftest.  Exit codes:
0 success, 1 codec error (one machine-parsable `ERROR <Code>: ...` line
on stderr), 2 usage error.

Field specs are `prime:<p>`, `binary:<m>` or `fermat`.  Fragment files
are named frag_<node>.rgc inside the fragment directory, and each file's
header must name the node of its file name.  `reconstruct` opens only
the files of its --nodes, and `repair` only those of its helpers: every
other node for rbt and shah, the first d present nodes for mbr.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import lru_cache

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


def _int_list(text: str) -> list[int]:
    """Comma-separated ints, empty items skipped: the type of --nodes and --sizes."""
    try:
        return [int(t) for t in text.split(",") if t]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of ints: {text!r}") from None


def _frag_name(node: int) -> str:
    return f"frag_{node:04d}.rgc"


def _directory(text: str) -> str:
    """The type of --out-dir and --frags: empty names the current directory."""
    return text or os.curdir


def _frag_path(frags_dir: str, node: int) -> str:
    return f"{frags_dir}/{_frag_name(node)}"


def _listed_nodes(frags_dir: str) -> list[int]:
    """Nodes that have a frag_<node>.rgc file in the directory, ascending;
    none when the directory cannot be listed."""
    try:
        with os.scandir(frags_dir) as entries:
            names = [entry.name for entry in entries]
    except (FileNotFoundError, NotADirectoryError, PermissionError):
        return []
    nodes = []
    for name in names:
        digits = name[5:-4]
        if digits.isdecimal() and name == _frag_name(int(digits)):
            nodes.append(int(digits))
    return sorted(nodes)


def _read_fragments(frags_dir: str, nodes: list[int]):
    """Yield (params, fragment) from the file of each node, in order.

    Only these files are opened.  Each header must name the node of its
    file and agree with the headers before it.
    """
    meta = None
    for node in nodes:
        path = _frag_path(frags_dir, node)
        try:
            field, n, k, d, frag = read_fragment(path)
        except FileNotFoundError:
            missing = [i for i in nodes if not os.path.isfile(_frag_path(frags_dir, i))]
            raise InsufficientSymbols(f"fragments missing for nodes {missing}") from None
        if frag.node != node:
            raise ParamsInvalid(f"{path}: header names node {frag.node}")
        header = (frag.codec, field, n, k, d)
        if meta is None:
            meta = header
            params = codec.params_for(*header)
        elif meta != header:
            raise ParamsInvalid(f"{path}: header disagrees with other fragments")
        yield params, frag
    if meta is None:
        raise InsufficientSymbols(f"no fragment files to read in {frags_dir}")


def _cmd_encode(args) -> int:
    field = parse_field(args.field)
    params = codec.params_for(args.codec, field, args.n, args.k, args.d)
    u = read_message(args.message, field, params.B)
    frags = codec.encode(params, u)
    out_dir = args.out_dir
    os.makedirs(out_dir, exist_ok=True)
    n, k, d = params.n, params.k, params.d
    for frag in frags:
        write_fragment(_frag_path(out_dir, frag.node), field, n, k, d, frag)
    print(f"encoded B={params.B} symbols into {len(frags)} fragments under {out_dir}")
    return 0


def _cmd_repair(args) -> int:
    frags_dir = args.frags
    others = [i for i in _listed_nodes(frags_dir) if i != args.failed]
    frags = {}
    for params, frag in _read_fragments(frags_dir, others):
        frags[frag.node] = frag
        if len(frags) == params.d:
            break  # the helpers codec.repair picks: the first d other nodes
    frag, per_node = codec.repair(params, frags, args.failed)
    write_fragment(_frag_path(frags_dir, args.failed), params.field,
                   params.n, params.k, params.d, frag)
    print(f"repaired node {args.failed} from {len(per_node)} helpers")
    return 0


def _cmd_reconstruct(args) -> int:
    nodes = args.nodes
    frags = {}
    for params, frag in _read_fragments(args.frags, list(dict.fromkeys(nodes))):
        frags[frag.node] = frag
    # a one-shot reconstruction uses the first time-sharing phase
    u, _ = codec.reconstruct(params, frags, nodes, args.scheme)
    write_message(args.out, params.field, u)
    print(f"reconstructed B={len(u)} symbols from nodes {nodes} (scheme {args.scheme})")
    return 0


def _cmd_bench(args) -> int:
    field = parse_field(args.field)
    report = bench_compare(args.family, args.sizes, field)
    csv = report_to_csv(report)
    with open(args.report, "w") as f:
        f.write(csv)
    sys.stdout.write(csv)
    return 0


def _cmd_selftest(_args) -> int:
    return 0 if run_selftest() else 1


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
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
    enc.add_argument("--out-dir", required=True, type=_directory)
    enc.set_defaults(func=_cmd_encode)

    rep = sub.add_parser("repair", help="regenerate one node's fragment file")
    rep.add_argument("--failed", required=True, type=int)
    rep.add_argument("--frags", required=True, type=_directory)
    rep.set_defaults(func=_cmd_repair)

    rec = sub.add_parser("reconstruct", help="rebuild the message from fragments")
    rec.add_argument("--nodes", required=True, type=_int_list)
    schemes = dict.fromkeys(s for row in codec.SCHEMES.values() for s in row)
    rec.add_argument("--scheme", default="full", choices=list(schemes))
    rec.add_argument("--frags", required=True, type=_directory)
    rec.add_argument("--out", required=True)
    rec.set_defaults(func=_cmd_reconstruct)

    ben = sub.add_parser("bench", help="operation-count comparison sweep")
    ben.add_argument("--family", required=True, choices=FAMILIES)
    ben.add_argument("--sizes", required=True, type=_int_list, help="comma-separated n values")
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
