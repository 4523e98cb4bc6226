"""One entry point per operation for every codec tag.

The CLI and the cluster simulator reach the codecs only through this
module.  SCHEMES is the one table of which reconstruction schemes each
codec tag supports; the family a tag belongs to (rbt, mbr or shah) is
its prefix.  Every call returns the symbols each node sent alongside its
result, so callers account for traffic the same way.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .counting import OpCounter
from .errors import ParamsInvalid
from .fragments import Fragment, fragment_symbol, fragment_symbols
from .gf import Field
from .mbr import (
    MbrParams,
    mbr_encode,
    mbr_extract_payloads,
    mbr_partial_plan,
    mbr_reconstruct_full,
    mbr_reconstruct_partial,
    repair_from_fragments,
    timeshare_scheme,
)
from .rbt import (
    RbtParams,
    rbt_encode,
    rbt_encode_systematic,
    rbt_partial_plan,
    rbt_reconstruct_full,
    rbt_reconstruct_partial,
    rbt_repair,
    source_block,
)
from .shah import ShahParams, shah_encode, shah_reconstruct, shah_repair

# `partial` is the pairwise rbt plan; `timeshare` alternates lower and upper
# rounds as mbr.timeshare_scheme says
SCHEMES = {
    "rbt": ("full", "partial"),
    "rbt-sys": ("full", "partial"),
    "mbr-psrs": ("full", "lower", "upper", "gong", "timeshare"),
    "mbr-vdm": ("full", "lower", "upper", "gong", "timeshare"),
    "shah": ("full",),
}


def _family(tag: str) -> str:
    return tag.split("-")[0]


def params_for(tag: str, field: Field, n: int, k: int, d: int | None = None):
    """Parameter object for a codec tag; rbt and shah fix d = n-1."""
    if tag not in SCHEMES:
        raise ParamsInvalid(f"unknown codec {tag!r}")
    if _family(tag) == "mbr":
        if d is None:
            raise ParamsInvalid(f"codec {tag} requires --d")
        return MbrParams(field, n, k, d, backend="psrs" if tag == "mbr-psrs" else "vandermonde")
    if d is not None and d != n - 1:
        raise ParamsInvalid(f"codec {tag} has d = n-1 = {n - 1}, got --d {d}")
    if tag == "shah":
        return ShahParams(field, n, k)
    return RbtParams(field, n, k, systematic=(tag == "rbt-sys"))


def check_scheme(tag: str, scheme: str, error: type[Exception] = ParamsInvalid) -> None:
    if scheme not in SCHEMES[tag]:
        raise error(f"scheme {scheme!r} not supported by codec {tag}")


def encode(params, u: Sequence[int], counter: OpCounter | None = None) -> list[Fragment]:
    family = _family(params.codec)
    if family == "rbt":
        if params.systematic:
            return rbt_encode_systematic(params, source_block(params, u), counter).fragments()
        return rbt_encode(params, u, counter).fragments()
    if family == "mbr":
        return mbr_encode(params, u, counter)
    return shah_encode(params, u, counter)


def repair(params, frags: Mapping[int, Fragment], failed: int,
           helpers: Sequence[int] | None = None,
           counter: OpCounter | None = None) -> tuple[Fragment, dict[int, int]]:
    """Regenerate node `failed` from `frags` (node -> fragment).

    Helpers default to every other node in ascending order, cut to the
    first d for the product-matrix codecs.  Each helper sends one symbol:
    a product-matrix helper its inner product with the failed node's
    encoding row, a transfer helper the symbol it stores in the failed
    node's column.
    """
    family = _family(params.codec)
    if helpers is None:
        helpers = sorted(i for i in frags if i != failed)
        if family == "mbr":
            helpers = helpers[: params.d]
    if family == "mbr":
        frag = repair_from_fragments(params, [frags[i] for i in helpers], failed, counter)
    else:
        responses = [(i, fragment_symbol(frags[i], failed)) for i in helpers]
        transfer = rbt_repair if family == "rbt" else shah_repair
        frag = transfer(params, responses, failed, counter)
    return frag, {i: 1 for i in helpers}


def reconstruct(params, frags: Mapping[int, Fragment], nodes: Sequence[int], scheme: str,
                counter: OpCounter | None = None,
                phase: int = 0) -> tuple[list[int], dict[int, int]]:
    """Rebuild the message from the fragments of `nodes`.

    A `timeshare` read runs the plan `mbr.timeshare_scheme(phase)` picks.
    """
    check_scheme(params.codec, scheme)
    chosen = [frags[i] for i in nodes]
    if scheme == "full":
        family = _family(params.codec)
        if family == "rbt":
            u = rbt_reconstruct_full(params, chosen, counter)
        elif family == "mbr":
            u = mbr_reconstruct_full(params, chosen, counter=counter)
        else:
            u = shah_reconstruct(params, chosen, counter)
        return u, {i: params.alpha for i in nodes}
    if scheme == "partial":
        plan = rbt_partial_plan(params, nodes)
        payloads = [fragment_symbols(frags[node], pos)
                    for node, pos in zip(plan.nodes, plan.positions)]
        u = rbt_reconstruct_partial(params, plan, payloads, counter)
    else:
        if scheme == "timeshare":
            scheme = timeshare_scheme(phase)
        plan = mbr_partial_plan(params, nodes, scheme)
        u = mbr_reconstruct_partial(params, plan, mbr_extract_payloads(chosen, plan), counter)
    return u, plan.per_node_counts()
