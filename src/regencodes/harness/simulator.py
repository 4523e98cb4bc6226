"""In-process storage-cluster simulator.

A scenario script is line-oriented text, `#` starts a comment:

    encode
    fail 3
    repair 3                 # helpers default to every surviving node
    repair 3 with 1,2,4,5    # explicit helper set (product-matrix codecs)
    reconstruct 1,2,4
    reconstruct 1,2,4 scheme lower

Every reconstruction is checked against the original message and every
repaired fragment against the original codeword; a mismatch aborts the
run.  Each event runs under its own operation counter and records the
symbols transferred, so transfer-only repairs provably cost zero field
operations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field

from .. import codec
from ..counting import OpCounter
from ..errors import ParamsInvalid, RegenError, ReconstructionMismatch, ScriptInvalid
from ..fragments import Fragment


@dataclass
class EventRecord:
    index: int
    kind: str                      # encode | fail | repair | reconstruct | partial-reconstruct
    detail: str
    symbols: int = 0
    mul: int = 0
    add: int = 0
    per_node: dict[int, int] = dc_field(default_factory=dict)


@dataclass
class CostReport:
    events: list[EventRecord] = dc_field(default_factory=list)

    def per_node_histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for e in self.events:
            for node, c in e.per_node.items():
                hist[node] = hist.get(node, 0) + c
        return hist

    def events_of(self, kind: str) -> list[EventRecord]:
        return [e for e in self.events if e.kind == kind]


@dataclass
class ClusterState:
    params: object
    message: list[int] | None = None
    nodes: dict[int, Fragment | None] = dc_field(default_factory=dict)
    original: dict[int, Fragment] = dc_field(default_factory=dict)
    timeshare_phase: int = 0

    def alive(self) -> dict[int, Fragment]:
        return {i: f for i, f in self.nodes.items() if f is not None}


def _parse_nodes(tok: str, lineno: int) -> list[int]:
    try:
        return [int(t) for t in tok.split(",") if t]
    except ValueError:
        raise ScriptInvalid(f"line {lineno}: bad node list {tok!r}") from None


def parse_script(script: str) -> list[tuple[int, list[str]]]:
    out = []
    for lineno, raw in enumerate(script.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line.split()))
    return out


def sim_run(params, script: str, u: list[int] | None = None,
            seed: int = 2024) -> tuple[CostReport, ClusterState]:
    """Execute a scenario script against the codec selected by `params`."""
    state = ClusterState(params=params)
    report = CostReport()
    rng = random.Random(seed)

    for idx, (lineno, tokens) in enumerate(parse_script(script)):
        cmd = tokens[0]
        try:
            if cmd == "encode":
                if len(tokens) != 1:
                    raise ScriptInvalid(f"line {lineno}: encode takes no arguments")
                if state.message is not None:
                    raise ScriptInvalid(f"line {lineno}: message already encoded")
                msg = list(u) if u is not None else [
                    rng.randrange(params.field.q) for _ in range(params.B)
                ]
                counter = OpCounter()
                frags = codec.encode(params, msg, counter)
                state.message = msg
                state.nodes = {f.node: f for f in frags}
                state.original = dict(state.nodes)
                report.events.append(EventRecord(
                    index=idx, kind="encode", detail=params.codec,
                    symbols=sum(len(f.symbols) for f in frags),
                    mul=counter.mul, add=counter.add,
                ))

            elif cmd == "fail":
                node = _one_node(tokens, lineno)
                _require_encoded(state, lineno)
                if node not in state.nodes:
                    raise ScriptInvalid(f"line {lineno}: no node {node}")
                if state.nodes[node] is None:
                    raise ScriptInvalid(f"line {lineno}: node {node} already failed")
                state.nodes[node] = None
                report.events.append(EventRecord(index=idx, kind="fail", detail=str(node)))

            elif cmd == "repair":
                node = _one_node(tokens[:2], lineno)
                helpers = None
                if len(tokens) > 2:
                    if tokens[2] != "with" or len(tokens) != 4:
                        raise ScriptInvalid(f"line {lineno}: expected 'repair i [with h,h,...]'")
                    helpers = _parse_nodes(tokens[3], lineno)
                _require_encoded(state, lineno)
                if state.nodes.get(node) is not None:
                    raise ScriptInvalid(f"line {lineno}: node {node} has not failed")
                for i in helpers or ():
                    if state.nodes.get(i) is None:
                        raise ScriptInvalid(f"line {lineno}: helper {i} unavailable")
                counter = OpCounter()
                frag, per_node = codec.repair(params, state.alive(), node,
                                              helpers, counter)
                if frag != state.original[node]:
                    raise ReconstructionMismatch(f"repair of node {node} altered the fragment")
                state.nodes[node] = frag
                report.events.append(EventRecord(
                    index=idx, kind="repair", detail=str(node),
                    symbols=sum(per_node.values()),
                    mul=counter.mul, add=counter.add, per_node=per_node,
                ))

            elif cmd == "reconstruct":
                if len(tokens) not in (2, 4):
                    raise ScriptInvalid(f"line {lineno}: expected 'reconstruct i,j,... [scheme s]'")
                nodes = _parse_nodes(tokens[1], lineno)
                scheme = "full"
                if len(tokens) == 4:
                    if tokens[2] != "scheme":
                        raise ScriptInvalid(f"line {lineno}: expected 'scheme <name>'")
                    scheme = tokens[3]
                _require_encoded(state, lineno)
                for i in nodes:
                    if state.nodes.get(i) is None:
                        raise ScriptInvalid(f"line {lineno}: node {i} unavailable")
                try:
                    codec.check_scheme(params.codec, scheme)
                except ParamsInvalid as exc:
                    raise ScriptInvalid(f"line {lineno}: {exc}") from exc
                counter = OpCounter()
                got, per_node = codec.reconstruct(params, state.alive(), nodes, scheme,
                                                  counter, state.timeshare_phase)
                if scheme == "timeshare":
                    state.timeshare_phase += 1
                if got != state.message:
                    raise ReconstructionMismatch(
                        f"reconstruction from {nodes} does not match the message"
                    )
                report.events.append(EventRecord(
                    index=idx, kind="reconstruct" if scheme == "full" else "partial-reconstruct",
                    detail=f"{nodes} scheme={scheme}", symbols=sum(per_node.values()),
                    mul=counter.mul, add=counter.add, per_node=per_node,
                ))

            else:
                raise ScriptInvalid(f"line {lineno}: unknown command {cmd!r}")
        except ScriptInvalid:
            raise
        except RegenError as exc:
            raise type(exc)(f"event {idx} (line {lineno}): {exc}") from exc
    return report, state


def _one_node(tokens, lineno) -> int:
    if len(tokens) != 2:
        raise ScriptInvalid(f"line {lineno}: expected '{tokens[0]} <node>'")
    try:
        return int(tokens[1])
    except ValueError:
        raise ScriptInvalid(f"line {lineno}: bad node {tokens[1]!r}") from None


def _require_encoded(state: ClusterState, lineno: int):
    if state.message is None:
        raise ScriptInvalid(f"line {lineno}: encode must come first")
