"""Partial-download plans shared by the codecs.

A plan fixes, for each connected node, which stored symbol positions it
transmits, plus the slot order g mapping each connected node to its row
of the collector matrix.  Positions are 1-based: matrix column indices
for the repair-by-transfer codecs, fragment symbol indices for the
product-matrix codecs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IndexOutOfRange, PlanPayloadMismatch

SCHEMES = ("full", "lower", "upper", "gong", "rbt-pairwise")


@dataclass(frozen=True)
class DownloadPlan:
    scheme: str
    nodes: tuple[int, ...]                    # connected nodes, list order
    order: tuple[int, ...]                    # g_j: 1-based slot of nodes[j]
    positions: tuple[tuple[int, ...], ...]    # per node, positions to transmit
    phase: int | None = None                  # round index for time sharing

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not len(self.nodes) == len(self.order) == len(self.positions):
            raise ValueError("nodes, order and positions must have equal lengths")

    @property
    def total_symbols(self) -> int:
        return sum(len(p) for p in self.positions)

    def per_node_counts(self) -> dict[int, int]:
        return {node: len(p) for node, p in zip(self.nodes, self.positions)}

    def check_positions(self, bound: int) -> None:
        """Every position must lie in [1, bound]."""
        # one set of the distinct positions is cheaper than a min and max per node
        used = set().union(*self.positions)
        if used and not (1 <= min(used) and max(used) <= bound):
            for node, pos in zip(self.nodes, self.positions):
                if pos and not 1 <= min(pos) <= max(pos) <= bound:
                    raise IndexOutOfRange(f"node {node}: positions {pos} outside [1, {bound}]")

    def check_payloads(self, payloads, bound: int) -> list[list[int]]:
        """Payloads as lists, one per node, each as long as the node's
        positions; every position must lie in [1, bound]."""
        payloads = [list(p) for p in payloads]
        if len(payloads) != len(self.nodes):
            raise PlanPayloadMismatch(
                f"{len(payloads)} payloads for {len(self.nodes)} planned nodes"
            )
        for node, pos, pay in zip(self.nodes, self.positions, payloads):
            if len(pay) != len(pos):
                raise PlanPayloadMismatch(
                    f"node {node}: payload has {len(pay)} symbols, plan expects {len(pos)}"
                )
        self.check_positions(bound)
        return payloads
