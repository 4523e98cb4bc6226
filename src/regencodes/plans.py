"""Partial-download plans shared by the codecs.

A plan fixes, for each connected node, which stored symbol positions it
transmits.  Its node list is the slot order: node j of a plan fills row
j of the collector matrix Phi_DC.  Positions are 1-based: matrix column
indices for the repair-by-transfer codecs, fragment symbol indices for
the product-matrix codecs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import DuplicateIndex, IndexOutOfRange, PlanPayloadMismatch

SCHEMES = ("lower", "upper", "rbt-pairwise")


@dataclass(frozen=True)
class DownloadPlan:
    scheme: str
    nodes: tuple[int, ...]                    # connected nodes, in slot order
    positions: tuple[tuple[int, ...], ...]    # per node, positions to transmit

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if len(self.nodes) != len(self.positions):
            raise ValueError("nodes and positions must have equal lengths")

    @property
    def total_symbols(self) -> int:
        return sum(len(p) for p in self.positions)

    def per_node_counts(self) -> dict[int, int]:
        return {node: len(p) for node, p in zip(self.nodes, self.positions)}

    @cached_property
    def flat(self) -> tuple[np.ndarray, np.ndarray]:
        """(slot, position) of every planned symbol, in plan order: the
        slot is the index of its node in `nodes`."""
        lengths = [len(p) for p in self.positions]
        slots = np.repeat(np.arange(len(self.nodes)), lengths)
        return slots, np.fromiter(chain.from_iterable(self.positions), np.intp, sum(lengths))

    def check_positions(self, bound: int) -> None:
        """Every position must lie in [1, bound], and no node may list one twice."""
        slots, positions = self.flat
        if not positions.size:
            return
        if not (1 <= positions.min() and positions.max() <= bound):
            for node, pos in zip(self.nodes, self.positions):
                if pos and not 1 <= min(pos) <= max(pos) <= bound:
                    raise IndexOutOfRange(f"node {node}: positions {pos} outside [1, {bound}]")
        counts = np.bincount(slots * bound + positions - 1)
        key = int(counts.argmax())
        if counts[key] > 1:
            raise DuplicateIndex(f"node {self.nodes[key // bound]}: position {key % bound + 1} "
                                 "listed twice")

    def check_payloads(self, payloads, bound: int) -> list[int]:
        """The payloads' symbols in plan order.  There must be one payload
        per node, as long as its positions, which check_positions checks."""
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
        return [v for pay in payloads for v in pay]
