"""Field-operation counters.

A counter is an explicit context object threaded through the call tree of a
single trial; there is no global mutable state, so concurrent trials stay
isolated.  Counts are algebraic: a matrix product of shape (r x m)(m x c)
records r*m*c multiplications and r*c*(m-1) additions regardless of zero
entries, matching the big-O accounting the comparisons are built on.
Transfer-only operations (repair by transfer) never touch a counter.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class OpCounter:
    mul: int = 0
    add: int = 0

    def count_mul(self, n: int = 1) -> None:
        self.mul += n

    def count_add(self, n: int = 1) -> None:
        self.add += n
