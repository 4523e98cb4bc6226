"""Field-operation counters.

A counter is an explicit context object threaded through the call tree of a
single trial; there is no global mutable state, so concurrent trials stay
isolated.  Counts are algebraic: a matrix product of shape (r x m)(m x c)
records r*m*c multiplications and r*c*(m-1) additions regardless of zero
entries, matching the big-O accounting the comparisons are built on.
Transfer-only operations (repair by transfer) never touch a counter.

`charge` is the one writer of a counter: every kernel records its cost
through it, and a `None` counter costs nothing.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class OpCounter:
    mul: int = 0
    add: int = 0


def charge(counter: OpCounter | None, mul: int = 0, add: int = 0) -> None:
    """Add `mul` multiplications and `add` additions to `counter`; nothing
    when it is None."""
    if counter is not None:
        counter.mul += mul
        counter.add += add
