"""Fragment values and the stored-row layout of the transfer codecs.

A fragment is the per-node unit of storage, tagged with its codec.

The rbt check matrix and the shah packet matrix are both symmetric n x n
matrices with a zero diagonal, and node i stores row i without its
diagonal entry (alpha = n-1 symbols).  Row i and column i agree, so the
symbol node j stores in column i is the one node i stores in column j:
a lost row is rebuilt by pure placement of one stored symbol from each
surviving node, with zero field operations.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DecodeMismatch,
    DuplicateIndex,
    IndexOutOfRange,
    InsufficientSymbols,
    MissingHelper,
    WrongFragmentCount,
    WrongHelperCount,
)

CODEC_TAGS = ("rbt", "rbt-sys", "mbr-psrs", "mbr-vdm", "shah")


@dataclass(frozen=True)
class Fragment:
    codec: str
    node: int  # 1-based node index
    symbols: tuple[int, ...]

    def __post_init__(self):
        if self.codec not in CODEC_TAGS:
            raise ValueError(f"unknown codec tag {self.codec!r}")
        if self.node < 1:
            raise ValueError(f"node index {self.node} must be >= 1")
        try:
            symbols = tuple(map(operator.index, self.symbols))
        except TypeError as exc:
            raise ValueError(f"fragment symbols must be integers: {exc}") from exc
        object.__setattr__(self, "symbols", symbols)


def stored_fragment(codec: str, matrix: np.ndarray, node: int) -> Fragment:
    """Node's fragment: its row of the symmetric matrix without the diagonal."""
    row = matrix[node - 1].tolist()
    del row[node - 1]
    return Fragment(codec, node, tuple(row))


def stored_position(node: int, column: int) -> int:
    """0-based index of matrix column `column` within node's elided row."""
    if column == node:
        raise IndexOutOfRange(f"node {node} does not store its diagonal zero")
    return column - 1 if column < node else column - 2


def fragment_symbol(frag: Fragment, column: int) -> int:
    """The symbol `frag` stores in matrix column `column`: the one a helper
    sends to repair node `column`."""
    n = len(frag.symbols) + 1
    if not 1 <= column <= n:
        raise IndexOutOfRange(f"node {column} outside [1, {n}]")
    return frag.symbols[stored_position(frag.node, column)]


def expand_row(frag: Fragment, n: int) -> list[int]:
    """The full matrix row of a fragment, with its diagonal zero put back."""
    if len(frag.symbols) != n - 1:
        raise WrongFragmentCount(
            f"fragment of node {frag.node} has {len(frag.symbols)} symbols, expected {n - 1}"
        )
    row = list(frag.symbols)
    row.insert(frag.node - 1, 0)
    return row


def check_shared_symbols(nodes: Sequence[int], rows: np.ndarray) -> None:
    """The full rows of the read nodes must agree on the block they share.

    Node i's entry in column j and node j's entry in column i are two
    copies of one symbol, so a mismatch means a damaged fragment.
    """
    block = rows[:, np.asarray(nodes) - 1]
    bad = np.argwhere(block != block.T)
    if bad.size:
        a, b = bad[0]
        raise DecodeMismatch(f"nodes {nodes[a]} and {nodes[b]} disagree on the symbol they share")


def check_nodes(n: int, nodes: Sequence[int], count: int) -> None:
    """`count` distinct nodes, each in [1, n]."""
    if len(set(nodes)) != len(nodes):
        raise DuplicateIndex(f"duplicate node in {list(nodes)}")
    for i in nodes:
        if not 1 <= i <= n:
            raise IndexOutOfRange(f"node {i} outside [1, {n}]")
    if len(nodes) < count:
        raise InsufficientSymbols(f"got {len(nodes)} fragments, need {count}")
    if len(nodes) > count:
        raise WrongFragmentCount(f"got {len(nodes)} fragments, expected {count}")


def transfer_repair(params, responses: Sequence[tuple[int, int]] | Mapping[int, int],
                    failed: int) -> Fragment:
    """Rebuild the failed node's row by placement only.

    `responses` maps each of the other n-1 nodes to the symbol it stores
    in the failed node's column; symmetry makes that symbol the failed
    row's entry in the helper's column.
    """
    n = params.n
    if not 1 <= failed <= n:
        raise IndexOutOfRange(f"node {failed} outside [1, {n}]")
    if isinstance(responses, Mapping):
        got = dict(responses)
    else:
        got = {}
        for node, sym in responses:
            if node in got:
                raise MissingHelper(f"helper {node} supplied twice")
            got[node] = sym
    expected = set(range(1, n + 1)) - {failed}
    if len(got) != len(expected):
        raise WrongHelperCount(f"got {len(got)} helpers, expected {len(expected)}")
    if set(got) != expected:
        raise MissingHelper(f"helper set mismatch, missing {sorted(expected - set(got))}")
    frag = Fragment(params.codec, failed, tuple(got[i] for i in sorted(expected)))
    params.field.varray(frag.symbols)  # a response outside the field raises ValueError
    return frag
