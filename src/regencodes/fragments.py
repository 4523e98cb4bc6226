"""Fragment values, the MBR point, the shared checks and the transfer codecs' rows.

A fragment is the per-node unit of storage, tagged with its codec.  Every
codec sits at the MBR point (MbrPoint), reads k distinct nodes
(check_read) and repairs from d helpers (check_helpers).

The rbt check matrix and the shah packet matrix are both symmetric n x n
matrices with a zero diagonal, and node i stores row i without its
diagonal entry (alpha = n-1 symbols).  Row i and column i agree, so the
symbol node j stores in column i is the one node i stores in column j:
a lost row is rebuilt by pure placement of one stored symbol from each
surviving node, with zero field operations (rbt.rbt_repair).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DecodeMismatch,
    DuplicateHelper,
    DuplicateIndex,
    IndexOutOfRange,
    InsufficientSymbols,
    ParamsInvalid,
    PlanPayloadMismatch,
    WrongFragmentCount,
    WrongHelperCount,
)
from .gf import Field, as_int, int_array
from .matrix import frozen

CODEC_TAGS = ("rbt", "rbt-sys", "mbr-psrs", "mbr-vdm", "shah")


@dataclass(frozen=True, eq=False)
class Fragment:
    """One node's stored symbols, tagged with its codec.

    `symbols` is a read-only 1-D int64 array.  A caller's sequence of ints
    is copied into one; the codecs hand out rows of their own read-only
    blocks through `trusted_fragment`.  A fragment does not name its
    field, so the field range is checked where a fragment is read.
    """

    codec: str
    node: int  # 1-based node index
    symbols: np.ndarray

    def __post_init__(self):
        if self.codec not in CODEC_TAGS:
            raise ValueError(f"unknown codec tag {self.codec!r}")
        node = as_int(self.node)
        if node < 1:
            raise ValueError(f"node index {node} must be >= 1")
        symbols = int_array(self.symbols)
        if symbols.ndim != 1:
            raise ValueError(f"fragment symbols must be a flat sequence, got shape {symbols.shape}")
        object.__setattr__(self, "node", node)
        object.__setattr__(self, "symbols", frozen(np.array(symbols)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.codec == other.codec and self.node == other.node
                and np.array_equal(self.symbols, other.symbols))

    def __hash__(self):
        return hash((self.codec, self.node, self.symbols.tobytes()))


def trusted_fragment(codec: str, node: int, symbols: np.ndarray) -> Fragment:
    """A fragment built without checks, for the codecs and the file reader:
    `codec` is a tag, `node` an int >= 1 and `symbols` a read-only 1-D
    int64 array of field values."""
    frag = object.__new__(Fragment)
    frag.__dict__.update(codec=codec, node=node, symbols=symbols)
    return frag


def row_fragments(codec: str, block: np.ndarray) -> list[Fragment]:
    """Nodes 1..n holding the rows of an n-row block of field values, as
    views of the block, which is made read-only."""
    return [trusted_fragment(codec, i, row) for i, row in enumerate(frozen(block), start=1)]


def stored_fragments(codec: str, matrix: np.ndarray) -> list[Fragment]:
    """Every node's fragment: its row of the symmetric matrix without the
    diagonal, from one n x (n-1) block."""
    n = len(matrix)
    return row_fragments(codec, matrix[~np.eye(n, dtype=bool)].reshape(n, n - 1))


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
    return frag.symbols.item(stored_position(frag.node, column))


def fragment_symbols(frag: Fragment, columns: Sequence[int]) -> list[int]:
    """fragment_symbol of each column.  At transfer-code sizes (n - 1 of
    a few dozen symbols) one `tolist` of the row and a list gather cost
    less than a numpy gather and its index arithmetic."""
    node, n = frag.node, len(frag.symbols) + 1
    if columns and (min(columns) < 1 or max(columns) > n or node in columns):
        for column in columns:
            fragment_symbol(frag, column)  # raises for the first bad column
    row = frag.symbols.tolist()
    return [row[c - 1 if c < node else c - 2] for c in columns]


class MbrPoint:
    """The unit-bandwidth MBR point of every codec, for params classes with
    k and d: a node stores alpha = d symbols, a helper sends beta = 1, and
    a message holds B = kd - C(k, 2) symbols."""

    @property
    def alpha(self) -> int:
        return self.d

    @property
    def beta(self) -> int:
        return 1

    @property
    def B(self) -> int:
        return self.k * self.d - self.k * (self.k - 1) // 2


def check_codec(params, fragments: Sequence[Fragment]) -> None:
    """Every fragment must carry the codec tag of `params` and alpha symbols:
    another codec's fragments of the same shape would decode to a wrong
    result, and a short or long one would shift the symbols it holds."""
    tag, alpha = params.codec, params.alpha
    for frag in fragments:
        if frag.codec != tag:
            raise ParamsInvalid(f"fragment of node {frag.node} is {frag.codec}, params are {tag}")
        if len(frag.symbols) != alpha:
            raise WrongFragmentCount(
                f"fragment of node {frag.node} has {len(frag.symbols)} symbols, expected {alpha}"
            )


def expand_rows(fragments: Sequence[Fragment], n: int, field: Field) -> np.ndarray:
    """The full matrix rows of fragments checked by check_read (see
    assemble_rows)."""
    nodes = [frag.node for frag in fragments]
    cols = np.arange(n - 1)
    columns = cols + (cols >= np.array(nodes)[:, None] - 1)  # skip each diagonal
    slots = np.repeat(np.arange(len(nodes)), n - 1)
    values = np.stack([frag.symbols for frag in fragments]).ravel()
    return assemble_rows(nodes, n, field, slots, columns.ravel(), values)


def assemble_rows(nodes: Sequence[int], n: int, field: Field, slots: np.ndarray,
                  columns: np.ndarray, values) -> np.ndarray:
    """The full rows of the read nodes, row r for nodes[r], diagonal zeros
    put back, from the symbols sent: values[t] at (slots[t], columns[t]).

    Node i's entry in column j and node j's in column i are copies of one
    symbol: a copy left out is read off the other, and two that disagree
    raise DecodeMismatch.  A diagonal position raises IndexOutOfRange, an
    entry sent by neither node PlanPayloadMismatch.
    """
    k = len(nodes)
    diagonal = np.asarray(nodes) - 1
    on_diagonal = np.flatnonzero(columns == diagonal[slots])
    if on_diagonal.size:
        raise IndexOutOfRange(f"node {nodes[slots[on_diagonal[0]]]} does not store its diagonal zero")
    rows = np.zeros((k, n), dtype=np.int64)
    sent = np.zeros((k, n), dtype=bool)
    rows[slots, columns] = field.varray(values)
    sent[slots, columns] = True
    sent[np.arange(k), diagonal] = True
    block, have = rows[:, diagonal], sent[:, diagonal]
    bad = np.argwhere(have & have.T & (block != block.T))
    if bad.size:
        a, b = bad[0]
        raise DecodeMismatch(f"nodes {nodes[a]} and {nodes[b]} disagree on the symbol they share")
    rows[:, diagonal] = np.where(have, block, block.T)
    sent[:, diagonal] = have | have.T
    if not sent.all():
        r, c = np.argwhere(~sent)[0]
        raise PlanPayloadMismatch(f"plan leaves out the symbol nodes {nodes[r]} and {c + 1} share")
    return rows


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


def check_read(params, fragments: Sequence[Fragment]) -> list[int]:
    """The nodes of a full read's fragments, after checking k distinct nodes
    in [1, n], then each fragment's codec tag and length (check_codec)."""
    nodes = [frag.node for frag in fragments]
    check_nodes(params.n, nodes, params.k)
    check_codec(params, fragments)
    return nodes


def planned_fragments(fragments: Sequence[Fragment], nodes: Sequence[int]) -> list[Fragment]:
    """The fragment of each planned node, in plan order."""
    by_node = {frag.node: frag for frag in fragments}
    for node in nodes:
        if node not in by_node:
            raise InsufficientSymbols(f"no fragment for planned node {node}")
    return [by_node[node] for node in nodes]


def check_helpers(params, helpers: Sequence[int], failed: int) -> None:
    """The repair contract of every codec: a failed node in [1, n] and d
    distinct helpers in [1, n] other than it."""
    n, d = params.n, params.d
    if not 1 <= failed <= n:
        raise IndexOutOfRange(f"node {failed} outside [1, {n}]")
    if len(set(helpers)) != len(helpers):
        raise DuplicateHelper(f"duplicate helper in {list(helpers)}")
    if failed in helpers:
        raise DuplicateHelper(f"failed node {failed} cannot help itself")
    if len(helpers) != d:
        raise WrongHelperCount(f"got {len(helpers)} helpers, need d={d}")
    for h in helpers:
        if not 1 <= h <= n:
            raise IndexOutOfRange(f"helper {h} outside [1, {n}]")
