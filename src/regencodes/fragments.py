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
from .gf import Field
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
        try:
            node = operator.index(self.node)
        except TypeError as exc:
            raise ValueError(f"node index must be an integer: {exc}") from exc
        if node < 1:
            raise ValueError(f"node index {node} must be >= 1")
        object.__setattr__(self, "node", node)
        object.__setattr__(self, "symbols", _symbol_array(self.symbols))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.codec == other.codec and self.node == other.node
                and np.array_equal(self.symbols, other.symbols))

    def __hash__(self):
        return hash((self.codec, self.node, self.symbols.tobytes()))


def _symbol_array(data) -> np.ndarray:
    """A caller's symbols as a new read-only 1-D int64 array: a value that
    is not an integer raises ValueError, and so does one too wide for
    int64, with the text of Field.varray."""
    a = np.asarray(data)
    if a.ndim != 1:
        raise ValueError(f"fragment symbols must be a flat sequence, got shape {a.shape}")
    if a.dtype.kind not in "biu":
        if a.dtype.kind != "O" and a.size:
            raise ValueError(f"fragment symbols must be integers, got {a.dtype}")
        try:
            a = np.array(list(map(operator.index, a)), dtype=np.int64)
        except TypeError as exc:
            raise ValueError(f"fragment symbols must be integers: {exc}") from exc
        except OverflowError as exc:
            raise ValueError("array values outside field range") from exc
    elif a.dtype == np.uint64 and a.size and a.max() > np.iinfo(np.int64).max:
        raise ValueError("array values outside field range")
    return frozen(a.astype(np.int64))


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


def expand_rows(fragments: Sequence[Fragment], n: int, field: Field) -> np.ndarray:
    """The full matrix rows of the fragments, with their diagonal zeros
    put back; a symbol outside the field raises ValueError."""
    for frag in fragments:
        if len(frag.symbols) != n - 1:
            raise WrongFragmentCount(
                f"fragment of node {frag.node} has {len(frag.symbols)} symbols, expected {n - 1}"
            )
    stored = field.varray(np.stack([frag.symbols for frag in fragments]))
    diagonal = np.array([frag.node for frag in fragments])[:, None] - 1
    cols = np.arange(n - 1)
    rows = np.zeros((len(fragments), n), dtype=np.int64)
    rows[np.arange(len(fragments))[:, None], cols + (cols >= diagonal)] = stored
    return rows


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
    frag = Fragment(params.codec, failed, [got[i] for i in sorted(expected)])
    params.field.varray(frag.symbols)  # a response outside the field raises ValueError
    return frag
