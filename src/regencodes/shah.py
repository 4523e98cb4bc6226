"""Complete-graph repair-by-transfer baseline.

The B message symbols are encoded with an (N, B) MDS code, N = C(n, 2),
one packet per edge of the complete graph on n nodes; each node stores
the n-1 packets of its incident edges, so every packet lives on exactly
two nodes.  Repair is pure transfer: the other endpoint of each lost
edge resends its copy.  Any k nodes jointly hold exactly
C(k,2) + k(n-k) = B distinct packets, which erasure-decode the message.

The MDS code is the doubly extended RS code in systematic form, so the
encoding cost counted is the (N-B) x B parity product.  The field must
satisfy C(n,2) <= q+1; failing that bound at small q, while the
congruence-based codes still fit, is itself a comparison datum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

from .counting import OpCounter
from .errors import (
    DuplicateIndex,
    FieldTooSmall,
    IndexOutOfRange,
    InsufficientSymbols,
    MissingHelper,
    ParamsInvalid,
    SingularMatrix,
    WrongFragmentCount,
    WrongHelperCount,
    WrongMessageLength,
)
from .fragments import Fragment
from .gf import Field
from .matrix import (
    FieldMatrix,
    extended_vandermonde,
    mat_inv,
    mat_mul,
    mat_solve,
    submatrix_rows,
)


@dataclass(frozen=True)
class ShahParams:
    field: Field
    n: int
    k: int

    def __post_init__(self):
        if not 1 <= self.k <= self.n - 1:
            raise ParamsInvalid(f"need 1 <= k <= n-1, got (n={self.n}, k={self.k})")
        if self.N > self.field.q + 1:
            raise FieldTooSmall(
                f"C({self.n},2)={self.N} exceeds q+1={self.field.q + 1} for {self.field!r}"
            )

    @property
    def N(self) -> int:
        return self.n * (self.n - 1) // 2

    @property
    def d(self) -> int:
        return self.n - 1

    @property
    def alpha(self) -> int:
        return self.n - 1

    @property
    def beta(self) -> int:
        return 1

    @property
    def B(self) -> int:
        return (self.n - 1) * self.k - self.k * (self.k - 1) // 2

    @property
    def codec(self) -> str:
        return "shah"


@lru_cache(maxsize=None)
def edge_list(n: int) -> tuple[tuple[int, int], ...]:
    """Edges of K_n in lexicographic order; packet p is edge_list(n)[p-1]."""
    return tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))


@lru_cache(maxsize=None)
def edge_index(n: int) -> dict[tuple[int, int], int]:
    return {edge: p for p, edge in enumerate(edge_list(n), start=1)}


def node_packets(n: int, node: int) -> list[int]:
    """Packet indices stored by a node: incident edges, other endpoint ascending."""
    idx = edge_index(n)
    return [idx[(min(node, j), max(node, j))] for j in range(1, n + 1) if j != node]


@lru_cache(maxsize=None)
def _parity_matrix(params: ShahParams) -> FieldMatrix:
    """(N-B) x B parity block of the systematic doubly extended RS generator."""
    gen = extended_vandermonde(params.field, params.N, params.B)
    top = submatrix_rows(gen, range(params.B))
    bottom = submatrix_rows(gen, range(params.B, params.N))
    return mat_mul(bottom, mat_inv(top))


@lru_cache(maxsize=None)
def _generator_rows(params: ShahParams) -> FieldMatrix:
    """Full N x B systematic generator [I_B; P]."""
    import numpy as np

    p = _parity_matrix(params)
    eye = np.eye(params.B, dtype=np.int64)
    return FieldMatrix(params.field, np.concatenate([eye, p.a], axis=0))


def shah_encode(params: ShahParams, u: Sequence[int],
                counter: OpCounter | None = None) -> list[Fragment]:
    """Encode B symbols into n node stores of n-1 packets each.

    Counted cost is the parity product, (N-B)*B multiplications.
    """
    field = params.field
    u = [field.check(v) for v in u]
    if len(u) != params.B:
        raise WrongMessageLength(f"got {len(u)} symbols, B={params.B}")
    col = FieldMatrix(field, [[v] for v in u])
    parity = mat_mul(_parity_matrix(params), col, counter)
    packets = list(u) + parity.col(0)
    stores = []
    for node in range(1, params.n + 1):
        syms = tuple(packets[p - 1] for p in node_packets(params.n, node))
        stores.append(Fragment("shah", node, syms))
    return stores


def helper_repair_packet(params: ShahParams, frag: Fragment, failed: int) -> int:
    """Packet a helper resends: its copy of the edge shared with the failed node."""
    packets = node_packets(params.n, frag.node)
    shared = edge_index(params.n)[(min(frag.node, failed), max(frag.node, failed))]
    return frag.symbols[packets.index(shared)]


def shah_repair(params: ShahParams, responses: Sequence[tuple[int, int]] | Mapping[int, int],
                failed: int, counter: OpCounter | None = None) -> Fragment:
    """Rebuild a node store by pure transfer: zero field operations."""
    if not 1 <= failed <= params.n:
        raise IndexOutOfRange(f"node {failed} outside [1, {params.n}]")
    got = dict(responses) if isinstance(responses, Mapping) else {}
    if not isinstance(responses, Mapping):
        for node, sym in responses:
            if node in got:
                raise MissingHelper(f"helper {node} supplied twice")
            got[node] = sym
    expected = set(range(1, params.n + 1)) - {failed}
    if len(got) != len(expected):
        raise WrongHelperCount(f"got {len(got)} helpers, expected {len(expected)}")
    if set(got) != expected:
        raise MissingHelper(f"helper set mismatch, missing {sorted(expected - set(got))}")
    # store order is by other endpoint ascending, which is helper order
    return Fragment("shah", failed, tuple(got[j] for j in sorted(expected)))


def distinct_packets(params: ShahParams, nodes: Sequence[int]) -> set[int]:
    out: set[int] = set()
    for node in nodes:
        out.update(node_packets(params.n, node))
    return out


def shah_reconstruct(params: ShahParams, fragments: Sequence[Fragment],
                     counter: OpCounter | None = None) -> list[int]:
    """Erasure-decode the message from the packets held by k nodes."""
    nodes = [f.node for f in fragments]
    if len(set(nodes)) != len(nodes):
        raise DuplicateIndex(f"duplicate node in {nodes}")
    if len(nodes) < params.k:
        raise InsufficientSymbols(f"got {len(nodes)} stores, need k={params.k}")
    if len(nodes) > params.k:
        raise WrongFragmentCount(f"got {len(nodes)} stores, expected k={params.k}")
    values: dict[int, int] = {}
    for frag in fragments:
        if len(frag.symbols) != params.n - 1:
            raise WrongFragmentCount(
                f"store of node {frag.node} has {len(frag.symbols)} packets, expected {params.n - 1}"
            )
        for p, v in zip(node_packets(params.n, frag.node), frag.symbols):
            values[p] = v
    if len(values) != params.B:
        raise InsufficientSymbols(f"stores cover {len(values)} packets, need B={params.B}")
    gen = _generator_rows(params)
    chosen = sorted(values)
    rows = submatrix_rows(gen, [p - 1 for p in chosen])
    rhs = FieldMatrix(params.field, [[values[p]] for p in chosen])
    try:
        sol = mat_solve(rows, rhs, counter)
    except SingularMatrix as exc:
        raise SingularMatrix("MDS decode failed; generator construction broken") from exc
    return sol.col(0)
