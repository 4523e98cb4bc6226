"""Repair-by-transfer codes built from congruences of skew-symmetric matrices.

An (n, k, d=n-1) code stores the rows of a symmetric check matrix with
zero diagonal.  Encoding forms a skew-symmetric message matrix, applies
the congruent transformation by a square encoding matrix, then flips the
sign of the strictly lower triangle to obtain the symmetric check matrix
(a no-op in characteristic 2).  Because rows and columns of a symmetric
matrix agree, a lost row is rebuilt by pure placement of one stored
symbol from each surviving node: repair performs zero field operations.

The systematic variant embeds the source block verbatim in the first k
rows and computes only the trailing block V, which costs
O(k(n-k)^2 + k^2(n-k)) multiplications instead of the two full n x n
congruence products.

A pairwise decision rule drives the partial-download plan: for every
pair of connected nodes the shared symbol is transmitted exactly once,
so a data collector downloads exactly B symbols, balanced to within one
symbol per node.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .counting import OpCounter
from .errors import (
    FieldTooSmall,
    IndexOutOfRange,
    ParamsInvalid,
    PlanPayloadMismatch,
    SingularMatrix,
    WrongMessageLength,
)
from .fragments import (
    Fragment,
    check_nodes,
    check_shared_symbols,
    expand_rows,
    fragment_symbol,
    fragment_symbols,
    stored_fragments,
    transfer_repair,
)
from .gf import Field, enumerate_points
from .matrix import (
    FieldMatrix,
    check_message,
    collector_inverse,
    congruence,
    data_collector,
    extended_vandermonde,
    frozen,
    interpolation_inverse,
    inverse_differences,
    is_symmetric_zero_diag,
    mat_add,
    mat_inv,
    mat_mul,
    mat_sub,
    require_skew_symmetric,
    solve_message_block,
    symmetric_from_triangle,
    triangle,
    vandermonde,
)
from .plans import DownloadPlan


@dataclass(frozen=True)
class RbtParams:
    """Validated (n, k, d=n-1) parameter set."""

    field: Field
    n: int
    k: int
    systematic: bool = False

    def __post_init__(self):
        if not 1 <= self.k <= self.n - 1:
            raise ParamsInvalid(f"need 1 <= k <= n-1, got (n={self.n}, k={self.k})")
        if self.n > self.field.q + 1:
            raise FieldTooSmall(
                f"n={self.n} exceeds q+1={self.field.q + 1} for {self.field!r}"
            )

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
        return "rbt-sys" if self.systematic else "rbt"


@dataclass(frozen=True)
class RbtCodeword:
    """Symmetric zero-diagonal check matrix; row i is node i's fragment."""

    params: RbtParams
    check: FieldMatrix

    def __post_init__(self):
        if not is_symmetric_zero_diag(self.check.a) or self.check.rows != self.params.n:
            raise ValueError("check matrix must be n x n symmetric with zero diagonal")

    def fragment(self, node: int) -> Fragment:
        if not 1 <= node <= self.params.n:
            raise IndexOutOfRange(f"node {node} outside [1, {self.params.n}]")
        return self.fragments()[node - 1]

    def fragments(self) -> list[Fragment]:
        return stored_fragments(self.params.codec, self.check.a)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def _message_slots(params: RbtParams) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the message symbols in the combined k x n block [S T]:
    its strict upper triangle."""
    return triangle(params.k, 1, params.n)


def rbt_build_message(params: RbtParams, u: Sequence[int]) -> np.ndarray:
    """Skew-symmetric n x n message matrix from the B message symbols."""
    u = check_message(params.field, u, params.B)
    return symmetric_from_triangle(params.field, params.n, _message_slots(params), u, skew=True)


def message_from_block(params: RbtParams, block: np.ndarray) -> list[int]:
    """Inverse of the message layout: read B symbols out of a k x n block."""
    return block[_message_slots(params)].tolist()


@lru_cache(maxsize=None)
def _phi(params: RbtParams) -> np.ndarray:
    """n x k block: extended Vandermonde, or its systematic row reduction;
    read-only."""
    field, n, k = params.field, params.n, params.k
    if not params.systematic:
        return frozen(extended_vandermonde(field, n, k))
    if n <= field.q:
        v = vandermonde(field, n, k)
    else:
        v = extended_vandermonde(field, n, k)
    try:
        reduced = mat_mul(field, v, mat_inv(FieldMatrix(field, v[:k])))
    except SingularMatrix as exc:
        raise SingularMatrix(f"systematic reduction infeasible for (n={n}, k={k})") from exc
    return frozen(reduced)


def parity_block(params: RbtParams) -> np.ndarray:
    """(n-k) x k parity rows of the systematic encoding block."""
    if not params.systematic:
        raise ParamsInvalid("parity block exists only in systematic mode")
    return _phi(params)[params.k:]


@lru_cache(maxsize=None)
def rbt_build_encoding(params: RbtParams) -> np.ndarray:
    """Square encoding matrix [Phi | (0; I)]; validated non-singular, read-only."""
    field, n, k = params.field, params.n, params.k
    psi = np.zeros((n, n), dtype=np.int64)
    psi[:, :k] = _phi(params)
    psi[k:, k:] = np.eye(n - k, dtype=np.int64)
    mat_inv(FieldMatrix(field, psi))  # raises SingularMatrix if the construction failed
    return frozen(psi)


@lru_cache(maxsize=None)
def _interpolation_table(params: RbtParams) -> tuple[np.ndarray, np.ndarray]:
    """The points of the systematic Vandermonde rows for n <= q and their
    inverse differences."""
    points = frozen(np.array(enumerate_points(params.field, params.n), dtype=np.int64))
    return points, inverse_differences(params.field, points, params.k)


@lru_cache(maxsize=None)
def _psi_t_inv(params: RbtParams) -> np.ndarray:
    return frozen(mat_inv(FieldMatrix(params.field, rbt_build_encoding(params).T)))


def sign_fix(params: RbtParams, c_hat: np.ndarray, counter: OpCounter | None = None) -> np.ndarray:
    """Negate the strictly lower triangle; identity pathway in characteristic 2."""
    field = params.field
    if field.characteristic == 2:
        return c_hat
    a = c_hat.copy()
    low = np.tril_indices(a.shape[0], k=-1)
    a[low] = field.vneg(a[low])
    if counter is not None:
        counter.count_add(len(low[0]))
    return a


def _unfix_rows(params: RbtParams, rows: np.ndarray, nodes: Sequence[int],
                counter: OpCounter | None) -> np.ndarray:
    """Inverse sign fix applied to full rows of the check matrix."""
    field = params.field
    a = rows.copy()
    if field.characteristic != 2:
        for r, node in enumerate(nodes):
            if node > 1:
                a[r, : node - 1] = field.vneg(a[r, : node - 1])
                if counter is not None:
                    counter.count_add(node - 1)
    return a


def _codeword(params: RbtParams, c_hat: np.ndarray, counter: OpCounter | None) -> RbtCodeword:
    return RbtCodeword(params, FieldMatrix(params.field, sign_fix(params, c_hat, counter)))


def rbt_encode(params: RbtParams, u: Sequence[int], counter: OpCounter | None = None) -> RbtCodeword:
    """Congruence encoding: check matrix from the B message symbols."""
    m_hat = rbt_build_message(params, u)
    psi = rbt_build_encoding(params)
    return _codeword(params, congruence(params.field, psi, m_hat, counter), counter)


def source_block(params: RbtParams, u: Sequence[int]) -> np.ndarray:
    """k x n source block [U_L U_R] with U_L skew-symmetric, from B source symbols:
    the first k rows of the message matrix."""
    return rbt_build_message(params, u)[: params.k]


def _check_block(params: RbtParams, block) -> np.ndarray:
    """A caller's source block as an array, range- and shape-checked."""
    block = params.field.varray(block)
    if block.shape != (params.k, params.n):
        raise WrongMessageLength(f"source block has shape {block.shape}, "
                                 f"expected {(params.k, params.n)}")
    return block


def rbt_encode_systematic(params: RbtParams, block,
                          counter: OpCounter | None = None) -> RbtCodeword:
    """Systematic encoding: the source block becomes the first k rows.

    Only the trailing (n-k) x (n-k) block V = P U_R - (P U_R)^t - P U_L P^t
    is computed, P being the parity rows of the systematic encoding block.
    """
    if not params.systematic:
        raise ParamsInvalid("params are not in systematic mode")
    field, n, k = params.field, params.n, params.k
    block = _check_block(params, block)
    u_l, u_r = block[:, :k], block[:, k:]
    require_skew_symmetric(field, u_l)
    p = parity_block(params)
    pur = mat_mul(field, p, u_r, counter)
    pul = mat_mul(field, p, u_l, counter)
    v = mat_sub(field, mat_sub(field, pur, pur.T, counter), mat_mul(field, pul, p.T, counter),
                counter)
    if counter is not None and field.characteristic != 2:
        counter.count_add(u_r.size)  # negating U_R^t
    return _codeword(params, np.block([[u_l, u_r], [field.vneg(u_r.T), v]]), counter)


def remapped_message(params: RbtParams, block) -> list[int]:
    """Message vector whose congruence encoding equals the systematic encoding.

    Solves the systematic conditions S = U_L and S P^t + T = U_R.
    """
    field, k = params.field, params.k
    block = _check_block(params, block)
    u_l, u_r = block[:, :k], block[:, k:]
    t = mat_sub(field, u_r, mat_mul(field, u_l, parity_block(params).T))
    return message_from_block(params, np.concatenate([u_l, t], axis=1))


def source_from_codeword(cw: RbtCodeword) -> list[int]:
    """Read the source symbols back out of a systematic codeword."""
    return message_from_block(cw.params, cw.check.a)


# ---------------------------------------------------------------------------
# repair
# ---------------------------------------------------------------------------

def helper_repair_symbol(frag: Fragment, failed: int) -> int:
    """The single symbol a helper transmits: its stored entry in the failed column."""
    return fragment_symbol(frag, failed)


def rbt_repair(params: RbtParams, responses: Sequence[tuple[int, int]] | Mapping[int, int],
               failed: int, counter: OpCounter | None = None) -> Fragment:
    """Rebuild the failed node's row by placement only: zero field operations."""
    return transfer_repair(params, responses, failed)


# ---------------------------------------------------------------------------
# data reconstruction
# ---------------------------------------------------------------------------

def rbt_reconstruct_full(params: RbtParams, fragments: Sequence[Fragment],
                         counter: OpCounter | None = None) -> list[int]:
    """Recover the B message symbols from any k complete fragments."""
    nodes = [f.node for f in fragments]
    check_nodes(params.n, nodes, params.k)
    rows = expand_rows(fragments, params.n, params.field)
    check_shared_symbols(nodes, rows)
    return _read_rows(params, nodes, rows, counter)


def _read_rows(params: RbtParams, nodes: Sequence[int], rows: np.ndarray,
               counter: OpCounter | None) -> list[int]:
    """The message from the checked full check-matrix rows of k nodes."""
    field, k = params.field, params.k
    if params.systematic and sorted(nodes) == list(range(1, k + 1)):
        # systematic fast path: source symbols are stored verbatim
        return message_from_block(params, rows[np.argsort(nodes)])

    # undoing the sign fix and Psi^t leaves Psi_DC M for the skew message M
    c_hat_dc = _unfix_rows(params, rows, nodes, counter)
    d_dc = mat_mul(field, c_hat_dc, _psi_t_inv(params), counter)
    phi_dc, delta_dc = data_collector(rbt_build_encoding(params), k, nodes, range(1, k + 1))
    if params.systematic and params.n <= field.q:
        # Phi is the Lagrange basis at the first k of n finite points
        phi_inv = interpolation_inverse(field, *_interpolation_table(params),
                                        [i - 1 for i in nodes], counter)
    else:
        phi_inv = collector_inverse(field, phi_dc, counter)
    s_hat, t_hat = solve_message_block(field, phi_inv, delta_dc, d_dc, skew=True, counter=counter)
    if params.systematic:
        # undo the message remapping: the stored source block is [S, S P^t + T]
        p = parity_block(params)
        t_hat = mat_add(field, mat_mul(field, s_hat, p.T, counter), t_hat, counter)
    return message_from_block(params, np.concatenate([s_hat, t_hat], axis=1))


# pairwise decision rule for the partial plan

def decision(j: int, l: int) -> int:
    """Slot that omits the symbol shared by connected slots j and l."""
    return min(j, l) if (j + l) % 2 == 0 else max(j, l)


def rbt_partial_plan(params: RbtParams, connected: Sequence[int]) -> DownloadPlan:
    """Plan transmitting exactly B symbols across the k connected nodes."""
    nodes = list(connected)
    check_nodes(params.n, nodes, params.k)
    k = params.k
    omit: dict[int, set[int]] = {j: set() for j in range(1, k + 1)}
    for j in range(1, k + 1):
        for l in range(j + 1, k + 1):
            chosen = decision(j, l)
            other = l if chosen == j else j
            omit[chosen].add(nodes[other - 1])
    positions = []
    for j, node in enumerate(nodes, start=1):
        cols = [c for c in range(1, params.n + 1) if c != node and c not in omit[j]]
        positions.append(tuple(cols))
    return DownloadPlan(scheme="rbt-pairwise", nodes=tuple(nodes),
                        order=tuple(range(1, k + 1)), positions=tuple(positions))


def extract_payloads(cw: RbtCodeword, plan: DownloadPlan) -> list[list[int]]:
    """What each planned node actually transmits, given the full codeword."""
    frags = cw.fragments()
    return [fragment_symbols(frags[node - 1], pos) for node, pos in zip(plan.nodes, plan.positions)]


def rbt_reconstruct_partial(params: RbtParams, plan: DownloadPlan, payloads,
                            counter: OpCounter | None = None) -> list[int]:
    """Reassemble the k full rows via symmetry, then reconstruct as usual."""
    payloads = plan.check_payloads(payloads, params.n)
    n, nodes = params.n, plan.nodes
    check_nodes(n, nodes, params.k)
    rows = [node - 1 for node, pos in zip(nodes, plan.positions) for _ in pos]
    cols = [c - 1 for pos in plan.positions for c in pos]
    a = np.zeros((n, n), dtype=np.int64)
    sent = np.eye(n, dtype=bool)  # no node stores its diagonal zero
    a[rows, cols] = params.field.varray([v for pay in payloads for v in pay])
    sent[rows, cols] = True
    # a shared symbol one node leaves out is read off the other's mirror entry
    a = np.where(sent, a, a.T)
    picked = [i - 1 for i in nodes]
    held = (sent | sent.T)[picked]
    if not held.all():
        r, c = np.argwhere(~held)[0]
        raise PlanPayloadMismatch(f"plan leaves out the symbol nodes {nodes[r]} and {c + 1} share")
    return _read_rows(params, nodes, a[picked], counter)
