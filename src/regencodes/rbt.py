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
    ParamsInvalid,
    PlanPayloadMismatch,
    SingularMatrix,
    WrongMessageLength,
)
from .fragments import (
    Fragment,
    check_nodes,
    expand_row,
    fragment_symbol,
    stored_fragment,
    transfer_repair,
)
from .gf import Field
from .matrix import (
    FieldMatrix,
    check_message,
    collector_inverse,
    congruence,
    data_collector,
    extended_vandermonde,
    hstack,
    identity,
    is_symmetric_zero_diag,
    mat_add,
    mat_inv,
    mat_mul,
    mat_neg,
    mat_sub,
    require_skew_symmetric,
    solve_message_block,
    submatrix_rows,
    symmetric_from_triangle,
    transpose,
    triangle,
    vandermonde,
    vstack,
    zeros,
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
        if not is_symmetric_zero_diag(self.check) or self.check.rows != self.params.n:
            raise ValueError("check matrix must be n x n symmetric with zero diagonal")

    def fragment(self, node: int) -> Fragment:
        return stored_fragment(self.params.codec, self.check.a, node)

    def fragments(self) -> list[Fragment]:
        return [self.fragment(i) for i in range(1, self.params.n + 1)]


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def _message_slots(params: RbtParams) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the message symbols in the combined k x n block [S T]:
    its strict upper triangle."""
    return triangle(params.k, 1, params.n)


def rbt_build_message(params: RbtParams, u: Sequence[int]) -> FieldMatrix:
    """Skew-symmetric n x n message matrix from the B message symbols."""
    u = check_message(params.field, u, params.B)
    return symmetric_from_triangle(params.field, params.n, _message_slots(params), u, skew=True)


def message_from_block(params: RbtParams, block: FieldMatrix) -> list[int]:
    """Inverse of the message layout: read B symbols out of a k x n block."""
    return block.a[_message_slots(params)].tolist()


@lru_cache(maxsize=None)
def _phi(params: RbtParams) -> FieldMatrix:
    """n x k block: extended Vandermonde, or its systematic row reduction."""
    field, n, k = params.field, params.n, params.k
    if not params.systematic:
        return extended_vandermonde(field, n, k)
    if n <= field.q:
        v = vandermonde(field, n, k)
    else:
        v = extended_vandermonde(field, n, k)
    top = submatrix_rows(v, range(k))
    try:
        reduced = mat_mul(v, mat_inv(top))
    except SingularMatrix as exc:
        raise SingularMatrix(f"systematic reduction infeasible for (n={n}, k={k})") from exc
    return reduced


def parity_block(params: RbtParams) -> FieldMatrix:
    """(n-k) x k parity rows of the systematic encoding block."""
    if not params.systematic:
        raise ParamsInvalid("parity block exists only in systematic mode")
    return submatrix_rows(_phi(params), range(params.k, params.n))


@lru_cache(maxsize=None)
def rbt_build_encoding(params: RbtParams) -> FieldMatrix:
    """Square encoding matrix [Phi | (0; I)]; validated non-singular."""
    field, n, k = params.field, params.n, params.k
    phi = _phi(params)
    delta = vstack(zeros(field, k, n - k), identity(field, n - k))
    psi = hstack(phi, delta)
    mat_inv(psi)  # raises SingularMatrix if the construction failed
    return psi


@lru_cache(maxsize=None)
def _psi_t_inv(params: RbtParams) -> FieldMatrix:
    return mat_inv(transpose(rbt_build_encoding(params)))


def sign_fix(params: RbtParams, c_hat: FieldMatrix, counter: OpCounter | None = None) -> FieldMatrix:
    """Negate the strictly lower triangle; identity pathway in characteristic 2."""
    field = params.field
    if field.characteristic == 2:
        return c_hat
    a = c_hat.a.copy()
    low = np.tril_indices(a.shape[0], k=-1)
    a[low] = field.vneg(a[low])
    if counter is not None:
        counter.count_add(len(low[0]))
    return FieldMatrix(field, a)


def _unfix_rows(params: RbtParams, rows: list[list[int]], nodes: Sequence[int],
                counter: OpCounter | None) -> FieldMatrix:
    """Inverse sign fix applied to full rows of the check matrix."""
    field = params.field
    a = np.array(rows, dtype=np.int64)
    if field.characteristic != 2:
        for r, node in enumerate(nodes):
            if node > 1:
                a[r, : node - 1] = field.vneg(a[r, : node - 1])
                if counter is not None:
                    counter.count_add(node - 1)
    return FieldMatrix(field, a)


def rbt_encode(params: RbtParams, u: Sequence[int], counter: OpCounter | None = None) -> RbtCodeword:
    """Congruence encoding: check matrix from the B message symbols."""
    m_hat = rbt_build_message(params, u)
    psi = rbt_build_encoding(params)
    return RbtCodeword(params, sign_fix(params, congruence(psi, m_hat, counter), counter))


def source_block(params: RbtParams, u: Sequence[int]) -> FieldMatrix:
    """k x n source block [U_L U_R] with U_L skew-symmetric, from B source symbols:
    the first k rows of the message matrix."""
    return FieldMatrix(params.field, rbt_build_message(params, u).a[: params.k])


def rbt_encode_systematic(params: RbtParams, block: FieldMatrix,
                          counter: OpCounter | None = None) -> RbtCodeword:
    """Systematic encoding: the source block becomes the first k rows.

    Only the trailing (n-k) x (n-k) block V = P U_R - (P U_R)^t - P U_L P^t
    is computed, P being the parity rows of the systematic encoding block.
    """
    if not params.systematic:
        raise ParamsInvalid("params are not in systematic mode")
    field, n, k = params.field, params.n, params.k
    if block.rows != k or block.cols != n:
        raise WrongMessageLength(f"source block is {block.rows}x{block.cols}, expected {k}x{n}")
    u_l = FieldMatrix(field, block.a[:, :k])
    u_r = FieldMatrix(field, block.a[:, k:])
    require_skew_symmetric(u_l)
    p = parity_block(params)
    pur = mat_mul(p, u_r, counter)
    pul = mat_mul(p, u_l, counter)
    v = mat_sub(mat_sub(pur, transpose(pur), counter), mat_mul(pul, transpose(p), counter), counter)
    top = hstack(u_l, u_r)
    bottom = hstack(mat_neg(transpose(u_r), counter), v)
    return RbtCodeword(params, sign_fix(params, vstack(top, bottom), counter))


def remapped_message(params: RbtParams, block: FieldMatrix) -> list[int]:
    """Message vector whose congruence encoding equals the systematic encoding.

    Solves the systematic conditions S = U_L and S P^t + T = U_R.
    """
    field, k = params.field, params.k
    u_l = FieldMatrix(field, block.a[:, :k])
    u_r = FieldMatrix(field, block.a[:, k:])
    p = parity_block(params)
    t = mat_sub(u_r, mat_mul(u_l, transpose(p)))
    return message_from_block(params, hstack(u_l, t))


def source_from_codeword(cw: RbtCodeword) -> list[int]:
    """Read the source symbols back out of a systematic codeword."""
    return message_from_block(cw.params, cw.check)


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
    k = params.k
    rows = [expand_row(f, params.n) for f in fragments]
    if params.systematic and sorted(nodes) == list(range(1, k + 1)):
        # systematic fast path: source symbols are stored verbatim
        block = FieldMatrix(params.field, [row for _, row in sorted(zip(nodes, rows))])
        return message_from_block(params, block)

    # undoing the sign fix and Psi^t leaves Psi_DC M for the skew message M
    c_hat_dc = _unfix_rows(params, rows, nodes, counter)
    d_dc = mat_mul(c_hat_dc, _psi_t_inv(params), counter)
    phi_dc, delta_dc = data_collector(rbt_build_encoding(params), k, nodes, range(1, k + 1))
    phi_inv = collector_inverse(phi_dc, counter)
    s_hat, t_hat = solve_message_block(phi_inv, delta_dc, d_dc, skew=True, counter=counter)
    if params.systematic:
        # undo the message remapping: the stored source block is [S, S P^t + T]
        p = parity_block(params)
        u_r = mat_add(mat_mul(s_hat, transpose(p), counter), t_hat, counter)
        return message_from_block(params, hstack(s_hat, u_r))
    return message_from_block(params, hstack(s_hat, t_hat))


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
    out = []
    for node, pos in zip(plan.nodes, plan.positions):
        frag = cw.fragment(node)
        out.append([fragment_symbol(frag, c) for c in pos])
    return out


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
    a[rows, cols] = [v for pay in payloads for v in pay]
    sent[rows, cols] = True
    # a shared symbol one node leaves out is read off the other's mirror entry
    a = np.where(sent, a, a.T)
    held = (sent | sent.T)[[i - 1 for i in nodes]]
    if not held.all():
        r, c = np.argwhere(~held)[0]
        raise PlanPayloadMismatch(f"plan leaves out the symbol nodes {nodes[r]} and {c + 1} share")
    fragments = [stored_fragment(params.codec, a, node) for node in nodes]
    return rbt_reconstruct_full(params, fragments, counter)
