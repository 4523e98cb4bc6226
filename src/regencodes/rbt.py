"""Repair-by-transfer codes built from congruences of skew-symmetric matrices.

An (n, k, d=n-1) code stores the rows of a symmetric check matrix with zero
diagonal.  Encoding forms a skew-symmetric message matrix, applies the
congruent transformation by a square encoding matrix, then flips the sign of
the strictly lower triangle (sign_fix, a no-op in characteristic 2; a read
undoes it on its k rows).  Because rows and columns of a symmetric matrix
agree, a lost row is rebuilt by pure placement of one stored symbol from
each surviving node: repair performs zero field operations.

Phi, the first k columns of the encoding matrix [Phi | (0; I)], is
extended Vandermonde for rbt.  rbt-sys's Phi is the Lagrange basis at the
first k of the same kind of points (matrix.systematic_generator, no
elimination), so it embeds the source block verbatim in the first k rows
and computes only the trailing block V, which costs O(k(n-k)^2 + k^2(n-k))
multiplications instead of the two full n x n congruence products.

A pairwise decision rule drives the partial-download plan: for every
pair of connected nodes the shared symbol is transmitted exactly once,
so a data collector downloads exactly B symbols, balanced to within one
symbol per node.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .counting import OpCounter, charge
from .errors import FieldTooSmall, ParamsInvalid, WrongMessageLength
from .fragments import (
    Fragment,
    MbrPoint,
    assemble_rows,
    check_helpers,
    check_nodes,
    check_read,
    expand_rows,
    fragment_symbol,
    fragment_symbols,
    planned_fragments,
    stored_fragments,
)
from .gf import Field, enumerate_points
from .matrix import (
    check_message,
    collector_inverse,
    congruence,
    extended_points,
    extended_vandermonde,
    frozen,
    is_symmetric_zero_diag,
    mat_add,
    mat_mul,
    mat_sub,
    require_skew_symmetric,
    solve_message_block,
    symmetric_from_triangle,
    systematic_generator,
    triangle,
)
from .plans import DownloadPlan
from .poly import lagrange_basis
from .shah import ShahParams


@dataclass(frozen=True)
class RbtParams(MbrPoint):
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
    def codec(self) -> str:
        return "rbt-sys" if self.systematic else "rbt"


@dataclass(frozen=True, eq=False)
class RbtCodeword:
    """Symmetric zero-diagonal check matrix; row i is node i's fragment."""

    params: RbtParams
    check: np.ndarray  # read-only int64 array

    def __post_init__(self):
        if not is_symmetric_zero_diag(self.check) or len(self.check) != self.params.n:
            raise ValueError("check matrix must be n x n symmetric with zero diagonal")

    def fragments(self) -> list[Fragment]:
        return stored_fragments(self.params.codec, self.check)


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
def _sys_points(params: RbtParams) -> np.ndarray:
    """The finite evaluation points of rbt-sys, read-only: the canonical n
    points for n <= q, those of the extended code at n = q+1."""
    field, n = params.field, params.n
    return frozen(np.array(enumerate_points(field, n) if n <= field.q
                           else extended_points(field, n), dtype=np.int64))


@lru_cache(maxsize=None)
def rbt_build_encoding(params: RbtParams) -> np.ndarray:
    """Square encoding matrix [Phi | (0; I)], read-only, Phi as the module
    docstring says.  Block lower triangular over Phi_top and I, it is
    invertible: Phi_top is I for rbt-sys, else Vandermonde at k finite points."""
    field, n, k = params.field, params.n, params.k
    psi = np.zeros((n, n), dtype=np.int64)
    psi[:, :k] = (systematic_generator(field, n, k, _sys_points(params)) if params.systematic
                  else extended_vandermonde(field, n, k))
    psi[k:, k:] = np.eye(n - k, dtype=np.int64)
    return frozen(psi)


def parity_block(params: RbtParams) -> np.ndarray:
    """(n-k) x k parity rows of the systematic encoding block, read-only."""
    if not params.systematic:
        raise ParamsInvalid("parity block exists only in systematic mode")
    return rbt_build_encoding(params)[params.k:, :params.k]


@lru_cache(maxsize=None)
def _psi_t_inv(params: RbtParams) -> np.ndarray:
    """(Psi^t)^-1 from the block inverse Psi^-1 = [[A, 0], [-Phi_bot A, I]],
    A = Phi_top^-1: I for rbt-sys, the transposed Lagrange basis at the
    first k points for plain rbt.  Read-only."""
    field, n, k = params.field, params.n, params.k
    phi = rbt_build_encoding(params)[:, :k]
    if params.systematic:
        a = np.eye(k, dtype=np.int64)
    else:
        a = lagrange_basis(field, extended_points(field, n)[:k]).T
    out = np.eye(n, dtype=np.int64)
    out[:k, :k] = a.T
    out[:k, k:] = field.vneg(mat_mul(field, phi[k:], a).T)
    return frozen(out)


def sign_fix(params: RbtParams, rows: np.ndarray, nodes: Sequence[int],
             counter: OpCounter | None = None) -> np.ndarray:
    """Negate each row's entries left of its node's diagonal (a whole matrix's
    strictly lower triangle); its own inverse, the identity in characteristic 2."""
    field = params.field
    if field.characteristic == 2:
        return rows
    left = np.arange(rows.shape[1]) < np.asarray(nodes)[:, None] - 1
    charge(counter, add=int(left.sum()))
    return np.where(left, field.vneg(rows), rows)


def _codeword(params: RbtParams, c_hat: np.ndarray, counter: OpCounter | None) -> RbtCodeword:
    return RbtCodeword(params, frozen(sign_fix(params, c_hat, range(1, params.n + 1), counter)))


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
    if field.characteristic != 2:
        charge(counter, add=u_r.size)  # negating U_R^t
    return _codeword(params, np.block([[u_l, u_r], [field.vneg(u_r.T), v]]), counter)


# ---------------------------------------------------------------------------
# repair
# ---------------------------------------------------------------------------

def rbt_repair(params: RbtParams | ShahParams, responses: Sequence[tuple[int, int]],
               failed: int, counter: OpCounter | None = None) -> Fragment:
    """Rebuild the failed node's row of an rbt, rbt-sys or shah code by
    placement only: each of the other n-1 nodes sends the symbol it stores
    in the failed node's column, which symmetry makes the failed row's
    entry in the helper's column.  No field operation runs, so `counter`
    is never charged."""
    check_helpers(params, [node for node, _ in responses], failed)
    frag = Fragment(params.codec, failed, [symbol for _, symbol in sorted(responses)])
    params.field.varray(frag.symbols)  # a response outside the field raises ValueError
    return frag


# ---------------------------------------------------------------------------
# data reconstruction
# ---------------------------------------------------------------------------

def rbt_reconstruct_full(params: RbtParams, fragments: Sequence[Fragment],
                         counter: OpCounter | None = None) -> list[int]:
    """Recover the B message symbols from any k complete fragments."""
    nodes = check_read(params, fragments)
    return _read_rows(params, nodes, expand_rows(fragments, params.n, params.field), counter)


def _read_rows(params: RbtParams, nodes: Sequence[int], rows: np.ndarray,
               counter: OpCounter | None) -> list[int]:
    """The message from the checked full check-matrix rows of k nodes."""
    field, k = params.field, params.k
    if params.systematic and sorted(nodes) == list(range(1, k + 1)):
        # systematic fast path: source symbols are stored verbatim
        return message_from_block(params, rows[np.argsort(nodes)])

    # undoing the sign fix and Psi^t leaves Psi_DC M for the skew message M
    c_hat_dc = sign_fix(params, rows, nodes, counter)
    d_dc = mat_mul(field, c_hat_dc, _psi_t_inv(params), counter)
    psi, picked = rbt_build_encoding(params), [i - 1 for i in nodes]
    # rbt-sys's Phi is the Lagrange basis at the first k of n <= q finite points
    points = _sys_points(params) if params.systematic and params.n <= field.q else None
    phi_inv = collector_inverse(field, psi[:, :k], points, picked, counter)
    delta_dc = psi[picked, k:]
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
    held = set(nodes)
    unconnected = [c for c in range(1, params.n + 1) if c not in held]
    positions = []
    for j in range(1, k + 1):
        # by `decision`, slot j sends the symbol it shares with slot l when
        # l > j and j+l is odd, or l < j and j+l is even
        cols = unconnected + nodes[j::2] + (nodes[j - 3::-2] if j > 2 else [])
        cols.sort()
        positions.append(tuple(cols))
    return DownloadPlan(scheme="rbt-pairwise", nodes=tuple(nodes), positions=tuple(positions))


def extract_payloads(fragments: Sequence[Fragment], plan: DownloadPlan) -> list[list[int]]:
    """What each planned node transmits, from the fragments of the planned nodes."""
    frags = planned_fragments(fragments, plan.nodes)
    return [fragment_symbols(frag, pos) for frag, pos in zip(frags, plan.positions)]


def rbt_reconstruct_partial(params: RbtParams, plan: DownloadPlan, payloads,
                            counter: OpCounter | None = None) -> list[int]:
    """Reassemble the k full rows via symmetry, then reconstruct as usual."""
    values = plan.check_payloads(payloads, params.n)
    check_nodes(params.n, plan.nodes, params.k)
    slots, positions = plan.flat
    rows = assemble_rows(plan.nodes, params.n, params.field, slots, positions - 1, values)
    return _read_rows(params, plan.nodes, rows, counter)
