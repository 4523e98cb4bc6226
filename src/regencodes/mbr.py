"""Product-matrix MBR codes with node repair and partial downloading.

The B message symbols fill a symmetric d x d message matrix
M = [[S, T], [T^t, 0]]; node i stores row i of C = Psi M for an n x d
encoding matrix Psi = [Phi Delta] satisfying: any d rows of Psi are
independent, and any k rows of Phi are independent.  Two backends build
Psi: the partially systematic Reed-Solomon generator (first k rows are
[I_k 0], so the code is systematic) and a plain Vandermonde matrix.  Both
evaluate a basis of the polynomials of degree < d at n distinct points,
so the conditions hold by construction; the tests and `regencodes
selftest` check them, not the build.  Only the first has a column-wise
PSRS encoder: mbr_encode_columns raises SchemeBackendMismatch on the other.

Repair: each of d helpers sends the inner product of its row with the
failed node's encoding row; the collected vector equals
Psi_repair M psi_f, and one d x d solve returns the lost fragment.

Reconstruction: k rows give C_DC = Psi_DC M, row j from the j-th node
read; T is solved first from the Delta columns, then S from the rest.
The partial schemes download only the Delta columns plus one triangular
half of the Phi columns (exactly B symbols) and recover S column by
column, reusing already-solved rows of S through its symmetry; a
time-sharing schedule alternates the lower and upper halves to balance
per-node traffic across rounds.  Which node fills which row matters only
there: a partial plan lists its nodes in the slot order assign_slots
picks, and node j of the plan fills row j of Phi_DC.  The stages share
one LU of Phi_DC without pivoting, so an order that leaves a stage block
singular raises SingularStageMatrix.

Workloads repeat helper sets and node sets, so the repair inverse, the
full-read inverse and the partial-read factorization (a
`matrix.FactoredInverse`) are cached per set in small bounded caches, each
entry with the counted cost of building it, charged on every call: a hit
counts the same as a miss.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .counting import OpCounter, charge
from .errors import (
    FieldTooSmall,
    IndexOutOfRange,
    ParamsInvalid,
    PlanPayloadMismatch,
    SchemeBackendMismatch,
    SingularMatrix,
    SingularStageMatrix,
    WrongFragmentCount,
)
from .fragments import (
    Fragment,
    MbrPoint,
    check_helpers,
    check_nodes,
    check_read,
    planned_fragments,
    row_fragments,
    trusted_fragment,
)
from .gf import Field
from .matrix import (
    FactoredInverse,
    FieldMatrix,
    check_message,
    collector_inverse,
    frozen,
    lu_inverses,
    mat_inv,
    mat_mul,
    mat_solve,
    solve_cost,
    solve_message_block,
    symmetric_from_triangle,
    triangle,
    vandermonde,
)
from .plans import DownloadPlan
from .psrs import PsrsMessage, encode_eval, eval_params, generator_matrix

BACKENDS = ("psrs", "vandermonde")

# entries per cache of helper-set and node-set matrices
_SET_CACHE_SIZE = 8


@dataclass(frozen=True)
class MbrParams(MbrPoint):
    """Validated (n, k, d) parameter set at the unit-bandwidth MBR point."""

    field: Field
    n: int
    k: int
    d: int
    backend: str = "psrs"
    ntt: bool = False

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ParamsInvalid(f"unknown backend {self.backend!r}")
        if not 1 <= self.k <= self.d <= self.n - 1:
            raise ParamsInvalid(
                f"need 1 <= k <= d <= n-1, got (n={self.n}, k={self.k}, d={self.d})"
            )
        if self.n > self.field.q:
            raise FieldTooSmall(f"n={self.n} exceeds field size {self.field.q}")
        if self.ntt and (self.field.kind != "fermat" or self.backend != "psrs"):
            raise ParamsInvalid("ntt mode requires the Fermat field and the psrs backend")

    @property
    def codec(self) -> str:
        return "mbr-psrs" if self.backend == "psrs" else "mbr-vdm"


def _message_slots(params: MbrParams) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the message symbols in the combined k x d block [S T]:
    its upper triangle including the diagonal."""
    return triangle(params.k, 0, params.d)


def mbr_build_message(params: MbrParams, u: Sequence[int]) -> np.ndarray:
    """Symmetric d x d message matrix holding the B message symbols."""
    u = check_message(params.field, u, params.B)
    return symmetric_from_triangle(params.field, params.d, _message_slots(params), u)


def message_from_block(params: MbrParams, block: np.ndarray) -> list[int]:
    return block[_message_slots(params)].tolist()


@lru_cache(maxsize=None)
def _psrs_params(params: MbrParams):
    return eval_params(params.field, params.n, params.k, params.d, ntt=params.ntt)


@lru_cache(maxsize=None)
def _psrs_points(params: MbrParams) -> np.ndarray:
    return frozen(np.array(_psrs_params(params).points, dtype=np.int64))


@lru_cache(maxsize=None)
def mbr_build_encoding(params: MbrParams) -> np.ndarray:
    """n x d encoding matrix for the chosen backend, read-only.  Any d rows
    (any k rows of Phi) are a Vandermonde matrix at distinct points times
    an invertible change of basis, so both conditions hold by construction."""
    if params.backend == "psrs":
        return generator_matrix(_psrs_params(params))
    return frozen(vandermonde(params.field, params.n, params.d))


def psi_row(params: MbrParams, node: int) -> np.ndarray:
    """Node's row of Psi, read-only."""
    if not 1 <= node <= params.n:
        raise IndexOutOfRange(f"node {node} outside [1, {params.n}]")
    return mbr_build_encoding(params)[node - 1]


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

def mbr_encode(params: MbrParams, u: Sequence[int],
               counter: OpCounter | None = None) -> list[Fragment]:
    """Native encoding: one n x d by d x d matrix product."""
    m = mbr_build_message(params, u)
    c = mat_mul(params.field, mbr_build_encoding(params), m, counter)
    return row_fragments(params.codec, c)


def mbr_encode_columns(params: MbrParams, u: Sequence[int],
                       counter: OpCounter | None = None) -> list[Fragment]:
    """Column-wise encoding through the PSRS encoder.

    Each column of M is one PSRS message; with ntt params the evaluations
    run through the number-theoretic transform, cutting the operation
    count for large n.  Output is identical to mbr_encode.
    """
    if params.backend != "psrs":
        raise SchemeBackendMismatch("column-wise encoding requires the psrs backend")
    m = mbr_build_message(params, u)
    pp = _psrs_params(params)
    cols = np.empty((params.n, params.d), dtype=np.int64)
    for i, col in enumerate(m.T.tolist()):
        msg = PsrsMessage(tuple(col[: params.k]), tuple(col[params.k:]))
        cols[:, i] = encode_eval(pp, msg, counter)
    return row_fragments(params.codec, cols)


# ---------------------------------------------------------------------------
# repair
# ---------------------------------------------------------------------------

def mbr_helper_response(fragment: Fragment, failed_row: Sequence[int] | np.ndarray,
                        field: Field, counter: OpCounter | None = None) -> int:
    """Scalar a helper sends: inner product of its fragment with psi_failed."""
    symbols = fragment.symbols
    if len(symbols) != len(failed_row):
        raise WrongFragmentCount(
            f"fragment length {len(symbols)} vs encoding row length {len(failed_row)}"
        )
    field.varray(symbols)  # a symbol outside the field raises ValueError
    charge(counter, len(failed_row), max(0, len(failed_row) - 1))
    return field.dot(symbols, failed_row)


def mbr_repair(params: MbrParams, responses: Sequence[tuple[int, int]], failed: int,
               counter: OpCounter | None = None) -> Fragment:
    """Exact repair of a lost fragment from d helper responses."""
    helpers = [h for h, _ in responses]
    check_helpers(params, helpers, failed)
    values = params.field.varray([v for _, v in responses])[:, None]
    inv, cost = _repair_inverse(params, tuple(helpers))
    charge(counter, *cost)
    return trusted_fragment(params.codec, failed, frozen(params.field.matmul(inv, values)[:, 0]))


@lru_cache(maxsize=_SET_CACHE_SIZE)
def _repair_inverse(params: MbrParams, helpers: tuple[int, ...]
                    ) -> tuple[np.ndarray, tuple[int, int]]:
    """Psi_repair^-1 for the helpers in this order, with the cost of the
    d x d Gauss-Jordan solve it stands for."""
    psi = mbr_build_encoding(params)
    inv = mat_inv(FieldMatrix(params.field, psi[[h - 1 for h in helpers]]))
    return frozen(inv), solve_cost(params.d, 1)


# ---------------------------------------------------------------------------
# full reconstruction
# ---------------------------------------------------------------------------

def _claimed_slots(params: MbrParams) -> dict[int, int]:
    """Nodes whose row of Phi pins their slot.

    A systematic psrs row is e_i and claims slot i.  A Vandermonde row at
    the point 0 (node n, present only when n = q) is e_1: in any slot
    after the first, the lower stages would see e_1 twice, so it claims
    slot 1, whose column the first stage solves.
    """
    if params.backend == "psrs":
        return {i: i for i in range(1, params.k + 1)}
    return {params.n: 1} if params.n == params.field.q else {}


def assign_slots(params: MbrParams, nodes: Sequence[int]) -> tuple[int, ...]:
    """The k nodes in slot order, greedily: a node whose row of Phi is a
    unit vector e_s claims slot s, which satisfies the lower, upper and
    time-sharing constraints at once; the rest fill the remaining slots in
    list order."""
    claimed = _claimed_slots(params)
    by_slot = {claimed[i]: i for i in nodes if i in claimed}
    rest = iter([i for i in nodes if i not in claimed])
    return tuple(by_slot[s] if s in by_slot else next(rest) for s in range(1, params.k + 1))


def mbr_reconstruct_full(params: MbrParams, fragments: Sequence[Fragment],
                         counter: OpCounter | None = None) -> list[int]:
    """Recover the B message symbols from any k complete fragments."""
    nodes = check_read(params, fragments)
    f, k = params.field, params.k
    rows = f.varray(np.stack([fr.symbols for fr in fragments]))
    if params.backend == "psrs" and sorted(nodes) == list(range(1, k + 1)):
        # systematic fast path: rows 1..k are [S T] verbatim
        return message_from_block(params, rows[np.argsort(nodes)])
    # any row order gives the same S and T: row j of C_DC is node j's
    delta_dc = mbr_build_encoding(params)[[i - 1 for i in nodes], k:]
    phi_inv, cost = _collector_inverse(params, tuple(nodes))
    charge(counter, *cost)
    s, t = solve_message_block(f, phi_inv, delta_dc, rows, skew=False, counter=counter)
    return message_from_block(params, np.concatenate([s, t], axis=1))


@lru_cache(maxsize=_SET_CACHE_SIZE)
def _collector_inverse(params: MbrParams, nodes: tuple[int, ...]
                       ) -> tuple[np.ndarray, tuple[int, int]]:
    """Phi_DC^-1 of the nodes in this order, with its cost: in closed form
    for psrs, whose Phi is the Lagrange basis at its first k points, by
    Gauss-Jordan for the Vandermonde backend."""
    cost = OpCounter()
    points = _psrs_points(params) if params.backend == "psrs" else None
    phi_inv = collector_inverse(params.field, mbr_build_encoding(params)[:, :params.k], points,
                                [i - 1 for i in nodes], cost)
    return frozen(phi_inv), (cost.mul, cost.add)


# ---------------------------------------------------------------------------
# partial downloading
# ---------------------------------------------------------------------------

PARTIAL_SCHEMES = ("lower", "upper")


def mbr_partial_plan(params: MbrParams, connected: Sequence[int], scheme: str) -> DownloadPlan:
    """Plan downloading the whole Delta part plus one triangular half of the
    Phi part: exactly B symbols."""
    if scheme not in PARTIAL_SCHEMES:
        raise ParamsInvalid(f"unknown partial scheme {scheme!r}")
    check_nodes(params.n, connected, params.k)
    k, d = params.k, params.d
    lower, delta = scheme == "lower", tuple(range(k + 1, d + 1))
    positions = tuple(tuple(range(1, g + 1) if lower else range(g, k + 1)) + delta
                      for g in range(1, k + 1))
    return DownloadPlan(scheme=scheme, nodes=assign_slots(params, connected),
                        positions=positions)


def mbr_extract_payloads(fragments: Sequence[Fragment], plan: DownloadPlan) -> list[list[int]]:
    """What each planned node transmits; every position must lie in its fragment."""
    frags = planned_fragments(fragments, plan.nodes)
    plan.check_positions(min((len(fr.symbols) for fr in frags), default=0))
    # a list gather from one tolist per row: cheaper than numpy fancy
    # indexing at d of a few dozen
    rows = [fr.symbols.tolist() for fr in frags]
    return [[row[p - 1] for p in pos] for row, pos in zip(rows, plan.positions)]


@dataclass(frozen=True, eq=False)
class StageRecord:
    """One stage of the column-by-column S solve, for inspection."""

    scheme: str
    stage: int
    s_column: int                       # 1-based column of S solved
    matrix: np.ndarray                  # read-only int64 array
    rhs: tuple[int, ...]
    solved: tuple[tuple[int, int], ...]  # new (row, col) message positions in S


def timeshare_scheme(phase: int) -> str:
    """Scheme of time-sharing round `phase`: lower on even rounds, upper on odd."""
    return "lower" if phase % 2 == 0 else "upper"


def mbr_reconstruct_partial(params: MbrParams, plan: DownloadPlan, payloads,
                            counter: OpCounter | None = None,
                            trace: list[StageRecord] | None = None) -> list[int]:
    """Stage-wise reconstruction from a partial download; output matches
    mbr_reconstruct_full exactly.

    Stage by stage one column c of S is solved, forward for `lower` and
    backward for `upper`.  The entries of column c already known through
    symmetry (S[r, c] = S[c, r]) are substituted out, which leaves a
    trailing block of Phi_DC for `lower` and a leading block for `upper`.
    One factorization of Phi_DC per node set holds the inverse of every
    such block as a pair of triangular blocks (see _stage_factors), so T
    and every stage are each one mat_solve of two triangular matrix-vector
    products.

    A `trace` list receives one StageRecord per stage: the system with the
    unit row e_r for every known entry r and row r of Phi_DC otherwise.
    """
    if plan.scheme not in PARTIAL_SCHEMES:
        raise ParamsInvalid(f"plan scheme {plan.scheme!r} is not a partial scheme")
    values = plan.check_payloads(payloads, params.d)
    check_nodes(params.n, plan.nodes, params.k)
    f = params.field
    k, d = params.k, params.d
    lower = plan.scheme == "lower"

    # scatter payloads into the row of their node: C^Delta is complete,
    # C^Phi only on the plan's triangle
    rows, positions = plan.flat
    cols = positions - 1
    c_dc = np.zeros((k, d), dtype=np.int64)
    c_dc[rows, cols] = f.varray(values)
    downloaded = np.zeros((k, d), dtype=bool)
    downloaded[rows, cols] = True

    psi_dc = mbr_build_encoding(params)[[i - 1 for i in plan.nodes]]
    phi, delta = psi_dc[:, :k], psi_dc[:, k:]
    columns = range(k) if lower else range(k - 1, -1, -1)
    # (unknown rows, known rows) of each stage's column
    parts = [(slice(c, None), slice(None, c)) if lower
             else (slice(None, c + 1), slice(c + 1, None)) for c in columns]
    # every C^Delta column and the scheme's triangle of C^Phi; the first
    # stage column left out is named, then the first Delta column
    needed = np.ones((k, d), dtype=bool)
    needed[:, :k] = (np.tril if lower else np.triu)(needed[:, :k])
    missing = (needed & ~downloaded).any(axis=0)
    if missing.any():
        c = next(c for c in [*columns, *range(k, d)] if missing[c])
        part = "Phi" if c < k else "Delta"
        raise PlanPayloadMismatch(f"plan leaves out C^{part} entries of column {c + 1}")

    inverse, cost = _stage_factors(params, plan.nodes, lower)
    charge(counter, *cost)
    t = mat_solve(inverse, c_dc[:, k:], counter)
    dt = f.matmul(delta, t.T)  # k x k
    d_phi = f.vsub(c_dc[:, :k], dt)  # meaningful where downloaded
    # the k x (d-k) by (d-k) x k product and the subtraction
    charge(counter, k * k * (d - k), k * k * max(0, d - k - 1) + int(downloaded[:, :k].sum()))

    s = np.zeros((k, k), dtype=np.int64)
    known = np.zeros(k, dtype=bool)
    for stage, (c, (todo, done)) in enumerate(zip(columns, parts), start=1):
        rhs = f.vsub(d_phi[todo, c], f.matmul(phi[todo, done], s[done, c][:, None])[:, 0])
        m = len(rhs)  # m unknowns: the substitution costs m(k-m) mul and add
        charge(counter, m * (k - m), m * (k - m))
        col = mat_solve(inverse.block(todo), rhs[:, None], counter)[:, 0]
        if trace is not None:
            trace.append(_stage_record(plan.scheme, stage, c, phi, s, d_phi, known))
        s[todo, c] = col
        s[c, todo] = col
        known[c] = True
    return message_from_block(params, np.concatenate([s, t], axis=1))


@lru_cache(maxsize=_SET_CACHE_SIZE)
def _stage_factors(params: MbrParams, nodes: tuple[int, ...], trailing: bool
                   ) -> tuple[FactoredInverse, tuple[int, int]]:
    """Factorize Phi_DC once for every stage of a partial read, with the
    cost of the factorization.

    A block of a triangular inverse is the inverse of that block whenever
    the block is leading (or trailing) on both sides.  `upper` stages
    solve leading blocks: with Phi_DC = L U, the block [:m, :m] is
    L[:m, :m] U[:m, :m], inverted by U^-1[:m, :m] L^-1[:m, :m].  `lower`
    stages solve trailing blocks: the LU of the reversed matrix,
    J Phi_DC J = L' U', gives Phi_DC = U L with U = J L' J and L = J U' J,
    and the block [c:, c:] is inverted by L^-1[c:, c:] U^-1[c:, c:].

    A singular leading (trailing) block, which is a singular stage system,
    gives the LU a zero pivot and raises SingularStageMatrix.
    """
    phi = mbr_build_encoding(params)[[i - 1 for i in nodes], :params.k]
    cost = OpCounter()
    try:
        lu = lu_inverses(params.field, phi[::-1, ::-1] if trailing else phi, cost)
    except SingularMatrix as exc:
        msg = "stage matrix singular; slot ordering constraint violated"
        raise SingularStageMatrix(msg) from exc
    if trailing:  # Phi_DC = J L' U' J = U L
        lu = FactoredInverse(lu.field, lu.first[::-1, ::-1], lu.second[::-1, ::-1])
    return lu, (cost.mul, cost.add)


def _stage_record(scheme: str, stage: int, c: int, phi: np.ndarray, s: np.ndarray,
                  d_phi: np.ndarray, known: np.ndarray) -> StageRecord:
    """Stage `stage`'s system before column c is filled in: the full
    system with unit rows for the known entries."""
    todo = np.flatnonzero(~known)
    matrix = np.where(known[:, None], np.eye(len(known), dtype=np.int64), phi)
    rhs = np.where(known, s[:, c], d_phi[:, c])
    return StageRecord(
        scheme=scheme, stage=stage, s_column=c + 1,
        matrix=frozen(matrix), rhs=tuple(rhs.tolist()),
        solved=tuple((min(r, c) + 1, max(r, c) + 1) for r in todo.tolist()),
    )
