"""Product-matrix MBR codes with node repair and partial downloading.

The B message symbols fill a symmetric d x d message matrix
M = [[S, T], [T^t, 0]]; node i stores row i of C = Psi M for an n x d
encoding matrix Psi = [Phi Delta] satisfying: any d rows of Psi are
independent, and any k rows of Phi are independent.  Two backends build
Psi: the partially systematic Reed-Solomon generator (first k rows are
[I_k 0], so the code is systematic) and a plain Vandermonde matrix.

Repair: each of d helpers sends the inner product of its row with the
failed node's encoding row; the collected vector equals
Psi_repair M psi_f, and one d x d solve returns the lost fragment.

Reconstruction: k rows give C_DC = Psi_DC M; T is solved first from the
Delta columns, then S from the rest.  The partial schemes download only
the Delta columns plus one triangular half of the Phi columns (exactly B
symbols) and recover S column by column, reusing already-solved rows of
S through its symmetry; a time-sharing schedule alternates the lower and
upper halves to balance per-node traffic across rounds.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import lru_cache
from random import Random
from typing import Sequence

import numpy as np

from .counting import OpCounter
from .errors import (
    DuplicateHelper,
    FieldTooSmall,
    IndexOutOfRange,
    ParamsInvalid,
    PlanPayloadMismatch,
    SchemeBackendMismatch,
    SingularMatrix,
    SingularStageMatrix,
    WrongFragmentCount,
    WrongHelperCount,
)
from .fragments import Fragment, check_nodes
from .gf import Field
from .matrix import (
    FieldMatrix,
    check_message,
    data_collector,
    hstack,
    mat_inv,
    mat_mul,
    mat_solve,
    solve_message_block,
    submatrix_rows,
    symmetric_from_triangle,
    transpose,
    triangle,
    vandermonde,
)
from .plans import DownloadPlan
from .psrs import PsrsMessage, encode_eval, eval_params, generator_matrix

BACKENDS = ("psrs", "vandermonde")


@dataclass(frozen=True)
class MbrParams:
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
    def alpha(self) -> int:
        return self.d

    @property
    def beta(self) -> int:
        return 1

    @property
    def B(self) -> int:
        return self.k * (self.k + 1) // 2 + self.k * (self.d - self.k)

    @property
    def codec(self) -> str:
        return "mbr-psrs" if self.backend == "psrs" else "mbr-vdm"


def _message_slots(params: MbrParams) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the message symbols in the combined k x d block [S T]:
    its upper triangle including the diagonal."""
    return triangle(params.k, 0, params.d)


def mbr_build_message(params: MbrParams, u: Sequence[int]) -> FieldMatrix:
    """Symmetric d x d message matrix holding the B message symbols."""
    u = check_message(params.field, u, params.B)
    return symmetric_from_triangle(params.field, params.d, _message_slots(params), u)


def message_from_block(params: MbrParams, block: FieldMatrix) -> list[int]:
    return block.a[_message_slots(params)].tolist()


@lru_cache(maxsize=None)
def _psrs_params(params: MbrParams):
    return eval_params(params.field, params.n, params.k, params.d, ntt=params.ntt)


def _validate_conditions(params: MbrParams, psi: FieldMatrix) -> None:
    """Check both encoding-matrix conditions: exhaustively for n <= 10,
    by random subset sampling above."""
    import itertools

    n, k, d = params.n, params.k, params.d
    phi = FieldMatrix(psi.field, psi.a[:, :k])
    if n <= 10:
        d_subsets = itertools.combinations(range(n), d)
        k_subsets = itertools.combinations(range(n), k)
    else:
        rng = Random(0xC0DE ^ n)
        samples = 10 if n <= 64 else 2
        d_subsets = [tuple(sorted(rng.sample(range(n), d))) for _ in range(samples)]
        k_subsets = [tuple(sorted(rng.sample(range(n), k))) for _ in range(samples)]
    try:
        for rows in d_subsets:
            mat_inv(submatrix_rows(psi, rows))
        for rows in k_subsets:
            mat_inv(submatrix_rows(phi, rows))
    except SingularMatrix as exc:
        raise SingularMatrix(
            f"encoding matrix violates the MBR conditions for (n={n}, k={k}, d={d})"
        ) from exc


@lru_cache(maxsize=None)
def mbr_build_encoding(params: MbrParams) -> FieldMatrix:
    """n x d encoding matrix for the chosen backend, validated on build."""
    if params.backend == "psrs":
        psi = generator_matrix(_psrs_params(params))
    else:
        psi = vandermonde(params.field, params.n, params.d)
    _validate_conditions(params, psi)
    return psi


def psi_row(params: MbrParams, node: int) -> list[int]:
    if not 1 <= node <= params.n:
        raise IndexOutOfRange(f"node {node} outside [1, {params.n}]")
    return mbr_build_encoding(params).row(node - 1)


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

def mbr_encode(params: MbrParams, u: Sequence[int],
               counter: OpCounter | None = None) -> list[Fragment]:
    """Native encoding: one n x d by d x d matrix product."""
    m = mbr_build_message(params, u)
    psi = mbr_build_encoding(params)
    c = mat_mul(psi, m, counter)
    return [Fragment(params.codec, i + 1, tuple(c.row(i))) for i in range(params.n)]


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
    for i in range(params.d):
        col = m.col(i)
        msg = PsrsMessage(tuple(col[: params.k]), tuple(col[params.k:]))
        cols[:, i] = encode_eval(pp, msg, counter)
    c = FieldMatrix(params.field, cols)
    return [Fragment(params.codec, i + 1, tuple(c.row(i))) for i in range(params.n)]


# ---------------------------------------------------------------------------
# repair
# ---------------------------------------------------------------------------

def mbr_helper_response(fragment: Fragment, failed_row: Sequence[int], field: Field,
                        counter: OpCounter | None = None) -> int:
    """Scalar a helper sends: inner product of its fragment with psi_failed."""
    if len(fragment.symbols) != len(failed_row):
        raise WrongFragmentCount(
            f"fragment length {len(fragment.symbols)} vs encoding row length {len(failed_row)}"
        )
    acc = 0
    for a, b in zip(fragment.symbols, failed_row):
        acc = field.add(acc, field.mul(a, b))
    if counter is not None:
        counter.count_mul(len(failed_row))
        counter.count_add(max(0, len(failed_row) - 1))
    return acc


def mbr_repair(params: MbrParams, responses: Sequence[tuple[int, int]], failed: int,
               counter: OpCounter | None = None) -> Fragment:
    """Exact repair of a lost fragment from d helper responses."""
    if not 1 <= failed <= params.n:
        raise IndexOutOfRange(f"node {failed} outside [1, {params.n}]")
    helpers = [h for h, _ in responses]
    if len(set(helpers)) != len(helpers):
        raise DuplicateHelper(f"duplicate helper in {helpers}")
    if failed in helpers:
        raise DuplicateHelper(f"failed node {failed} cannot help itself")
    if len(helpers) != params.d:
        raise WrongHelperCount(f"got {len(helpers)} helpers, need d={params.d}")
    for h in helpers:
        if not 1 <= h <= params.n:
            raise IndexOutOfRange(f"helper {h} outside [1, {params.n}]")
    psi = mbr_build_encoding(params)
    psi_repair = submatrix_rows(psi, [h - 1 for h in helpers])
    rhs = FieldMatrix(params.field, [[v] for _, v in responses])
    try:
        sol = mat_solve(psi_repair, rhs, counter)
    except SingularMatrix as exc:
        # cannot occur when the encoding-matrix conditions hold
        raise SingularMatrix("repair system singular; code construction broken") from exc
    return Fragment(params.codec, failed, tuple(sol.col(0)))


def repair_from_fragments(params: MbrParams, fragments: Sequence[Fragment], failed: int,
                          counter: OpCounter | None = None) -> Fragment:
    """Convenience: compute helper responses from whole fragments, then repair."""
    row = psi_row(params, failed)
    responses = [
        (f.node, mbr_helper_response(f, row, params.field, counter)) for f in fragments
    ]
    return mbr_repair(params, responses, failed, counter)


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
    """Greedy slot order: a node whose row of Phi is a unit vector e_s
    claims slot s, which satisfies the lower, upper and time-sharing
    constraints at once; the rest fill the remaining slots in ascending
    order."""
    k = params.k
    claimed = _claimed_slots(params)
    slots: dict[int, int] = {}
    taken = set()
    for node in nodes:
        if node in claimed:
            slots[node] = claimed[node]
            taken.add(claimed[node])
    free = [s for s in range(1, k + 1) if s not in taken]
    it = iter(free)
    order = []
    for node in nodes:
        if node in slots:
            order.append(slots[node])
        else:
            order.append(next(it))
    return tuple(order)


def mbr_reconstruct_full(params: MbrParams, fragments: Sequence[Fragment],
                         counter: OpCounter | None = None) -> list[int]:
    """Recover the B message symbols from any k complete fragments."""
    nodes = [fr.node for fr in fragments]
    check_nodes(params.n, nodes, params.k)
    for fr in fragments:
        if len(fr.symbols) != params.d:
            raise WrongFragmentCount(
                f"fragment of node {fr.node} has {len(fr.symbols)} symbols, expected {params.d}"
            )
    f, k = params.field, params.k
    if params.backend == "psrs" and sorted(nodes) == list(range(1, k + 1)):
        # systematic fast path: rows 1..k are [S T] verbatim
        rows = sorted(fragments, key=lambda fr: fr.node)
        return message_from_block(params, FieldMatrix(f, [fr.symbols for fr in rows]))
    order = assign_slots(params, nodes)
    c_dc = np.zeros((k, params.d), dtype=np.int64)
    c_dc[[g - 1 for g in order]] = [fr.symbols for fr in fragments]
    c_dc = FieldMatrix(f, c_dc)
    phi_dc, delta_dc = data_collector(mbr_build_encoding(params), k, nodes, order)
    s, t = solve_message_block(phi_dc, delta_dc, c_dc, skew=False, counter=counter)
    return message_from_block(params, hstack(s, t))


# ---------------------------------------------------------------------------
# partial downloading
# ---------------------------------------------------------------------------

PARTIAL_SCHEMES = ("lower", "upper", "gong")


def mbr_partial_plan(params: MbrParams, connected: Sequence[int], scheme: str) -> DownloadPlan:
    """Plan downloading the whole Delta part plus one triangular half of the
    Phi part: exactly B symbols."""
    if scheme not in PARTIAL_SCHEMES:
        raise ParamsInvalid(f"unknown partial scheme {scheme!r}")
    if scheme == "gong" and params.backend != "vandermonde":
        raise SchemeBackendMismatch("the gong scheme runs on the vandermonde backend")
    nodes = list(connected)
    check_nodes(params.n, nodes, params.k)
    k, d = params.k, params.d
    order = assign_slots(params, nodes)
    positions = []
    for g in order:
        phi_cols = range(1, g + 1) if scheme == "lower" else range(g, k + 1)
        positions.append(tuple(list(phi_cols) + list(range(k + 1, d + 1))))
    return DownloadPlan(scheme=scheme, nodes=tuple(nodes), order=order,
                        positions=tuple(positions))


def mbr_extract_payloads(fragments: Sequence[Fragment], plan: DownloadPlan) -> list[list[int]]:
    by_node = {f.node: f for f in fragments}
    out = []
    for node, pos in zip(plan.nodes, plan.positions):
        frag = by_node[node]
        out.append([frag.symbols[p - 1] for p in pos])
    return out


@dataclass(frozen=True)
class StageRecord:
    """One stage of the column-by-column S solve, for inspection."""

    scheme: str
    stage: int
    s_column: int                       # 1-based column of S solved
    matrix: FieldMatrix
    rhs: tuple[int, ...]
    solved: tuple[tuple[int, int], ...]  # new (row, col) message positions in S


def timeshare_scheme(phase: int) -> str:
    """Scheme of time-sharing round `phase`: lower on even rounds, upper on odd."""
    return "lower" if phase % 2 == 0 else "upper"


def mbr_timeshare_schedule(params: MbrParams, connected: Sequence[int],
                           rounds: int) -> list[DownloadPlan]:
    """Alternating lower/upper plans; over two consecutive rounds every node
    transmits 2d-(k-1) symbols."""
    if rounds < 1:
        raise ParamsInvalid("rounds must be >= 1")
    return [dataclasses.replace(mbr_partial_plan(params, connected, timeshare_scheme(r)), phase=r)
            for r in range(rounds)]


def mbr_reconstruct_partial(params: MbrParams, plan: DownloadPlan, payloads,
                            counter: OpCounter | None = None,
                            trace: list[StageRecord] | None = None) -> list[int]:
    """Stage-wise reconstruction from a partial download; output matches
    mbr_reconstruct_full exactly.

    Stage by stage one column c of S is solved, forward for `lower` and
    backward for `upper` and `gong`.  Row r of a stage system is e_r when
    column r is already known (S[r, c] = S[c, r] by symmetry) and row r of
    Phi_DC otherwise; `gong` substitutes the known entries out instead and
    solves only the rows and columns still to do.
    """
    if plan.scheme not in PARTIAL_SCHEMES:
        raise ParamsInvalid(f"plan scheme {plan.scheme!r} is not a partial scheme")
    payloads = plan.check_payloads(payloads, params.d)
    check_nodes(params.n, plan.nodes, params.k)
    f = params.field
    k, d = params.k, params.d
    phi_dc, delta_dc = data_collector(mbr_build_encoding(params), k, plan.nodes, plan.order)

    # scatter payloads: C^Delta is complete, C^Phi only on the plan's triangle
    c_delta = np.zeros((k, d - k), dtype=np.int64)
    c_phi = np.zeros((k, k), dtype=np.int64)
    downloaded = np.zeros((k, k), dtype=bool)
    for g, pos, pay in zip(plan.order, plan.positions, payloads):
        for p, v in zip(pos, pay):
            if p > k:
                c_delta[g - 1, p - k - 1] = f.check(v)
            else:
                c_phi[g - 1, p - 1] = f.check(v)
                downloaded[g - 1, p - 1] = True

    try:
        t = mat_solve(phi_dc, FieldMatrix(f, c_delta), counter)
    except SingularMatrix as exc:
        raise SingularMatrix("encoding-matrix conditions violated during reconstruction") from exc
    dt = mat_mul(delta_dc, transpose(t), counter)  # k x k
    d_phi = f.vsub(c_phi, dt.a)  # meaningful where downloaded
    if counter is not None:
        counter.count_add(int(downloaded.sum()))

    s = np.zeros((k, k), dtype=np.int64)
    known = np.zeros(k, dtype=bool)
    eye = np.eye(k, dtype=np.int64)
    columns = range(k) if plan.scheme == "lower" else range(k - 1, -1, -1)
    for stage, c in enumerate(columns, start=1):
        todo = np.flatnonzero(~known)
        if not downloaded[todo, c].all():
            raise PlanPayloadMismatch(f"plan leaves out C^Phi entries of column {c + 1}")
        rhs = np.where(known, s[:, c], d_phi[:, c])
        if plan.scheme == "gong":
            done = np.flatnonzero(known)
            rows = phi_dc.a[np.ix_(todo, todo)]
            known_part = f.matmul(phi_dc.a[np.ix_(todo, done)], s[done, c][:, None])
            rhs = f.vsub(rhs[todo], known_part[:, 0])
            if counter is not None:
                counter.count_mul(len(todo) * len(done))
                counter.count_add(len(todo) * len(done))
            unknowns = slice(None)
        else:
            rows = np.where(known[:, None], eye, phi_dc.a)
            unknowns = todo
        mat = FieldMatrix(f, rows)
        col = _solve_stage(mat, rhs, counter)[unknowns]
        s[todo, c] = col
        s[c, todo] = col
        known[c] = True
        if trace is not None:
            trace.append(StageRecord(
                scheme=plan.scheme, stage=stage, s_column=c + 1,
                matrix=mat, rhs=tuple(rhs.tolist()),
                solved=tuple((min(r, c) + 1, max(r, c) + 1) for r in todo.tolist()),
            ))
    block = np.concatenate([s, t.a], axis=1)
    return message_from_block(params, FieldMatrix(f, block))


def _solve_stage(mat: FieldMatrix, rhs: np.ndarray, counter: OpCounter | None) -> np.ndarray:
    try:
        sol = mat_solve(mat, FieldMatrix(mat.field, rhs[:, None]), counter)
    except SingularMatrix as exc:
        raise SingularStageMatrix(
            "stage matrix singular; slot ordering constraint violated"
        ) from exc
    return sol.a[:, 0]
