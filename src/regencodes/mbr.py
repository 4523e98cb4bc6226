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

Workloads repeat helper sets and node sets, so the repair inverse, the
full-read inverse and the partial-read factorization are cached per set
in small bounded caches.  Each entry keeps the counted cost of building
it, charged on every call: a hit counts the same as a miss.
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
    DuplicateIndex,
    FieldTooSmall,
    IndexOutOfRange,
    InsufficientSymbols,
    ParamsInvalid,
    PlanPayloadMismatch,
    SchemeBackendMismatch,
    SingularMatrix,
    SingularStageMatrix,
    WrongFragmentCount,
    WrongHelperCount,
)
from .fragments import Fragment, check_nodes, row_fragments, trusted_fragment
from .gf import Field
from .matrix import (
    FactoredInverse,
    FieldMatrix,
    check_message,
    collector_inverse,
    data_collector,
    frozen,
    interpolation_inverse,
    inverse_differences,
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


def mbr_build_message(params: MbrParams, u: Sequence[int]) -> np.ndarray:
    """Symmetric d x d message matrix holding the B message symbols."""
    u = check_message(params.field, u, params.B)
    return symmetric_from_triangle(params.field, params.d, _message_slots(params), u)


def message_from_block(params: MbrParams, block: np.ndarray) -> list[int]:
    return block[_message_slots(params)].tolist()


@lru_cache(maxsize=None)
def _psrs_params(params: MbrParams):
    return eval_params(params.field, params.n, params.k, params.d, ntt=params.ntt)


def _validate_conditions(params: MbrParams, psi: np.ndarray) -> None:
    """Check both encoding-matrix conditions: exhaustively for n <= 10,
    by random subset sampling above."""
    import itertools

    n, k, d = params.n, params.k, params.d
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
            mat_inv(FieldMatrix(params.field, psi[list(rows)]))
        for rows in k_subsets:
            mat_inv(FieldMatrix(params.field, psi[list(rows), :k]))
    except SingularMatrix as exc:
        raise SingularMatrix(
            f"encoding matrix violates the MBR conditions for (n={n}, k={k}, d={d})"
        ) from exc


@lru_cache(maxsize=None)
def mbr_build_encoding(params: MbrParams) -> np.ndarray:
    """n x d encoding matrix for the chosen backend, validated on build;
    read-only."""
    if params.backend == "psrs":
        psi = generator_matrix(_psrs_params(params))
    else:
        psi = frozen(vandermonde(params.field, params.n, params.d))
    _validate_conditions(params, psi)
    return psi


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
    # read as unsigned, a negative symbol is at least 2^63 >= q
    if symbols.size and symbols.view(np.uint64).max() >= field.q:
        raise ValueError("array values outside field range")
    if counter is not None:
        counter.count_mul(len(failed_row))
        counter.count_add(max(0, len(failed_row) - 1))
    return field.dot(symbols, failed_row)


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
    f = params.field
    values = f.varray([v for _, v in responses])
    inv, cost = _repair_inverse(params, tuple(helpers))
    _charge(counter, cost)
    return trusted_fragment(params.codec, failed, frozen(f.matmul(inv, values[:, None])[:, 0]))


def _charge(counter: OpCounter | None, cost: tuple[int, int]) -> None:
    if counter is not None:
        counter.count_mul(cost[0])
        counter.count_add(cost[1])


@lru_cache(maxsize=_SET_CACHE_SIZE)
def _repair_inverse(params: MbrParams, helpers: tuple[int, ...]
                    ) -> tuple[np.ndarray, tuple[int, int]]:
    """Psi_repair^-1 for the helpers in this order, with the cost of the
    d x d Gauss-Jordan solve it stands for."""
    psi = mbr_build_encoding(params)
    try:
        inv = mat_inv(FieldMatrix(params.field, psi[[h - 1 for h in helpers]]))
    except SingularMatrix as exc:
        # cannot occur when the encoding-matrix conditions hold
        raise SingularMatrix("repair system singular; code construction broken") from exc
    return frozen(inv), solve_cost(params.d, 1)


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
    rows = f.varray(np.stack([fr.symbols for fr in fragments]))
    if params.backend == "psrs" and sorted(nodes) == list(range(1, k + 1)):
        # systematic fast path: rows 1..k are [S T] verbatim
        return message_from_block(params, rows[np.argsort(nodes)])
    order = assign_slots(params, nodes)
    c_dc = np.zeros((k, params.d), dtype=np.int64)
    c_dc[[g - 1 for g in order]] = rows
    delta_dc = data_collector(mbr_build_encoding(params), k, nodes, order)[1]
    phi_inv, cost = _collector_inverse(params, tuple(nodes), order)
    _charge(counter, cost)
    s, t = solve_message_block(f, phi_inv, delta_dc, c_dc, skew=False, counter=counter)
    return message_from_block(params, np.concatenate([s, t], axis=1))


@lru_cache(maxsize=_SET_CACHE_SIZE)
def _collector_inverse(params: MbrParams, nodes: tuple[int, ...], order: tuple[int, ...]
                       ) -> tuple[np.ndarray, tuple[int, int]]:
    """Phi_DC^-1 of the nodes in these slots, with its cost: in closed form
    for psrs, whose Phi is the Lagrange basis at its first k points, by
    Gauss-Jordan for the Vandermonde backend."""
    cost = OpCounter()
    if params.backend == "psrs":
        rows = np.empty(params.k, dtype=np.intp)
        rows[[g - 1 for g in order]] = [i - 1 for i in nodes]
        phi_inv = interpolation_inverse(params.field, *_interpolation_table(params), rows, cost)
    else:
        phi_dc = data_collector(mbr_build_encoding(params), params.k, nodes, order)[0]
        phi_inv = collector_inverse(params.field, phi_dc, cost)
    return frozen(phi_inv), (cost.mul, cost.add)


@lru_cache(maxsize=None)
def _interpolation_table(params: MbrParams) -> tuple[np.ndarray, np.ndarray]:
    """The psrs evaluation points and their inverse differences."""
    points = frozen(np.array(_psrs_params(params).points, dtype=np.int64))
    return points, inverse_differences(params.field, points, params.k)


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
    """What each planned node transmits; every position must lie in its fragment."""
    by_node = {f.node: f for f in fragments}
    for node in plan.nodes:
        if node not in by_node:
            raise InsufficientSymbols(f"no fragment for planned node {node}")
    frags = [by_node[node] for node in plan.nodes]
    # the positions stand in for the payloads: only their range is checked
    plan.check_payloads(plan.positions, min((len(fr.symbols) for fr in frags), default=0))
    # a list gather from one tolist per row: cheaper than numpy fancy
    # indexing at d of a few dozen
    rows = [fr.symbols.tolist() for fr in frags]
    return [[row[p - 1] for p in pos] for row, pos in zip(rows, plan.positions)]


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
    backward for `upper` and `gong`.  The entries of column c already known
    through symmetry (S[r, c] = S[c, r]) are substituted out, which leaves
    a trailing block of Phi_DC for `lower` and a leading block for the
    others.  One factorization of Phi_DC per node set holds the inverse of
    every such block as a pair of triangular blocks (see _stage_factors),
    so T and every stage are each one mat_solve of two triangular
    matrix-vector products.

    A `trace` list receives one StageRecord per stage: for `lower` and
    `upper` the system with the unit row e_r for every known entry r and
    row r of Phi_DC otherwise, for `gong` the substituted square system.
    """
    if plan.scheme not in PARTIAL_SCHEMES:
        raise ParamsInvalid(f"plan scheme {plan.scheme!r} is not a partial scheme")
    payloads = plan.check_payloads(payloads, params.d)
    check_nodes(params.n, plan.nodes, params.k)
    f = params.field
    k, d = params.k, params.d
    if not 1 <= min(plan.order) <= max(plan.order) <= k:
        raise IndexOutOfRange(f"plan slots {plan.order} outside [1, {k}]")
    if len(set(plan.order)) != k:
        raise DuplicateIndex(f"repeated slot in plan order {plan.order}")
    lower = plan.scheme == "lower"

    # scatter payloads: C^Delta is complete, C^Phi only on the plan's triangle
    rows = np.repeat(np.asarray(plan.order, dtype=np.intp) - 1,
                     [len(pos) for pos in plan.positions])
    cols = np.array([p for pos in plan.positions for p in pos], dtype=np.intp) - 1
    c_dc = np.zeros((k, d), dtype=np.int64)
    c_dc[rows, cols] = f.varray([v for pay in payloads for v in pay])
    downloaded = np.zeros((k, d), dtype=bool)
    downloaded[rows, cols] = True
    downloaded = downloaded[:, :k]

    phi, delta = data_collector(mbr_build_encoding(params), k, plan.nodes, plan.order)
    fac = _stage_factors(params, plan.nodes, plan.order, lower)
    columns = range(k) if lower else range(k - 1, -1, -1)
    # (unknown rows, known rows) of each stage's column
    parts = [(slice(c, None), slice(None, c)) if lower
             else (slice(None, c + 1), slice(c + 1, None)) for c in columns]
    needed = (np.tril if lower else np.triu)(np.ones((k, k), dtype=bool))
    missing = (needed & ~downloaded).any(axis=0)
    for c, (todo, _) in zip(columns, parts):
        if missing[c]:
            raise PlanPayloadMismatch(f"plan leaves out C^Phi entries of column {c + 1}")
        if fac.pivoted and _is_singular(f, phi[todo, todo]):
            raise SingularStageMatrix("stage matrix singular; slot ordering constraint violated")

    _charge(counter, fac.cost)
    t = mat_solve(fac.inverse, c_dc[:, k:], counter)
    dt = f.matmul(delta, t.T)  # k x k
    d_phi = f.vsub(c_dc[:, :k], dt)  # meaningful where downloaded
    if counter is not None:
        # the k x (d-k) by (d-k) x k product and the subtraction
        counter.count_mul(k * k * (d - k))
        counter.count_add(k * k * max(0, d - k - 1))
        counter.count_add(int(downloaded.sum()))

    s = np.zeros((k, k), dtype=np.int64)
    known = np.zeros(k, dtype=bool)
    for stage, (c, (todo, done)) in enumerate(zip(columns, parts), start=1):
        rhs = f.vsub(d_phi[todo, c], f.matmul(phi[todo, done], s[done, c][:, None])[:, 0])
        if counter is not None:
            # m unknowns: the substitution costs m(k-m) mul and add
            m = len(rhs)
            counter.count_mul(m * (k - m))
            counter.count_add(m * (k - m))
        col = mat_solve(fac.inverse.block(todo), rhs[:, None], counter)[:, 0]
        if trace is not None:
            trace.append(_stage_record(plan.scheme, stage, c, phi, s, d_phi, known, rhs, f))
        s[todo, c] = col
        s[c, todo] = col
        known[c] = True
    return message_from_block(params, np.concatenate([s, t], axis=1))


@dataclass(frozen=True)
class _StageFactors:
    """Phi_DC^-1 as the inverses of its two triangular factors."""

    inverse: FactoredInverse
    pivoted: bool  # the factorization swapped rows: some stage block is singular
    cost: tuple[int, int]


@lru_cache(maxsize=_SET_CACHE_SIZE)
def _stage_factors(params: MbrParams, nodes: tuple[int, ...], order: tuple[int, ...],
                   trailing: bool) -> _StageFactors:
    """Factorize Phi_DC once for every stage of a partial read.

    A block of a triangular inverse is the inverse of that block whenever
    the block is leading (or trailing) on both sides.  `upper` and `gong`
    stages solve leading blocks: with Phi_DC = L U, the block [:m, :m] is
    L[:m, :m] U[:m, :m], inverted by U^-1[:m, :m] L^-1[:m, :m].  `lower`
    stages solve trailing blocks: the LU of the reversed matrix,
    J Phi_DC J = L' U', gives Phi_DC = U L with U = J L' J and L = J U' J,
    and the block [c:, c:] is inverted by L^-1[c:, c:] U^-1[c:, c:].

    The factorization swaps rows exactly when some leading (trailing)
    block is singular, which is when some stage system is.
    """
    phi = data_collector(mbr_build_encoding(params), params.k, nodes, order)[0]
    flip = (slice(None, None, -1),) * 2 if trailing else (slice(None),) * 2
    try:
        lu = lu_inverses(params.field, phi[flip])
    except SingularMatrix as exc:
        raise SingularMatrix("encoding-matrix conditions violated during reconstruction") from exc
    pivoted = bool((lu.perm != np.arange(params.k)).any())
    inverse = FactoredInverse(params.field, lu.l_inv[flip], lu.u_inv[flip])
    return _StageFactors(inverse, pivoted, (lu.mul, lu.add))


def _is_singular(field: Field, a: np.ndarray) -> bool:
    try:
        lu_inverses(field, a)
    except SingularMatrix:
        return True
    return False


def _stage_record(scheme: str, stage: int, c: int, phi: np.ndarray, s: np.ndarray,
                  d_phi: np.ndarray, known: np.ndarray, rhs: np.ndarray,
                  field: Field) -> StageRecord:
    """Stage `stage`'s system before column c is filled in: `gong` solves
    the substituted system `rhs` belongs to, `lower` and `upper` the full
    system with unit rows for the known entries."""
    todo = np.flatnonzero(~known)
    if scheme == "gong":
        matrix = phi[np.ix_(todo, todo)]
    else:
        matrix = np.where(known[:, None], np.eye(len(known), dtype=np.int64), phi)
        rhs = np.where(known, s[:, c], d_phi[:, c])
    return StageRecord(
        scheme=scheme, stage=stage, s_column=c + 1,
        matrix=FieldMatrix(field, matrix), rhs=tuple(rhs.tolist()),
        solved=tuple((min(r, c) + 1, max(r, c) + 1) for r in todo.tolist()),
    )
