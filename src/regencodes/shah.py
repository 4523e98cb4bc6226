"""Complete-graph repair-by-transfer baseline.

The B message symbols are encoded with an (N, B) MDS code, N = C(n, 2),
one packet per edge of the complete graph on n nodes.  Packet p sits on
the p-th edge in lexicographic order, i.e. the p-th slot of the strict
upper triangle of a symmetric n x n packet matrix with zero diagonal,
and node i stores row i of that matrix without its diagonal
(fragments.py): the n-1 packets of its incident edges, so every packet
lives on exactly two nodes.  Repair is pure transfer
(rbt.rbt_repair): the other endpoint of each lost edge
resends its copy.  Any k nodes jointly hold exactly
C(k,2) + k(n-k) = B distinct packets, which erasure-decode the message.

The MDS code is the doubly extended RS code in systematic form, so the
encoding cost counted is the (N-B) x B parity product.  The field must
satisfy C(n,2) <= q+1; failing that bound at small q, while the
congruence-based codes still fit, is itself a comparison datum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .counting import OpCounter
from .errors import FieldTooSmall, ParamsInvalid
from .fragments import (
    Fragment,
    MbrPoint,
    check_read,
    expand_rows,
    stored_fragments,
)
from .gf import Field
from .matrix import (
    FieldMatrix,
    check_message,
    extended_points,
    frozen,
    mat_mul,
    mat_solve,
    symmetric_from_triangle,
    systematic_generator,
    triangle,
)


@dataclass(frozen=True)
class ShahParams(MbrPoint):
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
    def codec(self) -> str:
        return "shah"


@lru_cache(maxsize=None)
def _generator_rows(params: ShahParams) -> np.ndarray:
    """N x B systematic generator [I_B; P] of the doubly extended RS code;
    read-only."""
    field, N = params.field, params.N
    points = np.array(extended_points(field, N), dtype=np.int64)
    return frozen(systematic_generator(field, N, params.B, points))


def shah_encode(params: ShahParams, u: Sequence[int],
                counter: OpCounter | None = None) -> list[Fragment]:
    """Encode B symbols into n node stores of n-1 packets each.

    Counted cost is the parity product, (N-B)*B multiplications.
    """
    field, n = params.field, params.n
    u = check_message(field, u, params.B)
    parity = mat_mul(field, _generator_rows(params)[params.B:], np.array(u, dtype=np.int64)[:, None],
                     counter)
    packets = symmetric_from_triangle(field, n, triangle(n, 1, n), u + parity[:, 0].tolist())
    return stored_fragments(params.codec, packets)


def shah_reconstruct(params: ShahParams, fragments: Sequence[Fragment],
                     counter: OpCounter | None = None) -> list[int]:
    """Erasure-decode the message from the packets held by k nodes."""
    n = params.n
    idx = np.array(check_read(params, fragments)) - 1
    # the two copies of a shared packet agree, so placing both is safe
    stored = expand_rows(fragments, n, params.field)
    packets = np.zeros((n, n), dtype=np.int64)
    packets[idx] = stored
    packets[:, idx] = stored.T
    held = np.zeros(n, dtype=bool)
    held[idx] = True
    # k nodes hold C(k,2) + k(n-k) = B edges, in packet order along the triangle
    rows, cols = triangle(n, 1, n)
    chosen = np.flatnonzero(held[rows] | held[cols])
    gen = FieldMatrix(params.field, _generator_rows(params)[chosen])
    return mat_solve(gen, packets[rows[chosen], cols[chosen]][:, None], counter)[:, 0].tolist()
