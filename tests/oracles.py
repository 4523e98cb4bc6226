"""Independent oracles the tests check the codecs against.  No library
path reaches them, so they live with the tests and trust their inputs."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from regencodes.matrix import FieldMatrix, mat_mul, mat_solve, mat_sub
from regencodes.psrs import PsrsMessage, PsrsParams, encode_genpoly
from regencodes.rbt import RbtParams, message_from_block, parity_block


@lru_cache(maxsize=None)
def _gen_coeff_map(params: PsrsParams) -> np.ndarray:
    """d x n matrix: row i is the codeword polynomial of the i-th unit message."""
    units = np.eye(params.d, dtype=np.int64).tolist()
    return np.array([encode_genpoly(params, PsrsMessage(tuple(u[:params.k]), tuple(u[params.k:])))
                     for u in units], dtype=np.int64)


def solve_full_genpoly_linear(params: PsrsParams, coeffs) -> PsrsMessage:
    """The generator-polynomial message from the first d of its (degree,
    coefficient) pairs, by one linear solve instead of Forney's algorithm."""
    use = list(coeffs)[: params.d]
    cols = _gen_coeff_map(params).T[[deg for deg, _ in use]]  # d x d
    rhs = np.array([[val] for _, val in use], dtype=np.int64)
    vec = mat_solve(FieldMatrix(params.field, cols), rhs)[:, 0].tolist()
    return PsrsMessage(tuple(vec[: params.k]), tuple(vec[params.k:]))


def remapped_message(params: RbtParams, block: np.ndarray) -> list[int]:
    """Message vector whose congruence encoding equals the systematic
    encoding of the k x n source block: it solves the systematic conditions
    S = U_L and S P^t + T = U_R."""
    field, k = params.field, params.k
    u_l, u_r = block[:, :k], block[:, k:]
    t = mat_sub(field, u_r, mat_mul(field, u_l, parity_block(params).T))
    return message_from_block(params, np.concatenate([u_l, t], axis=1))
