"""regencodes: regenerating-code toolkit.

Codecs for exact repair at the minimum-bandwidth point: congruence-based
repair-by-transfer codes (plain and systematic), product-matrix MBR codes
over a partially systematic Reed-Solomon or Vandermonde encoding matrix,
and a complete-graph packet baseline; plus partial-download planning, an
instrumented cluster simulator, and operation-count benchmarks.
"""

from .counting import OpCounter
from .fragments import Fragment
from .gf import (
    Field,
    binary_field,
    enumerate_points,
    fermat_field,
    field_new,
    ntt_evaluate,
    ntt_interpolate,
    prime_field,
)
from .matrix import FieldMatrix
from .mbr import MbrParams
from .plans import DownloadPlan
from .psrs import PsrsMessage, PsrsParams, eval_params, genpoly_params
from .rbt import RbtParams
from .shah import ShahParams

__version__ = "0.1.0"

__all__ = [
    "OpCounter",
    "Fragment",
    "Field",
    "binary_field",
    "enumerate_points",
    "fermat_field",
    "field_new",
    "ntt_evaluate",
    "ntt_interpolate",
    "prime_field",
    "FieldMatrix",
    "MbrParams",
    "DownloadPlan",
    "PsrsMessage",
    "PsrsParams",
    "eval_params",
    "genpoly_params",
    "RbtParams",
    "ShahParams",
    "__version__",
]
