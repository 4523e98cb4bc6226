"""Exception hierarchy shared by every codec and the harness.

All library errors derive from RegenError so callers (and the CLI) can
catch one type; the concrete class name is the machine-readable error code.
"""


class RegenError(Exception):
    """Base class for all regencodes errors."""


# field construction / arithmetic

class NonPrimeModulus(RegenError):
    pass


class UnsupportedDegree(RegenError):
    pass


class DivisionByZero(RegenError):
    pass


class FieldTooSmall(RegenError):
    pass


class WrongField(RegenError):
    pass


class NotPowerOfTwo(RegenError):
    pass


# matrix layer

class DimensionMismatch(RegenError):
    pass


class SingularMatrix(RegenError):
    pass


class DuplicatePoints(RegenError):
    pass


class IndexOutOfRange(RegenError):
    pass


class DuplicateIndex(RegenError):
    pass


class NotSkewSymmetric(RegenError):
    pass


# codec parameter / message validation

class ParamsInvalid(RegenError):
    pass


class WrongMessageLength(RegenError):
    pass


# decoding

class DuplicatePosition(RegenError):
    pass


class InsufficientSymbols(RegenError):
    pass


class WrongFragmentCount(RegenError):
    pass


class DecodeMismatch(RegenError):
    pass


# repair

class DuplicateHelper(RegenError):
    pass


class WrongHelperCount(RegenError):
    pass


# encoder backend (column-wise encoding needs the psrs backend)

class SchemeBackendMismatch(RegenError):
    pass


# partial-download plans

class PlanPayloadMismatch(RegenError):
    pass


class SingularStageMatrix(RegenError):
    pass


# harness

class ScriptInvalid(RegenError):
    pass


class ReconstructionMismatch(RegenError):
    """A simulated reconstruction or repair did not return the original data."""


class TrendViolation(RegenError):
    """A benchmark family failed its expected operation-count trend."""
