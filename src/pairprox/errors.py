"""Exception taxonomy shared across the package."""


class PairproxError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(PairproxError):
    """Operand shapes are incompatible."""


class NonSquareError(PairproxError):
    """A square matrix was required."""


class SingularMatrixError(PairproxError):
    """The matrix is singular to working precision."""


class NotSymmetricError(PairproxError):
    """A symmetric matrix was required."""


class UnknownRegistryKeyError(PairproxError):
    """A pointwise map name is not registered."""


class UnsupportedStructureError(PairproxError):
    """No closed-form resolvent is available for this operator pair."""


class NotInRangeError(PairproxError):
    """The requested point is not in the range of the shifted operator."""


class NonFiniteIterateError(PairproxError):
    """An iterate contains NaN or Inf."""


class AllEigenvaluesZeroError(PairproxError):
    """The matrix has no eigenvalue above the zero threshold."""
