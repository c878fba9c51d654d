"""Exception types for invalid inputs and violated numerical contracts."""


class GhkError(Exception):
    """Base class for every error raised by this package."""


class NonSymmetricError(GhkError, ValueError):
    """A matrix expected to be symmetric exceeds the asymmetry tolerance."""


class NotPositiveDefiniteError(GhkError, ValueError):
    """A Cholesky-style factorization failed on a covariance matrix."""


class NotPhysicalError(GhkError, ValueError):
    """A covariance matrix violates the uncertainty bound (min kappa < 1/2)."""


class InvalidParamsError(GhkError, ValueError):
    """State-family parameters are out of their admissible range."""


class NegativeOccupancyError(InvalidParamsError):
    """A thermal mean occupancy is negative."""


class DimensionMismatchError(GhkError, ValueError):
    """Operands have incompatible mode counts or vector lengths."""


class SingularSumError(GhkError, ValueError):
    """A sum of covariance matrices is numerically singular."""


class OutOfFamilyError(GhkError, ValueError):
    """The state lies outside the family a closed form is valid for."""


class ParseError(GhkError, ValueError):
    """Command-line input could not be parsed."""


class NotConvergedError(GhkError, RuntimeError):
    """A multi-start search did not converge to a consistent optimum."""


class TruncationInsufficientError(GhkError, RuntimeError):
    """No admissible photon-number cutoff certifies the requested tail."""


class ConsistencyError(GhkError, RuntimeError):
    """Two independent computation routes disagreed beyond tolerance."""
