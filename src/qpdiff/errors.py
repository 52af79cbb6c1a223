"""Exception types shared across the package."""


class QpdiffError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(QpdiffError):
    """Problem blocks have inconsistent shapes."""


class ProblemFormatError(QpdiffError):
    """A problem file is malformed; the message names the offending key."""


class NormalizationError(QpdiffError):
    """A constraint row has zero norm and cannot be normalized."""


class RankDeficiencyError(QpdiffError):
    """A KKT system that was expected to be invertible is singular."""


class UnknownBackendError(QpdiffError):
    """Requested solver backend is not registered."""


class SolveFailedError(QpdiffError):
    """A backend reported a non-solved status, or its point's active set is
    not certified even after crossover rounds; the point is attached."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class DuplicateBackendError(QpdiffError):
    """A backend with the same name is already registered."""


class InfeasibleProblemError(QpdiffError):
    """No active subset yields a KKT point; the problem looks infeasible."""


class DegeneracyError(QpdiffError):
    """Weakly active constraints make the requested derivative undefined."""


class EnumerationLimitError(QpdiffError):
    """Brute-force enumeration was requested beyond its size guard."""
