"""Exception types shared across the package."""


class OscBesselError(Exception):
    """Base class for all package-specific failures."""


class DomainError(OscBesselError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConvergenceError(OscBesselError, RuntimeError):
    """An iterative computation failed to reach the requested accuracy."""


class AccuracyError(OscBesselError, RuntimeError):
    """A result was produced but its error estimate exceeds the tolerance."""

    def __init__(self, message: str, err_est: float = float("nan")):
        super().__init__(message)
        self.err_est = err_est


class SingularSystemError(OscBesselError, RuntimeError):
    """A linear system turned out to be numerically singular."""

    def __init__(self, message: str, row: int = -1):
        super().__init__(message)
        self.row = row
