"""Exception taxonomy shared across the package."""


class MaflowError(Exception):
    """Base class for all package errors."""


class ConfigError(MaflowError):
    """Bad or unknown run configuration."""


class PositivityViolation(MaflowError):
    """A matrix that must be positive definite is not.

    Carries the flat grid index of the offending sample (or None for a
    single matrix) and, when raised inside the flow, the current time.
    """

    def __init__(self, message, index=None, t=None):
        super().__init__(message)
        self.index = index
        self.t = t


class TailAlarm(MaflowError):
    """Spectral tail of an evolved field exceeded the resolution threshold."""


class StepFailure(MaflowError):
    """Time step could not complete within the retry budget."""

    def __init__(self, message, t=None, dt=None, index=None):
        super().__init__(message)
        self.t = t
        self.dt = dt
        self.index = index


class LineSearchFailure(MaflowError):
    """No damped Newton step inside the cone reduced the residual."""


class MaxIterationsExceeded(MaflowError):
    """Newton iteration cap reached before the residual tolerance."""


class LinearSolveStagnation(MaflowError):
    """Inner Krylov solve failed its relative-residual contract."""


class EigRangeViolation(MaflowError):
    """Matrix handed to the frame decomposition has eigenvalues outside the declared range."""


class ShiftFailure(MaflowError):
    """No positivity shift in the schedule produced all-positive frame weights."""


class NonPositiveU(MaflowError):
    """Li-Yau / Harnack diagnostics received a non-positive field."""


class InsufficientSnapshots(MaflowError):
    """Not enough snapshots to evaluate a multi-snapshot monitor."""


class SeriesTooShort(MaflowError):
    """Monitor series does not span enough time for the requested fit."""
