"""Exception taxonomy shared across the package.  Each class carries the
exit code the CLI returns for it and the label of its stderr line."""


class MaflowError(Exception):
    """Base class for all package errors."""

    exit_code = 1
    label = "verification failure"


class ConfigError(MaflowError):
    """Bad or unknown run configuration."""

    exit_code = 2
    label = "config error"


class SolverFailure(MaflowError):
    """A solver or time step could not complete."""

    exit_code = 3
    label = "solver failure"


class PositivityViolation(SolverFailure):
    """A matrix that must be positive definite is not.

    Carries the flat grid index of the offending sample (or None for a
    single matrix) and, when raised inside the flow, the current time.
    """

    def __init__(self, message, index=None, t=None):
        super().__init__(message)
        self.index = index
        self.t = t


class TailAlarm(SolverFailure):
    """Spectral tail of an evolved field exceeded the resolution threshold."""


class StepFailure(SolverFailure):
    """Time step could not complete before its size fell to the halving floor."""

    def __init__(self, message, t=None, dt=None, index=None):
        super().__init__(message)
        self.t = t
        self.dt = dt
        self.index = index


class LineSearchFailure(SolverFailure):
    """No damped Newton step inside the cone reduced the residual."""


class MaxIterationsExceeded(SolverFailure):
    """Newton iteration cap reached before the residual tolerance."""


class LinearSolveStagnation(SolverFailure):
    """Inner Krylov solve failed its relative-residual contract."""


class EigRangeViolation(MaflowError):
    """Matrix handed to the frame decomposition has eigenvalues outside the declared range."""


class ShiftFailure(MaflowError):
    """No positivity shift in the schedule produced all-positive frame weights."""


class NonPositiveU(MaflowError):
    """Li-Yau / Harnack diagnostics received a non-positive field."""


class MonitorOverflow(MaflowError):
    """A monitored quantity left the finite range (Q_max overflowed)."""


class InsufficientSnapshots(MaflowError):
    """Not enough snapshots to evaluate a multi-snapshot monitor."""


class SeriesTooShort(MaflowError):
    """Monitor series does not span enough time for the requested fit."""
