"""Semantic exception hierarchy shared across the package."""

from __future__ import annotations

import copyreg


class ErgodistError(Exception):
    """Base class for all package errors."""

    def __reduce__(self):  # rebuilt without __init__, whose arguments vary by class
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class EvaluationError(ErgodistError):
    """A user-supplied function returned a non-finite value.

    Carries the offending abscissa so quadrature failures can be located.
    """

    def __init__(self, abscissa: float, message: str | None = None):
        self.abscissa = abscissa
        super().__init__(message or f"non-finite function value at x={abscissa!r}")


class ExponentOverflowError(EvaluationError):
    """The scale exponent exceeded the floating-point range (saturating error)."""


class DivergenceError(ErgodistError):
    """An integral over the real line failed to converge under tail doubling.

    Signals a violated finiteness condition (non-ergodic model, infinite
    moment, or a divergent condition screen).
    """


class BracketError(ErgodistError):
    """Inversion target lies outside the supplied bracket."""


class TailError(ErgodistError):
    """A quantity was requested deeper in the distribution tail than the
    quadrature truncation supports."""


class SimulationError(ErgodistError):
    """Trajectory left the finite range (explosion). Carries the step index."""

    def __init__(self, step_index: int, message: str | None = None):
        self.step_index = step_index
        super().__init__(message or f"non-finite state at step {step_index}")


class ConfigError(ErgodistError, ValueError):
    """Invalid configuration. ``violations`` lists every offending field."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("invalid configuration: " + "; ".join(self.violations))


class RiskRunError(ErgodistError):
    """A Monte Carlo risk run failed: too many of its replications
    exploded, or a block worker ended without a result."""


class WorkerError(RiskRunError):
    """A block worker ended without a result (killed, or crashed outside Python)."""
