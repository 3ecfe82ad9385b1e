"""Semantic exception hierarchy shared across the package."""

from __future__ import annotations


class ErgodistError(Exception):
    """Base class for all package errors."""


class EvaluationError(ErgodistError):
    """A user-supplied function returned a non-finite value.

    Carries the offending abscissa so quadrature failures can be located.
    """

    def __init__(self, abscissa: float, message: str | None = None):
        self.abscissa = abscissa
        super().__init__(message or f"non-finite function value at x={abscissa!r}")

    def __reduce__(self):  # pickle rebuilds from these, not from args alone
        return type(self), (self.abscissa, str(self)), self.__dict__


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

    def __reduce__(self):
        return type(self), (self.step_index, str(self)), self.__dict__


class ConfigError(ErgodistError, ValueError):
    """Invalid configuration. ``violations`` lists every offending field."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("invalid configuration: " + "; ".join(self.violations))

    def __reduce__(self):
        return type(self), (self.violations,), self.__dict__


class RiskRunError(ErgodistError):
    """A Monte Carlo risk run failed: too many of its replications
    exploded, or a block worker ended without a result."""
