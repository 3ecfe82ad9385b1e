"""Invariant distribution estimation for ergodic scalar diffusions.

Simulation of the diffusion, the empirical distribution function and a
class of weight-function-parameterized unbiased estimators, the closed-form
asymptotic efficiency bound, and a Monte Carlo harness that verifies
unbiasedness, asymptotic variance, and efficiency against that bound.
"""

__version__ = "0.1.0"

from .errors import (
    BracketError,
    ConfigError,
    DivergenceError,
    ErgodistError,
    EvaluationError,
    ExponentOverflowError,
    RiskRunError,
    SimulationError,
    TailError,
    WorkerError,
)
from .model import (
    DiffusionModel,
    ErgodicityReport,
    check_ergodicity,
    invariant_cdf,
    invariant_density,
    invariant_quantile,
    model_from_spec,
    normalizing_constant,
    ornstein_uhlenbeck,
    quartic_well,
    scale_exponent,
    scale_function,
    shifted_ou,
    stationary_expectation,
)
from .numerics import (
    QuadResult,
    QuadratureSpec,
    compensated_sum,
    integrate,
    integrate_line,
    invert_monotone,
)

__all__ = [
    "BracketError",
    "ConfigError",
    "DiffusionModel",
    "DivergenceError",
    "ErgodicityReport",
    "ErgodistError",
    "EvaluationError",
    "ExponentOverflowError",
    "QuadResult",
    "QuadratureSpec",
    "RiskRunError",
    "SimulationError",
    "TailError",
    "WorkerError",
    "check_ergodicity",
    "compensated_sum",
    "integrate",
    "integrate_line",
    "invariant_cdf",
    "invariant_density",
    "invariant_quantile",
    "invert_monotone",
    "model_from_spec",
    "normalizing_constant",
    "ornstein_uhlenbeck",
    "quartic_well",
    "scale_exponent",
    "scale_function",
    "shifted_ou",
    "stationary_expectation",
]
