"""Stochastic approximation with a measurement-driven step counter.

The iteration x_t = x_{t-1} - gamma(s_{t-1}) y_t feeds each new noisy
measurement y_t back into a counter s_t through a bounded gate applied to
the inner product of consecutive measurements, so the step size adapts to
the observed noise level. This package provides the iteration engine, the
gate and schedule families, closed-form and Monte Carlo drift constants,
the asymptotic covariance of sqrt(t) (x_t - x*), replicate experiments
with normality diagnostics, assumption validators, and a command-line
harness around all of it.
"""

from .asymptotics import (AsymptoticPrediction, covariance_integral_oracle,
                          predict, solve_lyapunov, stability_matrix)
from .config import RunConfig, canonical_config, load_config, parse_config
from .core import InitialConditions, Trajectory, run_trajectory
from .errors import (AdaptixError, ConfigError, DimensionMismatchError,
                     DivergedTrajectoryError, NumericError, StabilityError,
                     TailBoundError)
from .montecarlo import (ConvergenceSummary, CouplingSummary, ExperimentPlan,
                         NormalityReport,
                         ReplicateSet, convergence_summary, coupling_gap,
                         default_checkpoints, normality_check,
                         normality_stats, resolve_e0, run_replicates,
                         step_counter_drift)
from .noise import (NoiseModel, gaussian_noise, scaled_rademacher_noise,
                    uniform_ball_noise)
from .problems import (ProblemSpec, cubic_problem, field_eval, jacobian_eval,
                       linear_problem, tanh_problem, validate_problem)
from .report import ValidationItem, ValidationReport
from .schedules import (E0Estimate, SigmoidSpec, StepSchedule, constant_gate,
                        constant_schedule, e0_exact, e0_monte_carlo,
                        gamma_eval, kesten_gate, plakhov_almeida_gate,
                        power_schedule, reciprocal_schedule, sigmoid_eval,
                        smooth_gate, validate_schedule)

__version__ = "0.1.0"

__all__ = [
    "AdaptixError", "AsymptoticPrediction", "ConfigError",
    "ConvergenceSummary", "CouplingSummary", "DimensionMismatchError",
    "DivergedTrajectoryError",
    "E0Estimate", "ExperimentPlan", "InitialConditions",
    "NoiseModel", "NormalityReport", "NumericError",
    "ProblemSpec", "ReplicateSet",
    "RunConfig", "SigmoidSpec", "StabilityError", "StepSchedule",
    "TailBoundError", "Trajectory", "ValidationItem", "ValidationReport",
    "canonical_config", "constant_gate", "constant_schedule",
    "convergence_summary", "coupling_gap", "covariance_integral_oracle",
    "cubic_problem", "default_checkpoints", "e0_exact", "e0_monte_carlo",
    "field_eval", "gamma_eval", "gaussian_noise", "jacobian_eval",
    "kesten_gate", "linear_problem", "load_config", "normality_check",
    "normality_stats", "parse_config", "plakhov_almeida_gate",
    "power_schedule", "predict", "reciprocal_schedule", "resolve_e0",
    "run_replicates", "run_trajectory", "scaled_rademacher_noise",
    "sigmoid_eval", "smooth_gate",
    "solve_lyapunov", "stability_matrix", "step_counter_drift",
    "tanh_problem", "uniform_ball_noise", "validate_problem",
    "validate_schedule",
]
