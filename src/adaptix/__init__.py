"""Stochastic approximation with a measurement-driven step counter.

The iteration x_t = x_{t-1} - gamma(s_{t-1}) y_t feeds each new noisy
measurement y_t back into a counter s_t through a bounded gate applied to
the inner product of consecutive measurements, so the step size adapts to
the observed noise level. This package provides the iteration engine, the
gate and schedule families, closed-form and Monte Carlo drift constants,
the asymptotic covariance of sqrt(t) (x_t - x*), replicate experiments
with normality diagnostics, assumption validators, and a command-line
harness around all of it.

``import adaptix`` loads none of the submodules: each public name is
imported from its submodule on first access (PEP 562), so a program, the
CLI included, loads only the modules it uses.
"""

import importlib

__version__ = "0.1.0"

#: Each public name and the submodule that defines it.
_HOMES = {
    name: module
    for module, names in (
        ("asymptotics", "AsymptoticPrediction covariance_integral_oracle "
                        "predict solve_lyapunov stability_matrix"),
        ("config", "ExperimentPlan InitialConditions RunConfig "
                   "canonical_config default_checkpoints load_config "
                   "parse_config resolve_e0"),
        ("core", "Trajectory run_trajectory"),
        ("errors", "AdaptixError ConfigError DimensionMismatchError "
                   "DivergedTrajectoryError NumericError StabilityError "
                   "TailBoundError"),
        ("montecarlo", "ConvergenceSummary CouplingSummary NormalityReport "
                       "ReplicateSet convergence_summary coupling_gap "
                       "normality_check normality_stats run_replicates "
                       "step_counter_drift"),
        ("noise", "NoiseModel gaussian_noise scaled_rademacher_noise "
                  "uniform_ball_noise"),
        ("problems", "ProblemSpec cubic_problem field_eval jacobian_eval "
                     "linear_problem tanh_problem"),
        ("report", "ValidationItem ValidationReport validate_problem "
                   "validate_schedule"),
        ("schedules", "E0Estimate SigmoidSpec StepSchedule constant_gate "
                      "constant_schedule e0_exact e0_monte_carlo gamma_eval "
                      "kesten_gate plakhov_almeida_gate power_schedule "
                      "reciprocal_schedule sigmoid_eval smooth_gate"),
    )
    for name in names.split()
}

__all__ = sorted(_HOMES)


def __getattr__(name):
    try:
        module = _HOMES[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
