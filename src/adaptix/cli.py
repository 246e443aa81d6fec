"""Command-line harness.

Subcommands:

* ``predict``   -- asymptotic covariance prediction from the config alone.
* ``run``       -- one trajectory, written step by step to trajectory.csv.
* ``replicate`` -- a replicate ensemble with per-checkpoint statistics;
  the only command with ``--workers``.
* ``validate``  -- assumption checks for the configured problem/schedule/gate.

Exit codes: 0 success; 2 bad configuration or an artifact that cannot be
written; 3 assumption or stability failure; 4 statistical failure
(divergence or a failed normality gate); 5 numeric failure
(ill-conditioned solve, tail bound, non-finite values).

Every command echoes the fully resolved configuration to config.json in
the output directory, so a run can be replayed from its artifacts.

Each command imports the modules it computes with when it runs: ``run``
loads no ``montecarlo``, ``asymptotics`` or ``report``, and ``predict``
no ``core`` or ``montecarlo``.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .config import RunConfig, canonical_config, load_config
from .errors import (AdaptixError, ConfigError, DimensionMismatchError,
                     DivergedTrajectoryError, NumericError, StabilityError)
from .serialize import write_csv, write_json

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ASSUMPTION = 3
EXIT_STATISTICAL = 4
EXIT_NUMERIC = 5

#: Exit code per error type, first match wins; any other AdaptixError or
#: ValueError (LinAlgError included) is a numeric failure.
_EXIT_CODES = (
    ((ConfigError, DimensionMismatchError), EXIT_CONFIG),
    (StabilityError, EXIT_ASSUMPTION),
    (DivergedTrajectoryError, EXIT_STATISTICAL),
)

CHECKPOINT_HEADER = ["t", "quantile_50", "quantile_90", "quantile_99",
                     "s_over_t_mean", "s_over_t_sd", "cov_rel_err",
                     "mahalanobis_ks"]


def _load(args):
    """Parse the config, apply overrides, echo the effective document.

    ``--seed`` replaces the config seed before the echo, so config.json
    always describes the run that happened.  ``--out`` only redirects
    where artifacts land; like ``replicate``'s ``--workers`` it is an
    execution detail and is deliberately not echoed, keeping artifacts
    byte-identical no matter where they are written.
    """
    cfg = load_config(args.config)
    if args.seed is not None:
        plan = dataclasses.replace(cfg.plan, master_seed=args.seed)
        cfg = dataclasses.replace(cfg, plan=plan)
    out_dir = args.out if args.out is not None else cfg.out_dir
    try:
        os.makedirs(out_dir, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the name
        reason = getattr(exc, "strerror", exc)
        raise ConfigError(f"cannot write artifacts to output directory "
                          f"{out_dir!r}: {reason}") from None
    write_json(os.path.join(out_dir, "config.json"), canonical_config(cfg))
    return cfg, out_dir


def _predict(cfg: RunConfig, out_dir: str, e0):
    """The prediction from ``e0`` and the callable that writes it to
    prediction.json, with a stable W's V and its gap to the integral
    oracle. An unstable W's prediction.json, without V, is written here,
    after which StabilityError is raised."""
    from .asymptotics import covariance_integral_oracle, predict
    cov = cfg.plan.problem.noise.cov
    prediction = predict(cfg.plan.problem.jacobian_at_root, cov, e0)
    stable = prediction.stable
    doc = {"e0": prediction.e0.value, "e0_stderr": prediction.e0.stderr,
           "W": prediction.w.tolist()}
    if stable:
        doc["V"] = prediction.v.tolist()
    doc["stable"] = stable
    doc["eigen_real_parts"] = prediction.eigen_real_parts.tolist()

    def write():
        if stable:
            oracle = covariance_integral_oracle(prediction.w, cov,
                                                prediction.e0.value)
            gap = np.max(np.abs(prediction.v - oracle))
            doc["oracle_max_abs_diff"] = float(gap)
        if cfg.emit_prediction:
            write_json(os.path.join(out_dir, "prediction.json"), doc)

    if not stable:
        write()
        raise StabilityError("W = I/2 - J/E0 is not stable; "
                             "no limit covariance")
    return prediction, write


def cmd_predict(args) -> int:
    from .config import resolve_e0
    cfg, out_dir = _load(args)
    _, write = _predict(cfg, out_dir, resolve_e0(cfg.plan))
    write()
    return EXIT_OK


def _write_trajectory(path, trajectory, schedule) -> None:
    """trajectory.csv: the columns t, s, gamma(s) and x_0, x_1, ..."""
    from .schedules import gamma_eval
    x = trajectory.x
    header = ["t", "s", "gamma"] + [f"x_{i}" for i in range(x.shape[1])]
    gamma = [gamma_eval(schedule, s) for s in trajectory.s.tolist()]
    write_csv(path, header, [trajectory.t, trajectory.s, np.array(gamma),
                             *x.T])


def _finish(cfg: RunConfig, out_dir: str, summary: dict, code: int,
            reason: str | None) -> int:
    """Record ``code`` in summary.json if emitted; print the reason line."""
    summary["exit_code"] = code
    if cfg.emit_summary:
        write_json(os.path.join(out_dir, "summary.json"), summary)
    if reason is not None:
        print(f"adaptix: {reason}", file=sys.stderr)
    return code


def cmd_run(args) -> int:
    from .core import run_trajectory
    cfg, out_dir = _load(args)
    plan = cfg.plan
    summary = {"command": "run", "seed": plan.master_seed,
               "horizon": plan.horizon}
    try:
        trajectory = run_trajectory(
            plan.problem, plan.init, plan.schedule, plan.sigmoid,
            plan.horizon, plan.master_seed,
            record_stride=max(1, plan.horizon // 10_000),
            divergence_bound=plan.divergence_bound)
    except DivergedTrajectoryError as exc:
        trajectory = exc.trajectory
        summary.update(diverged=True, diverged_at=exc.t)
        code, reason = EXIT_STATISTICAL, f"trajectory diverged at t={exc.t}"
    else:
        # the last recorded row is the horizon, which the plan keeps >= 1
        final_s = float(trajectory.s[-1])
        summary.update(
            diverged=False,
            final_error_norm=float(np.linalg.norm(
                trajectory.x[-1] - plan.problem.root)),
            final_s=final_s,
            final_s_over_t=final_s / plan.horizon)
        code, reason = EXIT_OK, None
    if cfg.emit_trajectory:
        _write_trajectory(os.path.join(out_dir, "trajectory.csv"),
                          trajectory, plan.schedule)
    return _finish(cfg, out_dir, summary, code, reason)


def cmd_replicate(args) -> int:
    from .montecarlo import (block_count, convergence_summary, coupling_gap,
                             normality_check, run_replicates,
                             solve_predicted_v, step_counter_drift)
    from .schedules import e0_exact
    cfg, out_dir = _load(args)
    plan = cfg.plan
    prediction = None
    load_while_waiting = (block_count(plan, args.workers) > 1
                          and e0_exact(plan.sigmoid, plan.problem.noise)
                          is None)

    def predict_and_check(get_e0):
        nonlocal prediction
        if load_while_waiting:
            # a worker runs the E0 Monte Carlo: meanwhile import the scipy
            # of the normality test and of a non-diagonal W's oracle
            import scipy.special  # noqa: F401
            j = np.atleast_2d(plan.problem.jacobian_at_root)
            if np.count_nonzero(j) != np.count_nonzero(j.diagonal()):
                import scipy.linalg  # noqa: F401
        prediction, write = _predict(cfg, out_dir, get_e0())
        # the normality test needs V invertible: decide that before
        # simulating, writing a singular V's prediction.json first
        try:
            solve_predicted_v(prediction.v, np.eye(plan.problem.dim))
        except NumericError:
            write()
            raise
        return write

    # run_replicates allocates the records first, so a replicate count that
    # cannot be held is refused before E0; with forked workers, the oracle
    # and prediction.json run here while the blocks simulate
    rset = run_replicates(plan, workers=args.workers,
                          meanwhile=predict_and_check)
    summary: dict = {
        "command": "replicate",
        "master_seed": plan.master_seed,
        "n_replicates": rset.n_replicates,
        "n_diverged": int(rset.diverged.sum()),
        "diverged_fraction": rset.diverged_fraction,
        "e0": rset.e0.value,
        "e0_stderr": rset.e0.stderr,
        "e0_method": rset.e0.method,
    }
    alive = int((~rset.diverged).sum())
    if alive < 2:
        return _finish(cfg, out_dir, summary, EXIT_STATISTICAL,
                       f"{summary['n_diverged']} of {rset.n_replicates} "
                       "replicates diverged; too few survivors for statistics")

    conv = convergence_summary(rset)
    rows = []
    for quantiles, drift in zip(conv.rows, step_counter_drift(rset)):
        check = normality_check(rset, prediction, t=quantiles["t"])
        rows.append([quantiles["t"], quantiles["quantile_50"],
                     quantiles["quantile_90"], quantiles["quantile_99"],
                     drift["s_over_t_mean"], drift["s_over_t_sd"],
                     check.cov_rel_err, check.mahalanobis_ks])
    if cfg.emit_summary:
        write_csv(os.path.join(out_dir, "checkpoints.csv"),
                  CHECKPOINT_HEADER, [np.array(c) for c in zip(*rows)])

    report = normality_check(rset, prediction, cov_tol=cfg.cov_tol,
                             ks_scale=cfg.ks_scale)
    gate_applied = rset.n_replicates >= cfg.normality_min_replicates
    summary["final_checkpoint"] = report.t
    summary["error_trend_decreasing"] = conv.decreasing
    summary["normality"] = {
        "t": report.t,
        "n_used": report.n_used,
        "cov_rel_err": report.cov_rel_err,
        "mahalanobis_ks": report.mahalanobis_ks,
        "ks_band": report.ks_band,
        "cov_tol": report.cov_tol,
        "passed": report.passed,
    }
    summary["normality_gate_applied"] = gate_applied
    if plan.couple_comparator:
        coupling = coupling_gap(rset)
        summary["coupling"] = {
            "rows": coupling.rows,
            "drop_factor": coupling.drop_factor,
            "decreasing": coupling.decreasing,
        }

    reason = None
    if rset.diverged_fraction > cfg.max_diverged_fraction:
        reason = (f"diverged fraction {rset.diverged_fraction:.4f} "
                  f"exceeds {cfg.max_diverged_fraction}")
    elif gate_applied and not report.passed:
        reason = ("normality gate failed at "
                  f"t={report.t}: cov_rel_err={report.cov_rel_err:.4f} "
                  f"(tol {report.cov_tol}), ks={report.mahalanobis_ks:.4f} "
                  f"(band {report.ks_band:.4f})")
    return _finish(cfg, out_dir, summary,
                   EXIT_OK if reason is None else EXIT_STATISTICAL, reason)


def cmd_validate(args) -> int:
    from .report import validate_problem
    cfg, out_dir = _load(args)
    plan = cfg.plan
    report = validate_problem(plan.problem, plan.schedule, plan.sigmoid,
                              seed=plan.master_seed,
                              e0_mc_samples=plan.e0_mc_samples)
    items = []
    for item in report:
        entry = {"check_id": item.check_id, "verdict": item.verdict,
                 "detail": item.detail}
        if item.witness is not None:
            entry["witness"] = item.witness
        items.append(entry)
    write_json(os.path.join(out_dir, "validation.json"), {
        "problem": plan.problem.kind,
        "all_pass": report.all_pass,
        "failed": sorted(report.failed_ids),
        "items": items,
    })
    if not report.all_pass:
        print("adaptix: assumption check(s) failed: "
              + ", ".join(sorted(report.failed_ids)), file=sys.stderr)
        return EXIT_ASSUMPTION
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adaptix",
        description="Stochastic approximation with an adaptive step counter: "
                    "predictions, simulations, and assumption checks.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = [
        ("predict", cmd_predict,
         "compute E0, W, and the limit covariance V"),
        ("run", cmd_run, "simulate one trajectory"),
        ("replicate", cmd_replicate,
         "simulate a replicate ensemble and test the limit law"),
        ("validate", cmd_validate, "run the assumption checklist"),
    ]
    for name, func, help_text in commands:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True,
                         help="path to a JSON run configuration")
        cmd.add_argument("--out", default=None,
                         help="directory for artifacts (default: output.dir "
                              "from the config, else .)")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override experiment.master_seed")
        if name == "replicate":
            cmd.add_argument("--workers", type=int, default=1,
                             help="worker processes (default: 1); results "
                                  "do not depend on this")
        cmd.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # numpy warns of nothing: the checks that refuse a non-finite value
        # keep stderr to one line, here and in the forked workers
        with np.errstate(all="ignore"):
            return args.func(args)
    except (AdaptixError, ValueError) as exc:
        print(f"adaptix: error: {exc}", file=sys.stderr)
        return next((code for types, code in _EXIT_CODES
                     if isinstance(exc, types)), EXIT_NUMERIC)


if __name__ == "__main__":
    sys.exit(main())
