"""Acceptance criteria, one test per criterion.

Each test prints a single "criterion N (...): PASS/FAIL" line directly to
the terminal (bypassing capture) and then asserts, so the run log always
carries one verdict line per criterion. Heavy ensembles are module-scoped
and shared between the criteria that use them.
"""

import json
import time

import numpy as np
import pytest

from adaptix import (ConfigError, ExperimentPlan, InitialConditions,
                     constant_gate, constant_schedule, convergence_summary, coupling_gap,
                     covariance_integral_oracle, cubic_problem, e0_exact,
                     e0_monte_carlo, gaussian_noise, kesten_gate,
                     linear_problem, normality_check, normality_stats,
                     parse_config, predict, reciprocal_schedule,
                     run_replicates, step_counter_drift, tanh_problem,
                     validate_problem)
from adaptix.cli import main as cli_main
from adaptix.report import FAIL, NOT_CHECKED
from adaptix.rng import VALIDATION_LANE, substream

SCALAR_PROBLEM = linear_problem(matrix=2.0, dim=1)
PLANE_PROBLEM = linear_problem(matrix=np.diag([1.5, 3.0]))
RECIPROCAL = reciprocal_schedule()
KESTEN = kesten_gate()


def report(capsys, number, label, ok, detail=""):
    with capsys.disabled():
        suffix = f"  [{detail}]" if detail else ""
        print(f"criterion {number} ({label}): "
              f"{'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {number} ({label}) failed {detail}"


def make_plan(problem, **overrides):
    base = dict(problem=problem, schedule=RECIPROCAL, sigmoid=KESTEN,
                init=InitialConditions(x0=problem.root + 1.0),
                horizon=10_000, n_replicates=2000, master_seed=2024,
                checkpoints=(10_000,))
    base.update(overrides)
    return ExperimentPlan(**base)


@pytest.fixture(scope="module")
def drift_ensemble():
    start = time.monotonic()
    plan = make_plan(SCALAR_PROBLEM, horizon=100_000, n_replicates=200,
                     checkpoints=(1000, 10_000, 100_000))
    rset = run_replicates(plan)
    return rset, time.monotonic() - start


def test_criterion_1_lyapunov_battery(capsys):
    # CPU time of this thread: another busy process cannot fail the bound,
    # and neither can BLAS worker threads spinning on every core
    start = time.thread_time()
    pred = predict(np.array([[2.0]]), np.array([[1.0]]), 1.0)
    scalar_ok = abs(pred.v[0, 0] - 1.0 / 3.0) < 1e-12

    rng = np.random.default_rng(424)
    battery_ok = True
    worst = 0.0
    for n in [1, 2, 3, 5, 10] * 4:
        m = rng.standard_normal((n, n))
        sym = m @ m.T / n + 0.4 * np.eye(n)
        skew = rng.standard_normal((n, n))
        jac = sym + 0.3 * (skew - skew.T)
        b = rng.standard_normal((n, n))
        cov = b @ b.T / n + 0.1 * np.eye(n)
        pred = predict(jac, cov, 0.5)
        oracle = covariance_integral_oracle(pred.w, cov, 0.5)
        diff = float(np.max(np.abs(pred.v - oracle)))
        tol = 1e-8 * max(1.0, float(np.max(np.abs(pred.v))))
        worst = max(worst, diff / tol)
        battery_ok = battery_ok and diff <= tol
    elapsed = time.thread_time() - start
    report(capsys, 1, "lyapunov solve vs integral oracle",
           scalar_ok and battery_ok and elapsed < 5.0,
           f"20 systems, worst diff/tol {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_drift_constant(capsys):
    from adaptix import constant_gate
    start = time.monotonic()
    exact = e0_exact(KESTEN, gaussian_noise(np.eye(2)))
    exact_ok = exact.value == 0.5
    const_ok = e0_exact(constant_gate(0.7),
                        gaussian_noise(np.eye(2))).value == 0.7
    mc = e0_monte_carlo(KESTEN, gaussian_noise(np.eye(2)),
                        n_samples=1_000_000, seed=13)
    mc_ok = abs(mc.value - 0.5) <= 4.0 * mc.stderr and mc.stderr > 0.0
    elapsed = time.monotonic() - start
    report(capsys, 2, "E0 exact and Monte Carlo",
           exact_ok and const_ok and mc_ok and elapsed < 5.0,
           f"mc {mc.value:.5f} +/- {mc.stderr:.1e}, {elapsed:.1f}s")


def test_criterion_3_step_counter_drift(capsys, drift_ensemble):
    rset, elapsed = drift_ensemble
    drift = step_counter_drift(rset)[-1]
    ok = abs(drift["s_over_t_mean"] - 0.5) / 0.5 < 0.05 and elapsed < 120.0
    report(capsys, 3, "counter grows like E0 t",
           ok, f"mean s/t {drift['s_over_t_mean']:.5f} at t=1e5, "
               f"{elapsed:.1f}s")


def test_criterion_4_convergence_proxy(capsys, drift_ensemble):
    rset, _ = drift_ensemble
    conv = convergence_summary(rset)
    rows = conv.rows
    q99 = [row["quantile_99"] for row in rows]
    ok = all(b < a for a, b in zip(q99, q99[1:])) \
        and conv.decreasing is True \
        and rows[-1]["quantile_50"] < 0.05 \
        and not rset.diverged.any()
    report(capsys, 4, "error quantiles shrink along the run", ok,
           "q99 " + " -> ".join(f"{v:.4f}" for v in q99))


def test_criterion_5_limit_covariance(capsys):
    start = time.monotonic()
    results = []
    for problem in (SCALAR_PROBLEM, PLANE_PROBLEM):
        plan = make_plan(problem)
        rset = run_replicates(plan)
        pred = predict(problem.jacobian_at_root, problem.noise.cov, rset.e0)
        rep = normality_check(rset, pred)
        results.append(rep)
    elapsed = time.monotonic() - start
    ok = all(r.cov_rel_err <= 0.15 and r.mahalanobis_ks <= r.ks_band
             for r in results) and elapsed < 600.0
    report(capsys, 5, "sqrt(t)-rescaled law matches N(0, V)", ok,
           "; ".join(f"cov_err {r.cov_rel_err:.3f}, ks {r.mahalanobis_ks:.3f}"
                     f"<= {r.ks_band:.3f}" for r in results)
           + f", {elapsed:.1f}s")


def test_criterion_6_comparator_coupling(capsys):
    start = time.monotonic()
    common = dict(horizon=100_000, n_replicates=200,
                  checkpoints=(1000, 10_000, 100_000),
                  couple_comparator=True)
    coupled = run_replicates(make_plan(SCALAR_PROBLEM, **common))
    gap = coupling_gap(coupled)
    control = run_replicates(make_plan(SCALAR_PROBLEM,
                                       comparator_noise="independent",
                                       **common))
    control_gap = coupling_gap(control)
    elapsed = time.monotonic() - start
    ok = gap.decreasing and not control_gap.decreasing and elapsed < 300.0
    q = [row["quantile_90"] for row in gap.rows]
    report(capsys, 6, "coupled comparator gap contracts", ok,
           f"q90 {q[0]:.4f} -> {q[-1]:.4f}, control flat, {elapsed:.1f}s")


def test_criterion_7_diagnostic_calibration(capsys):
    start = time.monotonic()
    v = np.diag([0.8, 4.0 / 11.0])
    factor = np.linalg.cholesky(v)
    n_rep = 2000
    band = 1.63 / np.sqrt(n_rep)
    passes = 0
    for k in range(100):
        rng = substream(777, VALIDATION_LANE, k)
        rows = rng.standard_normal((n_rep, 2)) @ factor.T
        _, rel_err, ks = normality_stats(rows, v)
        passes += rel_err <= 0.15 and ks <= band
    elapsed = time.monotonic() - start
    report(capsys, 7, "normality diagnostic calibrated on exact draws",
           passes >= 99 and elapsed < 60.0, f"{passes}/100, {elapsed:.1f}s")


def test_criterion_8_bitwise_determinism(capsys, tmp_path):
    config = {
        "problem": {"kind": "linear", "dim": 2,
                    "matrix": [[1.5, 0.0], [0.0, 3.0]],
                    "noise": {"kind": "gaussian", "cov": 1.0}},
        "sigmoid": {"family": "kesten", "u_plus": 1.0},
        "schedule": {"family": "reciprocal", "s_floor": 1.0},
        "experiment": {"horizon": 2000, "n_replicates": 50,
                       "master_seed": 77, "checkpoints": [100, 2000]},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    outs = []
    for name, workers in (("first", "1"), ("again", "1"), ("wide", "8")):
        out = tmp_path / name
        code = cli_main(["replicate", "--config", str(path), "--out",
                         str(out), "--workers", workers])
        outs.append(out)
        assert code == 0
    ok = True
    for name in ("config.json", "prediction.json", "checkpoints.csv",
                 "summary.json"):
        blobs = [(out / name).read_bytes() for out in outs]
        ok = ok and blobs[0] == blobs[1] == blobs[2]
    report(capsys, 8, "artifacts byte-identical across reruns and workers",
           ok, "workers 1, 1, 8")


def test_criterion_9_assumption_checks(capsys):
    floor4 = reciprocal_schedule(s_floor=4.0)
    battery_ok = True
    for problem in (PLANE_PROBLEM, tanh_problem(matrix=np.diag([1.5, 2.0])),
                    cubic_problem(a=1.0, c=1.0)):
        rep = validate_problem(problem, floor4, KESTEN, seed=0)
        battery_ok = battery_ok and not rep.failed_ids
    cubic_rep = validate_problem(cubic_problem(a=1.0, c=1.0), floor4, KESTEN,
                                 seed=0)
    battery_ok = battery_ok and cubic_rep.verdict("B3.2") == NOT_CHECKED

    flat = validate_problem(PLANE_PROBLEM, constant_schedule(0.1), KESTEN,
                            seed=0)
    catches_schedule = flat.verdict("B2.3") == FAIL

    try:
        parse_config({"problem": {"kind": "linear", "dim": 1},
                      "sigmoid": {"family": "kesten", "u_plus": -0.5},
                      "schedule": {"family": "reciprocal"}})
        catches_gate = False
        gate_msg = "accepted"
    except ConfigError as exc:
        catches_gate = "B4.1" in str(exc)
        gate_msg = "rejected citing B4.1"

    report(capsys, 9, "assumption checklist and config guards",
           battery_ok and catches_schedule and catches_gate,
           f"battery clean, constant schedule fails B2.3, u_plus<=0 "
           f"{gate_msg}")


def test_criterion_10_sign_rule_ends_the_deterministic_phase(capsys):
    # The paper's own claim: from x0 = 100 the kesten gate leaves the
    # deterministic phase, and plain 1/(E0 t) steps (a constant gate of the
    # same E0 = 0.5, so the same W and V) are still in it at t = 1000.
    # Measured at seed 1: the ratio of the median error to sqrt(tr V / t)
    # read 0.81 and 0.79 for kesten at t = 100 and 1000, and 102 and 81 for
    # the constant gate.
    problem = linear_problem(matrix=np.diag([0.3, 0.5]),
                             noise=gaussian_noise(0.01 * np.eye(2)))
    ratios = {}
    for name, gate in (("kesten", KESTEN), ("constant", constant_gate(0.5))):
        plan = make_plan(problem, sigmoid=gate,
                         init=InitialConditions(x0=np.full(2, 100.0)),
                         horizon=1000, n_replicates=500, master_seed=1,
                         checkpoints=(10, 100, 1000))
        rset = run_replicates(plan)
        pred = predict(problem.jacobian_at_root, problem.noise.cov, rset.e0)
        scale = np.trace(pred.v)
        ratios[name] = {row["t"]: row["quantile_50"]
                        / np.sqrt(scale / row["t"])
                        for row in convergence_summary(rset).rows}
    # twice the measured 0.81; half the measured 81
    kesten_ok = all(r < 1.6 for t, r in ratios["kesten"].items() if t >= 100)
    constant_ok = all(r > 40.0 for r in ratios["constant"].values())
    detail = ", ".join(f"{name} " + " ".join(
        f"t={t}: {r:.2f}" for t, r in by_t.items())
        for name, by_t in ratios.items())
    report(capsys, 10, "the sign rule ends the deterministic phase",
           kesten_ok and constant_ok, detail)
