"""Replicate experiments: determinism, statistics, coupling."""

import concurrent.futures
from concurrent.futures import Future

import numpy as np
import pytest

from adaptix import (ConfigError, ExperimentPlan, InitialConditions,
                     convergence_summary, coupling_gap, default_checkpoints,
                     gaussian_noise, kesten_gate, linear_problem,
                     normality_check, normality_stats, plakhov_almeida_gate,
                     predict, reciprocal_schedule, resolve_e0, run_replicates,
                     run_trajectory, scaled_rademacher_noise,
                     step_counter_drift, tanh_problem, uniform_ball_noise)
from adaptix import montecarlo
from adaptix._rowops import apply_rows
from adaptix.core import NOISE_CHUNK, _simulate
from adaptix.montecarlo import _ks_distance, chi2_cdf
from adaptix.rng import TRAJECTORY_LANE, substream

RECIPROCAL = reciprocal_schedule()
KESTEN = kesten_gate()


def scalar_plan(**overrides):
    problem = linear_problem(matrix=2.0, dim=1)
    base = dict(problem=problem, schedule=RECIPROCAL, sigmoid=KESTEN,
                init=InitialConditions(x0=np.array([1.0])), horizon=50,
                n_replicates=3, master_seed=123, checkpoints=(1, 10, 50))
    base.update(overrides)
    return ExperimentPlan(**base)


# ---------------------------------------------------------------------------
# determinism


def test_frozen_replicate_values():
    # regression pin for the whole reproducibility contract: substream
    # layout, noise chunking, and row-local arithmetic
    rset = run_replicates(scalar_plan())
    assert rset.x[-1, :, 0].tolist() == [
        0.010980704771961662, 0.09367844812810733, 0.02681546463678213]
    assert rset.s[-1, :].tolist() == [31.0, 26.0, 27.0]
    assert rset.x[0, :, 0].tolist() == [
        -1.3075264445069208, 0.9224007046751899, -0.5227620871103993]


def test_frozen_coupled_values():
    problem = linear_problem(matrix=np.diag([1.5, 3.0]))
    plan = ExperimentPlan(
        problem=problem, schedule=RECIPROCAL,
        sigmoid=plakhov_almeida_gate(-0.25, 1.0),
        init=InitialConditions(x0=np.array([1.0, 1.0])), horizon=40,
        n_replicates=2, master_seed=9, checkpoints=(40,),
        couple_comparator=True)
    rset = run_replicates(plan)
    assert rset.x[-1].tolist() == [
        [-0.1601770038958603, 0.045598725919962155],
        [-0.3871114039820788, 0.05073733485532385]]
    assert rset.z[-1].tolist() == [
        [-0.1567098993528325, 0.04645124803152884],
        [-0.41481735981896717, 0.05414186143661184]]
    assert rset.s[-1].tolist() == [16.25, 18.75]


def test_worker_count_never_changes_bits():
    plan = scalar_plan(n_replicates=7, horizon=500, checkpoints=(10, 500))
    baseline = run_replicates(plan, workers=1)
    for workers in (2, 3, 7, 12):
        other = run_replicates(plan, workers=workers)
        assert np.array_equal(baseline.x, other.x)
        assert np.array_equal(baseline.s, other.s)
        assert np.array_equal(baseline.diverged_at, other.diverged_at)


class InlinePool:
    """Stands in for ProcessPoolExecutor: records the requested size and
    runs each submitted block in this process."""
    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize("workers, n_rep, cpus, pool_size", [
    (100_000, 2, 8, 2),      # bounded by the replicates
    (100_000, 7, 3, 3),      # bounded by the CPUs this process may use
    (5, 7, 8, 5),
    (5, 7, 1, None),         # one CPU: runs inline, no pool
])
def test_pool_size_is_bounded_by_work_and_cpus(monkeypatch, workers, n_rep,
                                               cpus, pool_size):
    plan = scalar_plan(n_replicates=n_rep, horizon=60, checkpoints=(10, 60))
    baseline = run_replicates(plan, workers=1)
    # run_replicates imports the pool only when it forks one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(montecarlo.os, "sched_getaffinity",
                        lambda pid: set(range(cpus)))
    monkeypatch.setattr(InlinePool, "sizes", [])
    other = run_replicates(plan, workers=workers)
    assert InlinePool.sizes == ([] if pool_size is None else [pool_size])
    assert np.array_equal(baseline.x, other.x)
    assert np.array_equal(baseline.s, other.s)


def record_bytes(rset):
    return [None if a is None else a.tobytes()
            for a in (rset.x, rset.s, rset.z, rset.diverged_at)]


@pytest.mark.parametrize("noise", [
    gaussian_noise(np.eye(2)), uniform_ball_noise(2, 2.0),
    scaled_rademacher_noise(2, 1.0)], ids=lambda n: n.kind)
@pytest.mark.parametrize("comparator", [None, "shared", "independent"])
def test_tiles_never_change_bits(monkeypatch, noise, comparator):
    # the horizon refills the noise buffer once and ends on a short chunk;
    # the bound freezes some replicates early and lets the others run
    n_rep, horizon = 9, NOISE_CHUNK + 7
    problem = linear_problem(matrix=np.diag([1.5, 3.0]), noise=noise)
    plan = ExperimentPlan(
        problem=problem, schedule=RECIPROCAL, sigmoid=KESTEN,
        init=InitialConditions(x0=np.array([0.5, -0.5])), horizon=horizon,
        n_replicates=n_rep, master_seed=5, checkpoints=(1, 500, horizon),
        couple_comparator=comparator is not None,
        comparator_noise=comparator or "shared", divergence_bound=3.5)
    streams = 2 if comparator == "independent" else 1
    per_replicate = streams * NOISE_CHUNK * 2 * 8
    tiles = []

    def kernel(problem, init, schedule, sigmoid, horizon, rngs, *args,
               **kwargs):
        tiles.append(len(rngs))
        return _simulate(problem, init, schedule, sigmoid, horizon, rngs,
                         *args, **kwargs)

    monkeypatch.setattr(montecarlo, "_simulate", kernel)
    baseline = run_replicates(plan)
    assert tiles == [n_rep]
    assert 0 < baseline.diverged.sum() < n_rep
    for tile, sizes in ((1, [1] * n_rep), (7, [7, 2]), (n_rep, [n_rep])):
        monkeypatch.setattr(montecarlo, "NOISE_TILE_BYTES",
                            tile * per_replicate)
        tiles.clear()
        assert record_bytes(run_replicates(plan)) == record_bytes(baseline)
        assert tiles == sizes
    # two workers in tiles of at most 7: blocks of 5 and 4 replicates
    monkeypatch.setattr(montecarlo, "NOISE_TILE_BYTES", 7 * per_replicate)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(montecarlo.os, "sched_getaffinity",
                        lambda pid: {0, 1})
    monkeypatch.setattr(InlinePool, "sizes", [])
    tiles.clear()
    assert record_bytes(run_replicates(plan, workers=2)) == \
        record_bytes(baseline)
    assert InlinePool.sizes == [2]
    assert tiles == [5, 4]


def test_each_row_is_its_own_substream():
    plan = scalar_plan(n_replicates=4, horizon=80, checkpoints=(80,))
    rset = run_replicates(plan)
    for r in range(4):
        traj = run_trajectory(plan.problem, plan.init, plan.schedule,
                              plan.sigmoid, plan.horizon,
                              substream(plan.master_seed, TRAJECTORY_LANE, r))
        assert np.array_equal(rset.x[-1, r], traj.x[-1])
        assert rset.s[-1, r] == traj.s[-1]


def test_plain_int_seed_is_replicate_zero():
    plan = scalar_plan(n_replicates=2, horizon=60, checkpoints=(60,))
    rset = run_replicates(plan)
    traj = run_trajectory(plan.problem, plan.init, plan.schedule,
                          plan.sigmoid, 60, seed=plan.master_seed)
    assert np.array_equal(rset.x[-1, 0], traj.x[-1])


def test_zero_noise_replicates_coincide():
    problem = linear_problem(matrix=1.0, dim=1, noise=gaussian_noise([[0.0]]))
    plan = scalar_plan(problem=problem, sigmoid=kesten_gate(),
                       n_replicates=3, horizon=30, checkpoints=(30,),
                       e0_mc_samples=10_000)
    rset = run_replicates(plan)
    assert np.array_equal(rset.x[-1, 0], rset.x[-1, 1])
    assert np.array_equal(rset.x[-1, 0], rset.x[-1, 2])


def replay_comparator(plan, e0, r):
    """z_t = z_{t-1} - (1/(E0 t)) (alpha z_{t-1} + xi_t) on replicate r's
    noise, drawn in the kernel's blocks: the cross-check of the kernel's
    comparator."""
    rng = substream(plan.master_seed, TRAJECTORY_LANE, r)
    xi = np.concatenate([plan.problem.noise.sample_block(
        rng, min(NOISE_CHUNK, plan.horizon - lo))
        for lo in range(0, plan.horizon, NOISE_CHUNK)])
    z, alpha = plan.init.x0[None, :], plan.problem.jacobian_at_root
    for t in range(1, plan.horizon + 1):
        z = z - (1.0 / (e0 * t)) * (apply_rows(alpha, z) + xi[t - 1])
    return z[0]


def test_shared_comparator_replays_trajectory_noise():
    # 2500 steps span three noise blocks
    tanh_ball = dict(problem=tanh_problem(matrix=np.diag([1.5, 3.0]),
                                          noise=uniform_ball_noise(2, 1.0)),
                     sigmoid=plakhov_almeida_gate(-0.25, 1.0),
                     init=InitialConditions(x0=np.array([1.0, -1.0])),
                     e0_mc_samples=10_000)
    for overrides in ({}, tanh_ball):
        plan = scalar_plan(n_replicates=3, horizon=2500, checkpoints=(2500,),
                           couple_comparator=True, **overrides)
        rset = run_replicates(plan)
        for r in range(3):
            assert np.array_equal(rset.z[-1, r],
                                  replay_comparator(plan, rset.e0.value, r))


def test_comparator_satisfies_the_same_limit_law():
    # sqrt(t) (z_t - x*) tends to the same N(0, V) as the adaptive iterate
    plan = scalar_plan(horizon=3000, n_replicates=600, master_seed=42,
                       checkpoints=(3000,), couple_comparator=True)
    rset = run_replicates(plan)
    pred = predict(plan.problem.jacobian_at_root, plan.problem.noise.cov,
                   rset.e0)
    scaled = np.sqrt(3000.0) * (rset.z[-1] - plan.problem.root)
    _, rel_err, ks = normality_stats(scaled, pred.v)
    assert rel_err < 0.15
    assert ks < 1.63 / np.sqrt(600)


def test_zero_noise_coupling_is_deterministic():
    problem = linear_problem(matrix=2.0, dim=1,
                             noise=gaussian_noise(np.array([[0.0]])))
    plan = scalar_plan(problem=problem, horizon=100, n_replicates=2,
                       master_seed=7, checkpoints=(10, 100),
                       couple_comparator=True)
    rset = run_replicates(plan)
    assert np.array_equal(rset.x[:, 0], rset.x[:, 1])
    assert np.array_equal(rset.z[:, 0], rset.z[:, 1])
    gap = coupling_gap(rset)
    assert all(np.isfinite(row["quantile_90"]) for row in gap.rows)
    # with the noise switched off this trajectory lands exactly on the root
    assert rset.x[-1, 0].tolist() == [0.0]


# ---------------------------------------------------------------------------
# plan validation and E0 resolution


def test_plan_validation():
    with pytest.raises(ConfigError):
        scalar_plan(horizon=0)
    with pytest.raises(ConfigError):
        scalar_plan(n_replicates=1)              # an ensemble needs ddof=1
    with pytest.raises(ConfigError):
        scalar_plan(checkpoints=(10, 5))
    with pytest.raises(ConfigError):
        scalar_plan(checkpoints=(0, 10))
    with pytest.raises(ConfigError):
        scalar_plan(checkpoints=(10, 100))       # beyond the horizon
    with pytest.raises(ConfigError):
        scalar_plan(comparator_noise="mirrored")
    with pytest.raises(ConfigError):
        scalar_plan(init=InitialConditions(x0=np.array([1.0, 2.0])))


def test_default_checkpoints():
    assert default_checkpoints(10_000) == (10, 100, 1000, 10_000)
    assert default_checkpoints(2500) == (10, 100, 1000, 2500)
    assert default_checkpoints(5) == (5,)


def test_resolve_e0_prefers_closed_form():
    est = resolve_e0(scalar_plan())
    assert est.method == "exact"
    assert est.value == 0.5
    plan = scalar_plan(sigmoid=plakhov_almeida_gate(-0.5, 1.0),
                       e0_mc_samples=100_000)
    est = resolve_e0(plan)
    assert est.method == "monte_carlo"
    assert abs(est.value - 0.25) <= 4.0 * est.stderr


# ---------------------------------------------------------------------------
# statistics


def test_summary_and_drift_shapes():
    plan = scalar_plan(n_replicates=40, horizon=2000,
                       checkpoints=(100, 2000))
    rset = run_replicates(plan)
    conv = convergence_summary(rset)
    rows = conv.rows
    assert [row["t"] for row in rows] == [100, 2000]
    assert rows[1]["quantile_50"] <= rows[0]["quantile_99"]
    assert conv.decreasing is True
    drift = step_counter_drift(rset)
    assert drift[-1]["rel_dev_from_e0"] < 0.05
    assert drift[-1]["s_over_t_sd"] > 0.0


def test_trend_flag_needs_two_checkpoints():
    plan = scalar_plan(n_replicates=5, horizon=50, checkpoints=(50,))
    conv = convergence_summary(run_replicates(plan))
    assert len(conv.rows) == 1
    assert conv.decreasing is None


def test_diverged_rows_are_excluded_and_counted():
    from adaptix import constant_schedule
    problem = linear_problem(matrix=2.0, dim=1)
    plan = scalar_plan(problem=problem, schedule=constant_schedule(2.0),
                       horizon=60, n_replicates=3, checkpoints=(60,),
                       divergence_bound=1e6)
    rset = run_replicates(plan)
    assert np.all(rset.diverged)
    with pytest.raises(ValueError):
        convergence_summary(rset)


def test_ks_distance_against_known_cdf():
    # uniform sample vs its own CDF: the distance of k points placed at
    # (i+0.5)/k is exactly 0.5/k
    pts = (np.arange(10) + 0.5) / 10.0
    assert _ks_distance(pts, lambda x: x) == pytest.approx(0.05)


@pytest.mark.parametrize("dim", range(1, 9))
def test_chi2_cdf_is_scipy_stats_chi2_bit_for_bit(dim):
    from scipy.stats import chi2
    rng = np.random.default_rng(dim)
    q = np.concatenate([
        rng.chisquare(dim, 20_000), rng.uniform(-3.0, 40.0, 2000),
        [0.0, -0.0, -1e-300, -1.0, 5e-324, 1e300, np.inf, -np.inf, np.nan]])
    expected = chi2(dim).cdf(q)
    got = chi2_cdf(q, dim)
    assert got.dtype == expected.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
    assert np.all(chi2_cdf(np.array([-0.0, -1e-300, -np.inf]), dim) == 0.0)


def test_normality_stats_calibrated_and_discriminating():
    rng = np.random.default_rng(88)
    v = np.array([[1.0, 0.4], [0.4, 2.0]])
    rows = rng.multivariate_normal(np.zeros(2), v, size=4000)
    emp, rel_err, ks = normality_stats(rows, v)
    assert rel_err < 0.1
    assert ks < 1.63 / np.sqrt(4000)
    # a mis-scaled prediction must be rejected by both statistics
    emp, rel_err, ks = normality_stats(rows, 2.0 * v)
    assert rel_err > 0.4
    assert ks > 1.63 / np.sqrt(4000)


def test_normality_check_end_to_end():
    plan = scalar_plan(n_replicates=400, horizon=2000, checkpoints=(2000,))
    rset = run_replicates(plan)
    pred = predict(plan.problem.jacobian_at_root, plan.problem.noise.cov,
                   rset.e0)
    report = normality_check(rset, pred)
    assert report.t == 2000
    assert report.n_used == 400
    assert report.passed
    assert report.empirical_cov.shape == (1, 1)


def test_normality_check_needs_stable_prediction():
    plan = scalar_plan(n_replicates=5, horizon=20, checkpoints=(20,))
    rset = run_replicates(plan)
    unstable = predict(np.array([[0.2]]), np.array([[1.0]]), 0.5)
    with pytest.raises(ValueError):
        normality_check(rset, unstable)


def test_covariance_scales_with_noise():
    # doubling the noise covariance should double the spread of the limit
    base = scalar_plan(n_replicates=300, horizon=2000, checkpoints=(2000,))
    loud = scalar_plan(
        problem=linear_problem(matrix=2.0, dim=1,
                               noise=gaussian_noise([[2.0]])),
        n_replicates=300, horizon=2000, checkpoints=(2000,))
    var = []
    for plan in (base, loud):
        rset = run_replicates(plan)
        rows = np.sqrt(2000.0) * (rset.x[-1] - plan.problem.root)
        var.append(float(np.var(rows[:, 0], ddof=1)))
    assert 1.6 < var[1] / var[0] < 2.4


def test_coupling_contracts_and_control_does_not():
    common = dict(n_replicates=60, horizon=2000, checkpoints=(100, 2000),
                  couple_comparator=True)
    coupled = run_replicates(scalar_plan(**common))
    gap = coupling_gap(coupled)
    assert gap.decreasing
    assert gap.rows[-1]["quantile_90"] < gap.rows[0]["quantile_90"]

    control = run_replicates(scalar_plan(comparator_noise="independent",
                                         **common))
    control_gap = coupling_gap(control)
    assert not control_gap.decreasing


def test_coupling_gap_requires_comparator():
    rset = run_replicates(scalar_plan())
    with pytest.raises(ValueError):
        coupling_gap(rset)
