"""Replicate experiments: determinism, statistics, coupling."""

import time

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
from adaptix.errors import NumericError
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
        assert other.e0 == baseline.e0


class InlineWorker(montecarlo._Worker):
    """Stands in for montecarlo._Worker: records in ``made`` the name of
    each worker made, and runs its work in this process when the worker is
    first joined, its name in ``running`` meanwhile."""
    made = []
    running = []

    def __init__(self, name, work, close=()):
        self.made.append(name)
        self.name, self.work, self.outcome = name, work, None

    def join(self):
        if self.outcome is None:
            self.running.append(self.name)
            try:
                self.outcome = (True, self.work())
            except Exception as exc:
                self.outcome = (False, exc)
            finally:
                self.running.pop()


def inline_workers(monkeypatch, cpus=2):
    """Run forked workers inline on a host of ``cpus`` CPUs; returns the
    list of the names of the workers made."""
    monkeypatch.setattr(montecarlo, "_Worker", InlineWorker)
    monkeypatch.setattr(InlineWorker, "made", [])
    monkeypatch.setattr(InlineWorker, "running", [])
    monkeypatch.setattr(montecarlo.os, "sched_getaffinity",
                        lambda pid: set(range(cpus)))
    return InlineWorker.made


def worker_names(*bounds):
    """The names of the E0 worker and of the workers of blocks ``bounds``,
    pairs of a first and a last replicate."""
    return ["the E0 worker"] + [
        f"the worker of block {b + 1} of {len(bounds)} (replicates {lo} to "
        f"{last})" for b, (lo, last) in enumerate(bounds)]


@pytest.mark.parametrize("workers, n_rep, cpus, blocks", [
    (100_000, 2, 8, 2),      # bounded by the replicates
    (100_000, 7, 3, 3),      # bounded by the CPUs this process may use
    (5, 7, 8, 5),
    (5, 7, 1, None),         # one CPU: runs inline, forks nothing
    (0, 7, 8, None),         # a count below one runs inline
    (-3, 7, 8, None),
])
def test_pool_size_is_bounded_by_work_and_cpus(monkeypatch, workers, n_rep,
                                               cpus, blocks):
    plan = scalar_plan(n_replicates=n_rep, horizon=60, checkpoints=(10, 60))
    baseline = run_replicates(plan, workers=1)
    made = inline_workers(monkeypatch, cpus)
    other = run_replicates(plan, workers=workers)
    # the E0 worker and one per block
    assert len(made) == (0 if blocks is None else 1 + blocks)
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
    made = inline_workers(monkeypatch)
    tiles.clear()
    assert record_bytes(run_replicates(plan, workers=2)) == \
        record_bytes(baseline)
    assert made == worker_names((0, 4), (5, 8))
    assert tiles == [5, 4]


@pytest.mark.parametrize("n_rep, workers", [(10, 3), (11, 4), (12, 5)])
def test_blocks_cover_the_replicates_evenly(monkeypatch, n_rep, workers):
    plan = scalar_plan(n_replicates=n_rep, horizon=60, checkpoints=(10, 60))
    baseline = run_replicates(plan, workers=1)
    blocks = []
    run_block = montecarlo._run_block

    def block(plan, e0_value, lo, hi, out):
        blocks.append((lo, hi))
        return run_block(plan, e0_value, lo, hi, out)

    monkeypatch.setattr(montecarlo, "_run_block", block)
    made = inline_workers(monkeypatch, workers)
    assert record_bytes(run_replicates(plan, workers=workers)) == \
        record_bytes(baseline)
    assert made == worker_names(*((lo, hi - 1) for lo, hi in blocks))
    # consecutive blocks from 0 to n_rep, one per worker, sizes within one
    assert blocks[0][0] == 0 and blocks[-1][1] == n_rep
    assert [lo for lo, _ in blocks[1:]] == [hi for _, hi in blocks[:-1]]
    sizes = [hi - lo for lo, hi in blocks]
    assert len(sizes) == workers and max(sizes) - min(sizes) <= 1


def recorded(events, name, fn):
    """``fn``, appending ``name`` to ``events`` at each call."""
    def call(*args, **kwargs):
        events.append(name)
        return fn(*args, **kwargs)
    return call


@pytest.mark.parametrize("workers, order", [
    (1, ["meanwhile", "e0", "beside", "e0", "kernel"]),
    # every worker is forked before meanwhile runs; InlineWorker runs a
    # block when it is joined, after the work beside the blocks
    (2, worker_names((0, 1), (2, 3)) + [
        "meanwhile", "e0 in the E0 worker", "beside",
        "kernel in the worker of block 1 of 2 (replicates 0 to 1)",
        "kernel in the worker of block 2 of 2 (replicates 2 to 3)"]),
])
def test_meanwhile_runs_beside_e0_and_before_the_blocks(monkeypatch, workers,
                                                        order):
    # Monte Carlo E0, so that the E0 worker has work to do while meanwhile
    # runs
    plan = scalar_plan(n_replicates=4, horizon=60, checkpoints=(10, 60),
                       sigmoid=plakhov_almeida_gate(-0.25, 1.0),
                       e0_mc_samples=100)
    baseline = run_replicates(plan)
    # one list: the workers made, in order with the calls
    events = inline_workers(monkeypatch)
    seen = []

    def where(name, fn):
        def call(*args, **kwargs):
            events.append(" in ".join([name] + InlineWorker.running))
            return fn(*args, **kwargs)
        return call

    def meanwhile(get_e0):
        events.append("meanwhile")
        seen.append(get_e0())
        return lambda: events.append("beside")

    monkeypatch.setattr(montecarlo, "resolve_e0",
                        where("e0", montecarlo.resolve_e0))
    monkeypatch.setattr(montecarlo, "_simulate",
                        where("kernel", montecarlo._simulate))
    rset = run_replicates(plan, workers=workers, meanwhile=meanwhile)
    assert events == order
    assert seen == [baseline.e0] and rset.e0 == baseline.e0
    if workers > 1:
        assert seen[0] is rset.e0      # the E0 worker's is the only one
    assert record_bytes(rset) == record_bytes(baseline)


def wait_for(path, lines, seconds=30.0):
    """Wait until the file ``path`` holds at least ``lines`` lines."""
    deadline = time.monotonic() + seconds
    while len(path.read_text().splitlines()) < lines:
        assert time.monotonic() < deadline, path.read_text()
        time.sleep(0.001)


def test_the_work_beside_runs_once_every_block_is_released(tmp_path,
                                                           monkeypatch):
    # real workers, which write one line each to a shared log: E0 is
    # resolved only once meanwhile runs, and the work beside the blocks
    # runs only once both blocks simulate, so neither step can wait for
    # the other
    log = tmp_path / "log"
    log.write_text("")
    plan = scalar_plan(n_replicates=4)

    def note(line):
        with open(log, "a") as fh:
            fh.write(line + "\n")

    def e0_after_meanwhile(fn):
        def call(plan):
            wait_for(log, 1)
            note("e0")
            return fn(plan)
        return call

    def meanwhile(get_e0):
        note("meanwhile")
        get_e0()

        def beside():
            wait_for(log, 4)
            note("beside")
        return beside

    monkeypatch.setattr(montecarlo, "resolve_e0",
                        e0_after_meanwhile(montecarlo.resolve_e0))
    simulate = montecarlo._simulate

    def kernel(*args, **kwargs):
        note("kernel")
        return simulate(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "_simulate", kernel)
    monkeypatch.setattr(montecarlo.os, "sched_getaffinity",
                        lambda pid: {0, 1})
    rset = run_replicates(plan, workers=2, meanwhile=meanwhile)
    assert log.read_text().splitlines() == [
        "meanwhile", "e0", "kernel", "kernel", "beside"]
    assert record_bytes(rset) == record_bytes(run_replicates(plan))


@pytest.mark.parametrize("ended, simulating", [(0, 2), (1, 1), (2, 0)])
def test_the_work_beside_waits_until_every_block_started(tmp_path,
                                                         monkeypatch, ended,
                                                         simulating):
    # real workers: the first ``ended`` blocks end before the work beside
    # runs, and the others simulate only once it has run. A block that has
    # already ended has started too, and the work beside waits for no
    # block to end, so neither case can hang
    log = tmp_path / "log"
    log.write_text("")
    plan = scalar_plan(n_replicates=4)
    run_block = montecarlo._run_block

    def note(line):
        with open(log, "a") as fh:
            fh.write(line + "\n")

    def block(plan, e0_value, lo, hi, out):
        if lo // 2 >= ended:
            wait_for(log, ended + 1)
        run_block(plan, e0_value, lo, hi, out)
        note(f"block {lo // 2} ended")

    def beside():
        wait_for(log, ended)
        note("beside")

    monkeypatch.setattr(montecarlo, "_run_block", block)
    monkeypatch.setattr(montecarlo.os, "sched_getaffinity",
                        lambda pid: {0, 1})
    rset = run_replicates(plan, workers=2, meanwhile=lambda get_e0: beside)
    lines = log.read_text().splitlines()
    assert sorted(lines[:ended]) == [f"block {b} ended"
                                     for b in range(ended)]
    assert lines[ended] == "beside"
    assert sorted(lines[ended + 1:]) == [
        f"block {b} ended" for b in range(ended, ended + simulating)]
    monkeypatch.setattr(montecarlo, "_run_block", run_block)
    assert record_bytes(rset) == record_bytes(run_replicates(plan))


def test_a_worker_resolves_e0_even_under_a_wrapper(monkeypatch):
    # a tracer that rebinds resolve_e0 to a closure; the E0 worker runs
    # its inherited copy
    original = montecarlo.resolve_e0
    calls = []

    def wrapped(plan):
        calls.append(plan)
        return original(plan)

    monkeypatch.setattr(montecarlo, "resolve_e0", wrapped)
    monkeypatch.setattr(montecarlo.os, "sched_getaffinity",
                        lambda pid: {0, 1})
    plan = scalar_plan(n_replicates=4)
    assert run_replicates(plan, workers=2).e0 == original(plan)
    assert calls == []      # the worker's copy of the wrapper ran


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("after_e0", [False, True])
def test_an_error_in_meanwhile_ends_the_run_before_any_block(monkeypatch,
                                                             workers,
                                                             after_e0):
    plan = scalar_plan(n_replicates=4)
    made = inline_workers(monkeypatch)
    events = []

    def meanwhile(get_e0):
        if after_e0:
            get_e0()
        raise ConfigError("refused")

    monkeypatch.setattr(montecarlo, "resolve_e0", recorded(
        events, "e0", montecarlo.resolve_e0))
    monkeypatch.setattr(montecarlo, "_simulate", recorded(
        events, "kernel", montecarlo._simulate))
    with pytest.raises(ConfigError, match="refused"):
        run_replicates(plan, workers=workers, meanwhile=meanwhile)
    # the blocks read the go pipe's EOF and simulate nothing; the E0 worker
    # is joined, so it runs even where meanwhile never asked for E0
    assert made == ([] if workers == 1 else worker_names((0, 1), (2, 3)))
    assert events == (["e0"] if workers == 2 or after_e0 else [])


@pytest.mark.parametrize("workers", [1, 2])
def test_an_error_beside_the_blocks_ends_the_run(monkeypatch, workers):
    plan = scalar_plan(n_replicates=4)
    made = inline_workers(monkeypatch)
    events = []

    def beside():
        events.append("beside")
        raise ConfigError("refused")

    monkeypatch.setattr(montecarlo, "_simulate", recorded(
        events, "kernel", montecarlo._simulate))
    with pytest.raises(ConfigError, match="refused"):
        run_replicates(plan, workers=workers, meanwhile=lambda get_e0: beside)
    # one block: before it; more: once the blocks are released, and the
    # error is raised once they have ended
    assert events == (["beside"] if workers == 1 else
                      ["beside", "kernel", "kernel"])
    assert made == ([] if workers == 1 else worker_names((0, 1), (2, 3)))


@pytest.mark.parametrize("failing", [1, 2])
def test_a_block_error_is_raised_once_every_worker_ends(monkeypatch,
                                                        failing):
    plan = scalar_plan(n_replicates=4)
    made = inline_workers(monkeypatch)
    events = []
    run_block = montecarlo._run_block

    def block(plan, e0_value, lo, hi, out):
        events.append(f"block {lo}")
        if lo // 2 + 1 == failing:
            raise NumericError(f"block {failing} refused")
        return run_block(plan, e0_value, lo, hi, out)

    monkeypatch.setattr(montecarlo, "_run_block", block)
    with pytest.raises(NumericError, match=f"block {failing} refused"):
        run_replicates(plan, workers=2)
    assert events == ["block 0", "block 2"]
    assert made == worker_names((0, 1), (2, 3))


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


@pytest.mark.parametrize("power", [-340, 340])
def test_normality_stats_do_not_depend_on_the_scale_of_v(power):
    # V about 1e-205 (1e205) squares to 0 (inf) in a Frobenius norm taken
    # as it stands
    rng = np.random.default_rng(5)
    v = np.array([[1.0, 0.4], [0.4, 2.0]])
    rows = rng.multivariate_normal(np.zeros(2), v, size=500)
    emp, rel_err, ks = normality_stats(rows, v)
    scaled = normality_stats(rows * 2.0**power, v * 2.0**(2 * power))
    assert np.array_equal(scaled[0], emp * 2.0**(2 * power))
    assert scaled[1:] == (rel_err, ks)


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
