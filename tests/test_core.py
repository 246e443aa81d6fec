"""Single-step semantics, trajectory engine, and the comparator."""

import tracemalloc

import numpy as np
import pytest

from adaptix import (AlgoState, ConfigError, DimensionMismatchError,
                     DivergedTrajectoryError, InitialConditions,
                     NonFiniteMeasurementError, constant_gate,
                     constant_schedule, core, field_eval, gaussian_noise,
                     kesten_gate, linear_problem, plakhov_almeida_gate,
                     power_schedule, reciprocal_schedule, run_trajectory,
                     sa_step, smooth_gate, uniform_ball_noise)
from adaptix.core import NOISE_CHUNK, ComparatorConfig, _simulate
from adaptix.rng import TRAJECTORY_LANE, substream

RECIPROCAL = reciprocal_schedule()
KESTEN = kesten_gate()

ZERO_NOISE_1D = gaussian_noise([[0.0]])


def state_at(t, x, s, y_prev=None, s_staged=None):
    return AlgoState(t=t, x=np.atleast_1d(np.asarray(x, dtype=float)),
                     s=s, y_prev=y_prev, s_staged=s_staged)


# ---------------------------------------------------------------------------
# one step


def test_step_moves_against_measurement():
    state = state_at(1, 1.0, 4.0, y_prev=[1.0])
    new = sa_step(state, [1.0], RECIPROCAL, KESTEN)
    assert new.x[0] == 0.75            # gamma(4) = 1/4
    assert new.t == 2
    # consecutive measurements aligned: kesten adds nothing
    assert new.s == 4.0
    assert new.y_prev[0] == 1.0
    assert new.s_staged is None


def test_step_counts_a_sign_flip():
    state = state_at(1, 1.0, 4.0, y_prev=[-1.0])
    new = sa_step(state, [1.0], RECIPROCAL, KESTEN)
    assert new.s == 5.0


def test_step_left_convention_at_tie():
    gate = plakhov_almeida_gate(-0.5, 1.0, at_zero="left")
    state = state_at(1, 0.0, 2.0, y_prev=[0.0])
    new = sa_step(state, [1.0], RECIPROCAL, gate)
    assert new.s == 1.5                # (2 - 0.5)+ under the left convention


def test_step_counter_clamped_at_zero():
    gate = plakhov_almeida_gate(-0.5, 1.0)
    state = state_at(1, 0.0, 0.2, y_prev=[1.0])
    new = sa_step(state, [1.0], RECIPROCAL, gate)
    assert new.s == 0.0


def test_first_step_consumes_staged_counter():
    init = InitialConditions(x0=np.array([1.0]), s0=4.0, s1=7.0)
    state = init.initial_state()
    assert state.s == 4.0 and state.s_staged == 7.0
    new = sa_step(state, [2.0], RECIPROCAL, KESTEN)
    assert new.x[0] == 0.5             # priced at gamma(s0) = 1/4
    assert new.s == 7.0                # staged value becomes the counter
    assert new.s_staged is None


def test_first_step_requires_staged_counter():
    state = state_at(0, 1.0, 1.0)
    with pytest.raises(ConfigError):
        sa_step(state, [1.0], RECIPROCAL, KESTEN)


def test_step_rejects_bad_measurements():
    state = state_at(1, [1.0, 0.0], 1.0, y_prev=[1.0, 0.0])
    with pytest.raises(DimensionMismatchError):
        sa_step(state, [1.0], RECIPROCAL, KESTEN)
    with pytest.raises(NonFiniteMeasurementError):
        sa_step(state, [np.nan, 0.0], RECIPROCAL, KESTEN)


def test_state_validation():
    with pytest.raises(ValueError):
        state_at(0, np.inf, 1.0)
    with pytest.raises(ValueError):
        state_at(0, 1.0, -0.5)
    with pytest.raises(DimensionMismatchError):
        state_at(1, [1.0], 1.0, y_prev=[1.0, 2.0])
    with pytest.raises(ValueError):
        InitialConditions(x0=np.array([1.0]), s0=-1.0)


# ---------------------------------------------------------------------------
# whole trajectories


def test_deterministic_contraction():
    # zero noise, unit slope, constant step 1/2: x halves every step and the
    # measurements never change sign, so a kesten counter stays at s1
    problem = linear_problem(matrix=1.0, dim=1, noise=ZERO_NOISE_1D)
    init = InitialConditions(x0=np.array([1.0]), s0=1.0, s1=1.0)
    traj = run_trajectory(problem, init, constant_schedule(0.5), KESTEN,
                          horizon=10, seed=0)
    assert traj.final.x[0] == 0.5**10
    assert np.all(traj.s[1:] == 1.0)


def test_staged_counter_through_engine():
    problem = linear_problem(matrix=1.0, dim=1, noise=ZERO_NOISE_1D)
    init = InitialConditions(x0=np.array([1.0]), s0=4.0, s1=7.0)
    traj = run_trajectory(problem, init, RECIPROCAL, KESTEN, horizon=2, seed=0)
    assert traj.states[1].x[0] == 0.75
    assert traj.states[1].s == 7.0
    assert traj.states[2].x[0] == 0.75 - (1.0 / 7.0) * 0.75
    assert traj.states[2].s == 7.0


def test_record_stride_keeps_endpoints():
    problem = linear_problem(matrix=1.0, dim=1)
    init = InitialConditions(x0=np.array([1.0]))
    traj = run_trajectory(problem, init, RECIPROCAL, KESTEN, horizon=10,
                          seed=3, record_stride=3)
    assert list(traj.t) == [0, 3, 6, 9, 10]
    assert traj.final.t == 10


def test_negative_horizon_is_rejected_by_the_kernel():
    problem = linear_problem(matrix=1.0, dim=1)
    init = InitialConditions(x0=np.array([1.0]))
    with pytest.raises(ValueError, match="horizon must be >= 0"):
        run_trajectory(problem, init, RECIPROCAL, KESTEN, horizon=-1, seed=0)


def stepwise_replay(problem, init, schedule, sigmoid, horizon, seed, noise):
    # replay the engine's exact noise stream: per-replicate substream,
    # consumed in NOISE_CHUNK blocks (block size is part of the contract
    # because the ball sampler interleaves normals and radii per block)
    rng = substream(seed, TRAJECTORY_LANE, 0)
    blocks = []
    done = 0
    while done < horizon:
        count = min(NOISE_CHUNK, horizon - done)
        blocks.append(noise.sample_block(rng, count))
        done += count
    xi = np.concatenate(blocks, axis=0)
    state = init.initial_state()
    for t in range(horizon):
        y = field_eval(problem, state.x) + xi[t]
        state = sa_step(state, y, schedule, sigmoid)
    return state


@pytest.mark.parametrize("noise_builder,horizon", [
    (lambda: gaussian_noise(np.eye(2)), 90),
    (lambda: gaussian_noise([[2.0, 0.5], [0.5, 1.0]]), 2500),
    (lambda: uniform_ball_noise(2, 1.5), 2500),
])
def test_engine_matches_stepwise_composition(noise_builder, horizon):
    noise = noise_builder()
    problem = linear_problem(matrix=np.array([[1.5, 0.2], [0.0, 2.0]]),
                             noise=noise)
    init = InitialConditions(x0=np.array([1.0, -1.0]), s0=2.0, s1=3.0)
    gate = plakhov_almeida_gate(-0.2, 1.0)
    traj = run_trajectory(problem, init, RECIPROCAL, gate, horizon, seed=17,
                          record_stride=horizon)
    manual = stepwise_replay(problem, init, RECIPROCAL, gate, horizon, 17,
                             noise)
    assert np.array_equal(traj.final.x, manual.x)
    assert traj.final.s == manual.s


def test_counter_invariants_over_gates():
    noise = gaussian_noise(np.eye(2))
    problem = linear_problem(matrix=np.diag([1.0, 2.0]), noise=noise)
    init = InitialConditions(x0=np.array([1.0, 1.0]), s0=1.0, s1=1.0)
    gates = [KESTEN, plakhov_almeida_gate(-0.5, 1.0),
             smooth_gate(-0.5, 1.0, beta=2.0), constant_gate(0.7)]
    for seed in range(5):
        for gate in gates:
            traj = run_trajectory(problem, init, RECIPROCAL, gate,
                                  horizon=200, seed=seed)
            s = traj.s
            t = traj.t
            assert np.all(s >= 0.0)
            # each increment is at most u_plus
            bound = init.s1 + (t[1:] - 1) * gate.u_plus
            assert np.all(s[1:] <= bound + 1e-9)
            if gate.u_minus >= 0.0:
                assert np.all(np.diff(s[1:]) >= 0.0)


def test_pointwise_larger_gate_never_lowers_the_counter():
    # the counter recursion s' = (s + u(v))+ driven by a common argument
    # sequence preserves pointwise order between gates
    from adaptix import sigmoid_eval
    lo = plakhov_almeida_gate(-0.5, 0.8)
    hi = plakhov_almeida_gate(-0.2, 1.0)
    vs = np.random.default_rng(5).normal(size=300)
    s_lo, s_hi = 1.0, 1.0
    for v in vs:
        s_lo = max(s_lo + float(sigmoid_eval(lo, v)), 0.0)
        s_hi = max(s_hi + float(sigmoid_eval(hi, v)), 0.0)
        assert s_hi >= s_lo


def test_constant_gate_counter_is_affine_in_t():
    problem = linear_problem(matrix=1.0, dim=1)
    init = InitialConditions(x0=np.array([1.0]))
    traj = run_trajectory(problem, init, RECIPROCAL, constant_gate(1.0),
                          horizon=300, seed=9)
    t = traj.t[1:]
    assert np.array_equal(traj.s[1:], 1.0 + (t - 1.0))


def test_divergence_raises_with_last_finite_state():
    # zero noise, slope 2, constant step 2: x_t = (-3)^t exactly
    problem = linear_problem(matrix=2.0, dim=1, noise=ZERO_NOISE_1D)
    init = InitialConditions(x0=np.array([1.0]))
    with pytest.raises(DivergedTrajectoryError) as exc:
        run_trajectory(problem, init, constant_schedule(2.0), KESTEN,
                       horizon=20, seed=0, divergence_bound=1e6)
    err = exc.value
    assert err.t == 13                      # 3^13 is the first power above 1e6
    assert err.state.t == 12
    assert err.state.x[0] == (-3.0)**12
    assert err.state.y_prev[0] == 2.0 * (-3.0)**11
    recorded = err.trajectory.t
    assert recorded.max() <= 12


def test_early_stop_memory_follows_recorded_times():
    # every replicate diverges at step 13 of a 1e7-step horizon; the kernel
    # stops there and fills the remaining slot with the last finite state
    problem = linear_problem(matrix=2.0, dim=1, noise=ZERO_NOISE_1D)
    init = InitialConditions(x0=np.array([1.0]))
    rngs = [substream(5, TRAJECTORY_LANE, r) for r in range(2)]
    tracemalloc.start()
    try:
        res = _simulate(problem, init, constant_schedule(2.0), KESTEN,
                        10**7, rngs, [0, 7, 10**7], divergence_bound=1e6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert list(res.diverged_at) == [13, 13]
    assert np.all(res.x[1] == (-3.0)**7)
    assert np.all(res.x[2] == (-3.0)**12)
    assert np.all(res.y[2] == 2.0 * (-3.0)**11)
    assert np.all(res.s[2] == 12.0)
    assert np.array_equal(res.x[2], res.x[-1])


def test_mixed_divergence_batch_rows_match_single_runs():
    # one batch in which replicates diverge at steps 1, 17 and 26 while the
    # others survive: every row must be that replicate's own run, with the
    # dead ones frozen at their last finite state
    problem = linear_problem(matrix=np.array([[1.0, 0.3], [0.0, 1.2]]),
                             noise=gaussian_noise(np.eye(2)))
    init = InitialConditions(x0=np.array([0.5, -0.5]))
    schedule = power_schedule(1.0, 0.3)
    gate = plakhov_almeida_gate(-0.5, 1.0)
    horizon, bound, n_rep = 400, 2.0, 10
    rngs = [substream(1, TRAJECTORY_LANE, r) for r in range(n_rep)]
    res = _simulate(problem, init, schedule, gate, horizon, rngs,
                    range(horizon + 1), divergence_bound=bound)
    assert sorted(res.diverged_at[res.diverged_at >= 0]) == [1, 17, 26]
    for r in range(n_rep):
        seed = substream(1, TRAJECTORY_LANE, r)
        try:
            traj = run_trajectory(problem, init, schedule, gate, horizon, seed,
                                  divergence_bound=bound)
        except DivergedTrajectoryError as exc:
            t_div, last, traj = exc.t, exc.state, exc.trajectory
            assert res.diverged_at[r] == t_div
            assert traj.t[-1] == t_div - 1
            # from the last finite state on, every row repeats it
            assert np.all(res.x[t_div - 1:, r] == last.x)
            assert np.all(res.s[t_div - 1:, r] == last.s)
            if last.y_prev is not None:
                assert np.array_equal(res.y[-1, r], last.y_prev)
        else:
            assert res.diverged_at[r] == -1
            last = traj.final
            assert np.array_equal(res.y[-1, r], last.y_prev)
        n = len(traj.t)
        assert np.array_equal(res.x[:n, r], traj.x)
        assert np.array_equal(res.s[:n, r], traj.s)
        assert np.array_equal(res.y[:n, r], traj.y)
        assert np.array_equal(res.x[-1, r], last.x)
        assert res.s[-1, r] == last.s


def test_kernel_calls_each_layer_through_core_once_per_step(monkeypatch):
    # the per-layer benchmark trace counts these calls by rebinding the
    # names in adaptix.core; a kernel that bound them once would read 0
    counts = {}

    def counting(name):
        original = getattr(core, name)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return original(*args, **kwargs)
        return wrapper

    for name in ("field_eval", "gamma_eval", "sigmoid_eval", "dot_rows"):
        monkeypatch.setattr(core, name, counting(name))
    problem = linear_problem(matrix=np.diag([1.0, 2.0]),
                             noise=gaussian_noise(np.eye(2)))
    init = InitialConditions(x0=np.array([1.0, 1.0]))
    horizon = 50
    rngs = [substream(0, TRAJECTORY_LANE, r) for r in range(3)]
    _simulate(problem, init, RECIPROCAL, KESTEN, horizon, rngs, [0, horizon])
    assert counts == {"field_eval": horizon, "gamma_eval": horizon,
                      "sigmoid_eval": horizon - 1,
                      "dot_rows": 2 * horizon - 1}


# ---------------------------------------------------------------------------
# comparator


def test_comparator_hand_values():
    # zero noise, alpha = 1, E0 = 2: z_1 = 1 - 1/2, z_2 = 0.5 - 0.5/4
    problem = linear_problem(matrix=1.0, dim=1, noise=ZERO_NOISE_1D)
    comparator = ComparatorConfig(alpha=np.array([[1.0]]), e0=2.0)
    res = _simulate(problem, InitialConditions(x0=np.array([1.0])),
                    RECIPROCAL, KESTEN, 2, [substream(0, TRAJECTORY_LANE, 0)],
                    [0, 1, 2], comparator=comparator)
    assert res.z[1, 0, 0] == 0.5
    assert res.z[2, 0, 0] == 0.375
