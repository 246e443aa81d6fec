"""Step semantics, the trajectory engine, its float lane, and the comparator."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptix import (DimensionMismatchError,
                     DivergedTrajectoryError, InitialConditions,
                     SigmoidSpec, StepSchedule, constant_gate,
                     constant_schedule, core, cubic_problem, field_eval,
                     gamma_eval, gaussian_noise, kesten_gate, linear_problem,
                     plakhov_almeida_gate, power_schedule, problems,
                     reciprocal_schedule, run_trajectory,
                     scaled_rademacher_noise, smooth_gate, tanh_problem,
                     uniform_ball_noise)
from adaptix.config import DEFAULT_DIVERGENCE_BOUND
from adaptix.core import (NOISE_CHUNK, ComparatorConfig, _lane_takes,
                          _simulate, _stride_ts)
from adaptix.rng import COMPARATOR_LANE, TRAJECTORY_LANE, substream

RECIPROCAL = reciprocal_schedule()
KESTEN = kesten_gate()

ZERO_NOISE_1D = gaussian_noise([[0.0]])


def zero_noise_run(matrix, x0, s0, s1, sigmoid, schedule=RECIPROCAL,
                   horizon=2):
    """A noiseless scalar run: step t measures y_t = matrix * x_{t-1}."""
    problem = linear_problem(matrix=matrix, dim=1, noise=ZERO_NOISE_1D)
    init = InitialConditions(x0=np.array([x0]), s0=s0, s1=s1)
    return run_trajectory(problem, init, schedule, sigmoid, horizon, seed=0)


# ---------------------------------------------------------------------------
# one step, by hand, on noiseless runs of one or two steps


def test_step_moves_against_measurement():
    # gamma(4) = 1/4 prices both steps; y_1 = 1 and y_2 = 0.75 are aligned
    traj = zero_noise_run(1.0, 1.0, 4.0, 4.0, KESTEN)
    assert traj.x[1, 0] == 0.75
    assert traj.y[1, 0] == 1.0
    assert traj.x[2, 0] == 0.75 - 0.25 * 0.75
    assert traj.t[2] == 2
    # consecutive measurements aligned: kesten adds nothing
    assert traj.s[2] == 4.0
    assert traj.y[2, 0] == 0.75


def test_step_counts_a_sign_flip():
    # gamma(s0) = 2 overshoots the root: y_1 = 1, y_2 = -1
    traj = zero_noise_run(1.0, 1.0, 0.5, 4.0, KESTEN,
                          schedule=reciprocal_schedule(0.5))
    assert traj.x[1, 0] == -1.0
    assert traj.x[2, 0] == -1.0 + 0.25
    assert traj.s[2] == 5.0


def test_step_left_convention_at_tie():
    # gamma(s0) = 1 lands on the root, so y_2 = 0 and the gate sees -0.0
    gate = plakhov_almeida_gate(-0.5, 1.0, at_zero="left")
    traj = zero_noise_run(1.0, 1.0, 1.0, 2.0, gate)
    assert traj.x[1, 0] == 0.0
    assert traj.y[2, 0] == 0.0
    assert traj.s[2] == 1.5            # (2 - 0.5)+ under the left convention


def test_step_counter_clamped_at_zero():
    gate = plakhov_almeida_gate(-0.5, 1.0)
    traj = zero_noise_run(1.0, 1.0, 4.0, 0.2, gate)
    assert traj.s[1] == 0.2
    # aligned measurements: (0.2 - 0.5)+ is +0.0
    assert traj.s[2].tobytes() == np.array(0.0).tobytes()


def test_first_step_consumes_staged_counter():
    traj = zero_noise_run(2.0, 1.0, 4.0, 7.0, KESTEN, horizon=1)
    assert list(traj.t) == [0, 1]
    assert traj.s[0] == 4.0
    assert traj.y[0, 0] == 0.0         # no measurement before the first step
    assert traj.x[1, 0] == 0.5         # priced at gamma(s0) = 1/4
    assert traj.y[1, 0] == 2.0
    assert traj.s[1] == 7.0            # staged value becomes the counter


def test_step_rejects_bad_measurements():
    problem = linear_problem(matrix=1.0, dim=2)
    with pytest.raises(DimensionMismatchError):
        field_eval(problem, (1.0,))
    with pytest.raises(DimensionMismatchError):
        field_eval(problem, np.array([1.0]))
    with pytest.raises(ValueError, match="counter values must be >= 0"):
        gamma_eval(RECIPROCAL, -1.0)
    # a measurement that overflows to inf never becomes a state: the run
    # stops at step 1 with the initial state as its last finite one
    with pytest.raises(DivergedTrajectoryError) as exc:
        zero_noise_run(10.0, 1e308, 2.0, 3.0, KESTEN,
                       schedule=constant_schedule(1.0))
    assert exc.value.t == 1
    last = exc.value.last
    assert list(last.t) == [0]
    assert last.x[0, 0] == 1e308
    assert last.y[0, 0] == 0.0         # no measurement yet
    assert last.s[0] == 2.0            # s0; s1 was never installed


def test_state_validation():
    with pytest.raises(ValueError, match="x0 must be finite"):
        InitialConditions(x0=np.array([1.0, np.inf]))
    with pytest.raises(ValueError, match="s0 must be finite and >= 0"):
        InitialConditions(x0=np.array([1.0]), s0=-1.0)
    with pytest.raises(ValueError, match="s1 must be finite and >= 0"):
        InitialConditions(x0=np.array([1.0]), s1=np.nan)


# ---------------------------------------------------------------------------
# whole trajectories


def test_deterministic_contraction():
    # zero noise, unit slope, constant step 1/2: x halves every step and the
    # measurements never change sign, so a kesten counter stays at s1
    problem = linear_problem(matrix=1.0, dim=1, noise=ZERO_NOISE_1D)
    init = InitialConditions(x0=np.array([1.0]), s0=1.0, s1=1.0)
    traj = run_trajectory(problem, init, constant_schedule(0.5), KESTEN,
                          horizon=10, seed=0)
    assert traj.x[-1, 0] == 0.5**10
    assert np.all(traj.s[1:] == 1.0)


def test_staged_counter_through_engine():
    problem = linear_problem(matrix=1.0, dim=1, noise=ZERO_NOISE_1D)
    init = InitialConditions(x0=np.array([1.0]), s0=4.0, s1=7.0)
    traj = run_trajectory(problem, init, RECIPROCAL, KESTEN, horizon=2, seed=0)
    assert traj.x[1, 0] == 0.75
    assert traj.s[1] == 7.0
    assert traj.x[2, 0] == 0.75 - (1.0 / 7.0) * 0.75
    assert traj.s[2] == 7.0


def test_record_stride_keeps_endpoints():
    problem = linear_problem(matrix=1.0, dim=1)
    init = InitialConditions(x0=np.array([1.0]))
    traj = run_trajectory(problem, init, RECIPROCAL, KESTEN, horizon=10,
                          seed=3, record_stride=3)
    assert list(traj.t) == [0, 3, 6, 9, 10]
    assert traj.x.shape == traj.y.shape == (5, 1) and traj.s.shape == (5,)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(horizon=st.integers(0, 2**20), stride=st.integers(1, 2**21))
def test_stride_times_meet_the_kernels_precondition(horizon, stride):
    # _simulate does not sort or range-check its record times
    ts = _stride_ts(horizon, stride)
    assert ts.dtype == np.int64
    assert ts[0] == 0 and ts[-1] == horizon
    assert (ts[1:] > ts[:-1]).all()


def test_negative_horizon_is_rejected_by_the_kernel():
    problem = linear_problem(matrix=1.0, dim=1)
    init = InitialConditions(x0=np.array([1.0]))
    with pytest.raises(ValueError, match="horizon must be >= 0"):
        run_trajectory(problem, init, RECIPROCAL, KESTEN, horizon=-1, seed=0)


def batch_row(problem, init, schedule, sigmoid, horizon, seed, record_ts,
              comparator=None, bound=DEFAULT_DIVERGENCE_BOUND):
    """Row 0 of a two-replicate batch whose generators are both the
    (seed, trajectory lane, 0) substream: the batch loop on the exact
    noise a one-replicate run draws."""
    rngs = [substream(seed, TRAJECTORY_LANE, 0) for _ in range(2)]
    res = _simulate(problem, init, schedule, sigmoid, horizon, rngs,
                    record_ts, comparator=comparator, divergence_bound=bound)
    assert res.diverged_at[0] == res.diverged_at[1]
    return res


def as_bytes(value):
    return np.asarray(value, dtype=np.float64).tobytes()


def assert_run_is_batch_row(problem, init, schedule, sigmoid, horizon,
                            seed, stride=1, bound=DEFAULT_DIVERGENCE_BOUND):
    """``run_trajectory`` gives row 0 of the batch bit for bit: every
    recorded x, s and y, the step of divergence and the frozen state,
    which is the final row of a run that did not diverge. Returns that
    step, or -1."""
    try:
        traj = run_trajectory(problem, init, schedule, sigmoid, horizon,
                              seed, record_stride=stride,
                              divergence_bound=bound)
        t_div, last = -1, traj
    except DivergedTrajectoryError as exc:
        traj, t_div, last = exc.trajectory, exc.t, exc.last
        assert list(last.t) == [t_div - 1]
    res = batch_row(problem, init, schedule, sigmoid, horizon, seed,
                    _stride_ts(horizon, stride), bound=bound)
    assert res.diverged_at[0] == t_div
    n = len(traj.t)
    assert traj.x.tobytes() == res.x[:n, 0].tobytes()
    assert traj.s.tobytes() == res.s[:n, 0].tobytes()
    assert traj.y.tobytes() == res.y[:n, 0].tobytes()
    # a frozen run's later rows all hold its last finite state
    assert last.x[-1].tobytes() == res.x[-1, 0].tobytes()
    assert last.s[-1].tobytes() == res.s[-1, 0].tobytes()
    assert last.y[-1].tobytes() == res.y[-1, 0].tobytes()
    return t_div


@pytest.mark.parametrize("noise_builder,horizon", [
    (lambda: gaussian_noise(np.eye(2)), 90),
    (lambda: gaussian_noise([[2.0, 0.5], [0.5, 1.0]]), 2500),
    (lambda: uniform_ball_noise(2, 1.5), 2500),
])
def test_engine_matches_stepwise_composition(noise_builder, horizon):
    # the float lane against the batch loop, over the whole recording
    noise = noise_builder()
    problem = linear_problem(matrix=np.array([[1.5, 0.2], [0.0, 2.0]]),
                             noise=noise)
    init = InitialConditions(x0=np.array([1.0, -1.0]), s0=2.0, s1=3.0)
    gate = plakhov_almeida_gate(-0.2, 1.0)
    assert _lane_takes(problem, RECIPROCAL, gate, 1, None)
    assert assert_run_is_batch_row(problem, init, RECIPROCAL, gate, horizon,
                                   17) == -1


# Every plan the lane takes: each noise kind, gate family, schedule family
# and at_zero convention, dims 1-7, s0 = 0 in every other plan, and a bound
# that freezes the run at step 1, the default, or one whose square is not a
# float (the guard then only checks finiteness). The bound, the record
# stride and the horizon past a noise block are drawn from different digits
# of the plan's index, so every stride meets every bound, and so does a
# horizon past the first block.
NOISE_KINDS = ("gaussian", "uniform_ball", "scaled_rademacher")
LANE_GATES = ("constant", "kesten", "plakhov_almeida")
LANE_SCHEDULES = ("reciprocal", "constant")
AT_ZERO = ("left", "right", "midpoint")
TINY_BOUND = 1e-3
BOUNDS = (TINY_BOUND, 1e12, 1e200)
LANE_PLANS = list(itertools.product(NOISE_KINDS, LANE_GATES, LANE_SCHEDULES,
                                    AT_ZERO))


def lane_plan(index, noise_kind, gate, schedule, at_zero):
    gen = np.random.default_rng(1000 + index)
    dim = 1 + index % 7
    if noise_kind == "gaussian":
        # every fifth a zero covariance: noiseless, exact zero measurements
        # at the root
        f = gen.normal(size=(dim, dim)) * (index % 5 != 0)
        noise = gaussian_noise(f @ f.T)
    elif noise_kind == "uniform_ball":
        noise = uniform_ball_noise(dim, gen.uniform(0.5, 2.0))
    else:
        noise = scaled_rademacher_noise(dim, gen.uniform(0.5, 2.0))
    # a zero field under rademacher noise at an even dim makes the gate
    # argument exactly 0 at many steps
    zero_field = noise_kind == "scaled_rademacher" and dim % 2 == 0
    # a steep field far out overflows the squared norm within a few steps
    far = index % 6 == 5 and not zero_field
    matrix = (np.zeros((dim, dim)) if zero_field else
              (gen.normal(size=(dim, dim)) + 1.5 * np.eye(dim))
              * (10.0 if far else 1.0))
    root = gen.normal(size=dim)
    problem = linear_problem(matrix=matrix, root=root, noise=noise)
    x0 = root + gen.normal(size=dim) * (1e150 if far else 1.0)
    if index % 5 == 0 and not far:
        x0 = root
    init = InitialConditions(x0=x0, s0=0.0 if index % 2 else 1.5,
                             s1=gen.uniform(0.0, 3.0))
    schedule = (StepSchedule(schedule, s_floor=gen.uniform(0.5, 3.0))
                if schedule == "reciprocal" else
                StepSchedule(schedule, gamma0=gen.uniform(0.05, 1.0)))
    u_plus = gen.uniform(0.5, 2.0)
    u_minus = {"constant": u_plus, "kesten": 0.0,
               "plakhov_almeida": -gen.uniform(0.1, 1.0)}[gate]
    sigmoid = SigmoidSpec(gate, u_minus=u_minus, u_plus=u_plus,
                          at_zero=at_zero)
    # one plan in four crosses a noise block boundary
    horizon = NOISE_CHUNK + 7 if index % 4 == 0 else int(gen.integers(2, 300))
    return problem, init, schedule, sigmoid, horizon, far


def sweep_bound(index):
    return BOUNDS[index % 3]


def sweep_stride(index):
    return 1 + index // 3 % 3


@pytest.mark.parametrize("index", range(len(LANE_PLANS)),
                         ids=["-".join(p) for p in LANE_PLANS])
def test_lane_matches_the_batch_row_bit_for_bit(index):
    problem, init, schedule, sigmoid, horizon, _ = lane_plan(
        index, *LANE_PLANS[index])
    assert _lane_takes(problem, schedule, sigmoid, 1, None)
    bound = sweep_bound(index)
    t_div = assert_run_is_batch_row(problem, init, schedule, sigmoid,
                                    horizon, seed=index,
                                    stride=sweep_stride(index), bound=bound)
    if bound == TINY_BOUND:
        assert t_div == 1


def test_the_sweep_records_past_step_1_and_the_first_block_at_stride_1():
    # every stride meets every bound, at a horizon within one noise block
    # and at one past it
    plans = [(index, *lane_plan(index, *plan)[:5])
             for index, plan in enumerate(LANE_PLANS)]
    assert {(sweep_stride(index), sweep_bound(index), horizon > NOISE_CHUNK)
            for index, *_, horizon in plans} == set(
        itertools.product((1, 2, 3), BOUNDS, (False, True)))
    # and stride-1 plans record every step up to the second block
    rows = []
    for index, *args in plans:
        if sweep_stride(index) == 1 and sweep_bound(index) != TINY_BOUND:
            try:
                traj = run_trajectory(*args, seed=index,
                                      divergence_bound=sweep_bound(index))
            except DivergedTrajectoryError as exc:
                traj = exc.trajectory
            rows.append(len(traj.t))
    assert max(rows) > NOISE_CHUNK + 1


def test_the_sweep_overflows_the_squared_norm_mid_run():
    # the plans started far out (all with the 1e200 bound) cross the
    # largest float a few steps in, where the guard checks only finiteness
    steps = []
    for index, plan in enumerate(LANE_PLANS):
        *args, far = lane_plan(index, *plan)
        if far:
            steps.append(assert_run_is_batch_row(*args, seed=index,
                                                 stride=sweep_stride(index),
                                                 bound=1e200))
    assert len(steps) == 8
    assert sum(1 < t <= 5 for t in steps) >= 6


# One plan in five over three noise blocks, at strides 1 and 7: the lane
# stores its records at the end of each block.
LONG_PLANS = range(1, len(LANE_PLANS), 5)


@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize("index", LONG_PLANS,
                         ids=["-".join(LANE_PLANS[i]) for i in LONG_PLANS])
def test_lane_records_over_three_blocks_are_the_batch_rows(index, stride):
    problem, init, schedule, sigmoid, _, _ = lane_plan(index,
                                                       *LANE_PLANS[index])
    assert_run_is_batch_row(problem, init, schedule, sigmoid,
                            3 * NOISE_CHUNK + 5, seed=index, stride=stride)


def growing_plan():
    """A dim-2 lane plan whose iterate norm grows about 1% a step: the
    constant step 2.01 on the identity field maps x to about -1.01 x."""
    problem = linear_problem(matrix=np.eye(2),
                             noise=gaussian_noise(1e-4 * np.eye(2)))
    init = InitialConditions(x0=np.array([1.0, -1.0]))
    return problem, init, constant_schedule(2.01), KESTEN


@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize("t_div", [-1, 2 * NOISE_CHUNK + 1, 2051, 2800, 2801,
                                   2803, 3 * NOISE_CHUNK])
def test_lane_divergence_in_the_third_block_is_the_batch_row(t_div, stride):
    # the third noise block holds steps 2049 to 3072. At stride 7, 2051 and
    # 2800 are record marks, 2801 follows one, and 2049, 2803 and 3072 are
    # off the marks; at stride 1 every step is one. A bound between the
    # norms of steps t_div - 1 and t_div freezes the run at t_div.
    problem, init, schedule, sigmoid = growing_plan()
    horizon = 3 * NOISE_CHUNK + 100
    bound = 1e200
    if t_div > 0:
        free = run_trajectory(problem, init, schedule, sigmoid, horizon,
                              seed=3, divergence_bound=bound)
        norms = np.linalg.norm(free.x, axis=1)
        bound = float(np.sqrt(norms[t_div - 1] * norms[t_div]))
        assert norms[:t_div].max() < bound < norms[t_div]
    assert assert_run_is_batch_row(problem, init, schedule, sigmoid, horizon,
                                   seed=3, stride=stride,
                                   bound=bound) == t_div


def test_the_lane_holds_at_most_one_block_of_records(monkeypatch):
    # a stride-1 run over 32 noise blocks: beyond the record arrays,
    # allocated before it starts, the lane holds at most one block of
    # records and of noise as Python objects, under 2 KiB a step of the
    # block (about 0.6 KiB measured). Tracing makes a lane step about 15
    # times slower, so the run is no longer.
    lane = core._lane
    peaks = []

    def traced_lane(*args):
        tracemalloc.start()
        try:
            return lane(*args)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(core, "_lane", traced_lane)
    horizon = 32 * NOISE_CHUNK
    problem = linear_problem(matrix=np.diag([1.5, 3.0]))
    traj = run_trajectory(problem, InitialConditions(x0=np.ones(2)),
                          RECIPROCAL, KESTEN, horizon, seed=1)
    assert len(traj.t) == horizon + 1
    assert len(peaks) == 1 and peaks[0] < NOISE_CHUNK * 2**11


def test_lane_keeps_a_negative_zero_counter_off_the_record():
    # aligned noiseless measurements: s1 = -0.0 plus the gate's -0.0 is
    # -0.0, which np.maximum turns into +0.0 in the batch loop
    problem = linear_problem(matrix=1.0, dim=1, noise=ZERO_NOISE_1D)
    init = InitialConditions(x0=np.array([1.0]), s0=1.0, s1=-0.0)
    gate = SigmoidSpec("kesten", u_minus=-0.0, u_plus=1.0)
    schedule = constant_schedule(0.1)
    assert_run_is_batch_row(problem, init, schedule, gate, 5, seed=4)
    traj = run_trajectory(problem, init, schedule, gate, 5, seed=4)
    assert as_bytes(traj.s[1:]) == as_bytes([-0.0, 0.0, 0.0, 0.0, 0.0])


INELIGIBLE = {
    "tanh": (tanh_problem(matrix=np.diag([1.0, 2.0])), RECIPROCAL, KESTEN),
    "cubic1d": (cubic_problem(), RECIPROCAL, KESTEN),
    "power": (linear_problem(matrix=1.0, dim=2), power_schedule(1.0, 0.7),
              KESTEN),
    "smooth": (linear_problem(matrix=1.0, dim=2), RECIPROCAL,
               smooth_gate(-0.5, 1.0, beta=2.0)),
    "dim8": (linear_problem(matrix=1.0, dim=8), RECIPROCAL, KESTEN),
}


@pytest.mark.parametrize("name", sorted(INELIGIBLE))
def test_plans_the_lane_leaves_run_the_batch_loop(name):
    problem, schedule, sigmoid = INELIGIBLE[name]
    assert not _lane_takes(problem, schedule, sigmoid, 1, None)
    init = InitialConditions(x0=problem.root + 1.0)
    assert_run_is_batch_row(problem, init, schedule, sigmoid, 300, seed=2)


def test_a_comparator_runs_the_batch_loop():
    problem = linear_problem(matrix=np.diag([1.0, 2.0]))
    comparator = ComparatorConfig(alpha=np.diag([1.0, 2.0]), e0=0.5)
    assert _lane_takes(problem, RECIPROCAL, KESTEN, 1, None)
    assert not _lane_takes(problem, RECIPROCAL, KESTEN, 1, comparator)
    init = InitialConditions(x0=np.array([1.0, -1.0]))
    ts = range(0, 301, 7)
    one = _simulate(problem, init, RECIPROCAL, KESTEN, 300,
                    [substream(6, TRAJECTORY_LANE, 0)], ts,
                    comparator=comparator)
    two = batch_row(problem, init, RECIPROCAL, KESTEN, 300, 6, ts,
                    comparator=comparator)
    for name in ("x", "s", "y", "z"):
        assert getattr(one, name)[:, 0].tobytes() == \
            getattr(two, name)[:, 0].tobytes()
    assert one.diverged_at[0] == two.diverged_at[0] == -1


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
    assert list(err.last.t) == [12]
    assert err.last.x[0, 0] == (-3.0)**12
    assert err.last.y[0, 0] == 2.0 * (-3.0)**11
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
    assert res.x.shape == (3, 2, 1)


@pytest.mark.parametrize("n_rep", [1, 2])
def test_record_times_cost_a_few_int64_arrays(n_rep):
    # a million record times and a freeze at step 1: beyond the records,
    # the times may take three int64 arrays' worth (the stride grid, made
    # by appending to an arange, and the kernel's copy), not a Python int
    # each
    horizon = 10**6
    problem = linear_problem(matrix=np.diag([1.5, 3.0]))
    init = InitialConditions(x0=np.ones(2))
    rngs = [substream(1, TRAJECTORY_LANE, r) for r in range(n_rep)]
    tracemalloc.start()
    try:
        res = _simulate(problem, init, RECIPROCAL, KESTEN, horizon, rngs,
                        _stride_ts(horizon, 1), divergence_bound=1.2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert list(res.diverged_at) == [1] * n_rep
    records = sum(a.nbytes for a in (res.x, res.s, res.y))
    assert records == (horizon + 1) * n_rep * 5 * 8
    assert peak < records + 3 * 8 * (horizon + 1)


def test_kernel_holds_one_noise_block_per_stream():
    # three refills and a short last chunk, with independent comparator
    # streams: each stream's buffer is refilled in place, so no chunk
    # boundary holds the old block beside the new one
    n_rep, dim, horizon = 256, 2, 3 * NOISE_CHUNK + 5
    problem = linear_problem(matrix=np.diag([1.5, 3.0]),
                             noise=gaussian_noise(np.eye(dim)))
    init = InitialConditions(x0=np.array([1.0, 1.0]))
    rngs = [substream(2, TRAJECTORY_LANE, r) for r in range(n_rep)]
    comparator = ComparatorConfig(
        alpha=problem.jacobian_at_root, e0=0.5,
        rngs=[substream(2, COMPARATOR_LANE, r) for r in range(n_rep)])
    tracemalloc.start()
    try:
        res = _simulate(problem, init, RECIPROCAL, KESTEN, horizon, rngs,
                        [0, horizon], comparator=comparator)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block = n_rep * NOISE_CHUNK * dim * 8
    records = sum(a.nbytes for a in (res.x, res.s, res.y, res.z))
    assert peak < 1.25 * 2 * block + records
    assert np.all(res.diverged_at == -1)


def per_replicate_store(noise, rngs, block, tile):
    """The kernel's noise store before replicate tiles: each stream's
    chunk goes straight into its strided column of ``block``."""
    for r, rng in enumerate(rngs):
        block[:, :, r] = noise.sample_block(rng, block.shape[0])
    return block.transpose(0, 2, 1)


@pytest.mark.parametrize("independent", [False, True])
def test_replicate_tiles_give_the_per_replicate_store(monkeypatch,
                                                      independent):
    # one replicate, both sides of a full tile and a short last tile, over
    # a full chunk and a short one, with shared and own comparator noise
    dim, horizon = 2, NOISE_CHUNK + 7
    tile = core._NOISE_TILE_BYTES // (8 * dim * NOISE_CHUNK)
    assert tile > 2
    problem = linear_problem(matrix=np.array([[1.5, 0.2], [0.0, 3.0]]),
                             noise=gaussian_noise([[1.0, 0.3], [0.3, 0.5]]))
    init = InitialConditions(x0=np.array([1.0, -1.0]))

    def run(n_rep):
        rngs = [substream(4, TRAJECTORY_LANE, r) for r in range(n_rep)]
        comp_rngs = None
        if independent:
            comp_rngs = [substream(4, COMPARATOR_LANE, r)
                         for r in range(n_rep)]
        comparator = ComparatorConfig(alpha=problem.jacobian_at_root,
                                      e0=0.5, rngs=comp_rngs)
        res = _simulate(problem, init, RECIPROCAL, KESTEN, horizon, rngs,
                        range(horizon + 1), comparator=comparator)
        return [a.tobytes() for a in (res.x, res.s, res.y, res.z,
                                      res.diverged_at)]

    for n_rep in (1, tile - 1, tile, tile + 1, 2 * tile + 3):
        tiled = run(n_rep)
        with monkeypatch.context() as patch:
            patch.setattr(core, "_noise_blocks", per_replicate_store)
            assert run(n_rep) == tiled, n_rep


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
            t_div, last, traj = exc.t, exc.last, exc.trajectory
            assert res.diverged_at[r] == t_div
            assert traj.t[-1] == last.t[0] == t_div - 1
            # from the last finite state on, every row repeats it
            assert np.all(res.x[t_div - 1:, r] == last.x)
            assert np.all(res.s[t_div - 1:, r] == last.s)
            assert np.all(res.y[t_div - 1:, r] == last.y)
        else:
            assert res.diverged_at[r] == -1
            last = traj
        n = len(traj.t)
        assert np.array_equal(res.x[:n, r], traj.x)
        assert np.array_equal(res.s[:n, r], traj.s)
        assert np.array_equal(res.y[:n, r], traj.y)
        assert np.array_equal(res.x[-1, r], last.x[-1])
        assert res.s[-1, r] == last.s[-1]
        assert np.array_equal(res.y[-1, r], last.y[-1])


@pytest.mark.parametrize("n_rep", [1, 3])
def test_kernel_calls_each_layer_through_core_once_per_step(monkeypatch,
                                                            n_rep):
    # the per-layer benchmark trace counts these calls by rebinding the
    # names in adaptix.core (and apply_rows in adaptix.problems); a kernel,
    # or the one-replicate lane, that bound them once would read 0
    counts = {}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    problem = linear_problem(matrix=np.diag([1.0, 2.0]),
                             noise=gaussian_noise(np.eye(2)))
    for name in ("field_eval", "gamma_eval", "sigmoid_eval", "dot_rows"):
        counting(core, name)
    counting(problems, "apply_rows")
    init = InitialConditions(x0=np.array([1.0, 1.0]))
    horizon = 50
    assert _lane_takes(problem, RECIPROCAL, KESTEN, n_rep, None) == \
        (n_rep == 1)
    rngs = [substream(0, TRAJECTORY_LANE, r) for r in range(n_rep)]
    _simulate(problem, init, RECIPROCAL, KESTEN, horizon, rngs, [0, horizon])
    assert counts == {"field_eval": horizon, "apply_rows": horizon,
                      "gamma_eval": horizon, "sigmoid_eval": horizon - 1,
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
