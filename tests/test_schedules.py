"""Step-size schedules, gate functions, and the drift constant E0."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from adaptix import (ConfigError, SigmoidSpec, constant_gate,
                     constant_schedule, e0_exact, e0_monte_carlo, gamma_eval,
                     gaussian_noise, kesten_gate, plakhov_almeida_gate,
                     power_schedule, reciprocal_schedule,
                     scaled_rademacher_noise, sigmoid_eval, smooth_gate,
                     uniform_ball_noise, validate_schedule)
from adaptix._rowops import dot_rows
from adaptix.report import FAIL, NOT_CHECKED, PASS
from adaptix.rng import as_generator


def verdicts(report, *check_ids):
    return tuple(report.verdict(cid) for cid in check_ids)


# ---------------------------------------------------------------------------
# gamma


def test_reciprocal_values():
    sched = reciprocal_schedule()
    assert gamma_eval(sched, 4.0) == 0.25
    assert gamma_eval(sched, 0.0) == 1.0      # floored at s_floor = 1
    assert gamma_eval(sched, 0.5) == 1.0
    assert gamma_eval(sched, 10.0) == 0.1


def test_reciprocal_custom_floor():
    sched = reciprocal_schedule(s_floor=4.0)
    assert gamma_eval(sched, 0.0) == 0.25
    assert gamma_eval(sched, 8.0) == 0.125


def test_power_values():
    sched = power_schedule(gamma0=1.0, p=0.75)
    assert gamma_eval(sched, 15.0) == pytest.approx(0.125, abs=1e-15)
    assert gamma_eval(sched, 0.0) == 1.0


def test_constant_values():
    sched = constant_schedule(0.3)
    assert gamma_eval(sched, 0.0) == 0.3
    assert gamma_eval(sched, 1e9) == 0.3


def test_gamma_vectorized():
    sched = reciprocal_schedule()
    out = gamma_eval(sched, np.array([0.0, 2.0, 4.0]))
    assert out.shape == (3,)
    assert np.allclose(out, [1.0, 0.5, 0.25])


def test_gamma_rejects_negative_counter():
    with pytest.raises(ValueError):
        gamma_eval(reciprocal_schedule(), -0.5)
    with pytest.raises(ValueError):
        gamma_eval(reciprocal_schedule(), np.array([1.0, -0.5]))


def formula_gamma_eval(schedule, s):
    """The array form written out: the check it raises on and the values
    it gives."""
    arr = np.asarray(s, dtype=np.float64)
    if (arr < 0).any():
        raise ValueError("counter values must be >= 0")
    if schedule.family == "reciprocal":
        return 1.0 / np.maximum(arr, schedule.s_floor)
    if schedule.family == "power":
        return schedule.gamma0 / np.power(1.0 + arr, schedule.p)
    return np.full_like(arr, schedule.gamma0)


def test_gamma_array_raises_on_a_negative_beside_nan_only():
    sched = reciprocal_schedule(2.0)
    with pytest.raises(ValueError):
        gamma_eval(sched, np.array([np.nan, 3.0, -1e-300]))
    counters = np.array([np.nan, -0.0, 0.0, 1.0, 2.5, np.inf])
    got = gamma_eval(sched, counters)
    assert got.tobytes() == (1.0 / np.maximum(counters, 2.0)).tobytes()
    assert gamma_eval(sched, np.array([])).shape == (0,)


SCHEDULES = [reciprocal_schedule(), reciprocal_schedule(2.5),
             constant_schedule(0.3), power_schedule(0.7, 0.6)]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(schedule=st.sampled_from(SCHEDULES),
       counters=hnp.arrays(np.float64, hnp.array_shapes(min_dims=0,
                                                        max_dims=2,
                                                        min_side=0)))
def test_gamma_array_gives_the_formula_value_or_its_error(schedule,
                                                          counters):
    # any float64 counters: NaN, signed zeros, infinities and negatives
    with np.errstate(all="ignore"):
        try:
            want = formula_gamma_eval(schedule, counters)
        except ValueError:
            with pytest.raises(ValueError):
                gamma_eval(schedule, counters)
            return
        got = gamma_eval(schedule, counters)
    if counters.ndim == 0:
        assert type(got) is float
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


COUNTERS = [0.0, -0.0, 1e-300, 0.3, 1.0, 2.0, 2.5, 7.0, 1e300, np.inf, np.nan]
ARGUMENTS = [-np.inf, -1e300, -1.0, -5e-324, -0.0, 0.0, 5e-324, 1.0, 1e300,
             np.inf, np.nan]


def float_bits(value):
    return np.array(value, dtype=np.float64).tobytes()


@pytest.mark.parametrize("schedule", [reciprocal_schedule(),
                                      reciprocal_schedule(2.5),
                                      constant_schedule(0.3),
                                      power_schedule(0.7, 0.6)],
                         ids=["reciprocal", "reciprocal-2.5", "constant",
                              "power"])
def test_gamma_on_a_float_is_the_array_form(schedule):
    # the one-replicate lane evaluates counters as Python floats; COUNTERS
    # hold NaN, +inf, each reciprocal floor (1.0 and 2.5) and counters below
    for s in COUNTERS:
        got = gamma_eval(schedule, s)
        assert type(got) is float
        assert float_bits(got) == float_bits(gamma_eval(schedule,
                                                        np.array([s]))[0])


@pytest.mark.parametrize("gate", [
    constant_gate(0.7), kesten_gate(2.0),
    plakhov_almeida_gate(-0.5, 1.0, "left"),
    plakhov_almeida_gate(-0.5, 1.0, "midpoint"),
    plakhov_almeida_gate(-0.5, 1.0, "right"), smooth_gate(-0.5, 1.0, 2.0),
    # levels given as ints are held as floats
    SigmoidSpec("plakhov_almeida", u_minus=-1, u_plus=2, at_zero="left"),
    SigmoidSpec("plakhov_almeida", u_minus=-1, u_plus=2,
                at_zero="midpoint")],
    ids=["constant", "kesten", "pa-left", "pa-midpoint", "pa-right", "smooth",
         "int-left", "int-midpoint"])
def test_gate_on_a_float_is_the_array_form(gate):
    for v in ARGUMENTS:
        got = sigmoid_eval(gate, v)
        assert type(got) is float
        want = sigmoid_eval(gate, np.array([v]))
        assert want.dtype == np.float64
        assert float_bits(got) == float_bits(want[0])


@pytest.mark.parametrize("at_zero", ["left", "right", "midpoint"])
@pytest.mark.parametrize("c", [0.7, 1e308])
def test_constant_gate_is_c_at_every_argument(c, at_zero):
    # u_minus = u_plus = u(0) = c, so every comparison, NaN's included,
    # lands on c; 1e308 is above max/2, where a midpoint (c + c)/2 overflows
    gate = SigmoidSpec(family="constant", u_minus=c, u_plus=c,
                       at_zero=at_zero)
    assert [sigmoid_eval(gate, v) for v in ARGUMENTS] == [c] * len(ARGUMENTS)
    assert sigmoid_eval(gate, np.array(ARGUMENTS)).tolist() == \
        [c] * len(ARGUMENTS)


def nested_step_gate(gate, v):
    return np.where(v < 0, gate.u_minus,
                    np.where(v > 0, gate.u_plus, gate.u_at_zero))


@pytest.mark.parametrize("gate", [
    constant_gate(0.7), kesten_gate(2.0),
    SigmoidSpec(family="kesten", u_minus=-0.0, u_plus=2.0, at_zero="left"),
    plakhov_almeida_gate(-0.5, 1.0, "left"),
    plakhov_almeida_gate(-0.5, 1.0, "midpoint"),
    plakhov_almeida_gate(-0.5, 1.0, "right")],
    ids=["constant", "kesten", "kesten-minus-zero-left", "pa-left",
         "pa-midpoint", "pa-right"])
def test_step_gate_array_form_is_the_nested_comparison(gate):
    # -0.0 as a kesten left level is u(0): its sign bit must come out too
    v = np.array(ARGUMENTS)
    got = sigmoid_eval(gate, v)
    assert got.tobytes() == nested_step_gate(gate, v).tobytes()
    for x in v:
        got = sigmoid_eval(gate, np.array(x))
        assert type(got) is float
        assert float_bits(got) == nested_step_gate(gate, x).tobytes()
    empty = np.array([])
    got = sigmoid_eval(gate, empty)
    want = nested_step_gate(gate, empty)
    assert (got.shape, got.dtype) == (want.shape, want.dtype) == \
        ((0,), np.float64)


def test_schedule_parameter_validation():
    with pytest.raises(ConfigError):
        reciprocal_schedule(s_floor=0.0)
    with pytest.raises(ConfigError):
        power_schedule(gamma0=-1.0, p=1.0)
    with pytest.raises(ConfigError):
        power_schedule(gamma0=1.0, p=0.0)
    with pytest.raises(ConfigError):
        constant_schedule(0.0)
    # NaN too: a NaN floor would give the float form s where np.maximum
    # gives NaN
    for schedule in (reciprocal_schedule, constant_schedule,
                     lambda p: power_schedule(1.0, p)):
        with pytest.raises(ConfigError, match="got nan"):
            schedule(np.nan)


# ---------------------------------------------------------------------------
# step-size conditions (B2.1 positivity, B2.2 divergent sum, B2.3 square
# summability along s ~ t growth)


def test_reciprocal_satisfies_all_conditions():
    report = validate_schedule(reciprocal_schedule())
    assert verdicts(report, "B2.1", "B2.2", "B2.3") == (PASS, PASS, PASS)


@pytest.mark.parametrize("p,b22,b23", [
    (1.0, PASS, PASS),
    (0.75, PASS, PASS),
    (0.5, PASS, FAIL),    # sum of squares diverges at the boundary
    (0.4, PASS, FAIL),
    (1.5, FAIL, PASS),    # steps vanish too quickly to keep moving
])
def test_power_condition_table(p, b22, b23):
    report = validate_schedule(power_schedule(gamma0=1.0, p=p))
    assert report.verdict("B2.1") == PASS
    assert report.verdict("B2.2") == b22
    assert report.verdict("B2.3") == b23


def test_constant_schedule_fails_square_summability():
    report = validate_schedule(constant_schedule(0.5))
    assert report.verdict("B2.1") == PASS
    assert report.verdict("B2.2") == PASS
    assert report.verdict("B2.3") == FAIL
    assert not report.all_pass


# ---------------------------------------------------------------------------
# gates


def test_gate_step_families():
    kesten = kesten_gate(u_plus=2.0)
    assert sigmoid_eval(kesten, -1.0) == 0.0
    assert sigmoid_eval(kesten, 3.0) == 2.0
    assert sigmoid_eval(kesten, 0.0) == 2.0   # right convention by default

    pa = plakhov_almeida_gate(-0.5, 1.0)
    assert sigmoid_eval(pa, -2.0) == -0.5
    assert sigmoid_eval(pa, 0.5) == 1.0


def test_gate_at_zero_conventions():
    left = plakhov_almeida_gate(-0.5, 1.0, at_zero="left")
    mid = plakhov_almeida_gate(-0.5, 1.0, at_zero="midpoint")
    right = plakhov_almeida_gate(-0.5, 1.0, at_zero="right")
    assert sigmoid_eval(left, 0.0) == -0.5
    assert sigmoid_eval(mid, 0.0) == 0.25
    assert sigmoid_eval(right, 0.0) == 1.0
    assert left.u_at_zero == -0.5
    assert right.u_at_zero == 1.0


def test_smooth_gate_values():
    gate = smooth_gate(-0.5, 1.0, beta=0.1)
    # logistic interpolation: halfway between the limits at 0
    assert sigmoid_eval(gate, 0.0) == pytest.approx(0.25, abs=1e-15)
    assert sigmoid_eval(gate, 1e4) == pytest.approx(1.0, abs=1e-12)
    assert sigmoid_eval(gate, -1e4) == pytest.approx(-0.5, abs=1e-12)
    assert gate.u_at_zero == pytest.approx(0.25)


def test_an_overflowing_power_is_a_zero_step():
    # (1 + 1e9)^150 overflows to inf, and gamma0 / inf = 0 is its limit
    sched = power_schedule(gamma0=1.0, p=150.0)
    assert gamma_eval(sched, np.array([0.0, 1e9])).tolist() == [1.0, 0.0]
    assert gamma_eval(sched, 1e9) == 0.0


def test_a_tiny_beta_smooth_gate_is_its_step_limits():
    # v / 1e-310 overflows to +-inf, where expit is exactly 1 or 0
    gate = smooth_gate(-0.5, 1.0, beta=1e-310)
    assert sigmoid_eval(gate, np.array([-1.0, 1.0])).tolist() == [-0.5, 1.0]
    assert sigmoid_eval(gate, 1.0) == 1.0


def test_gate_is_monotone_and_bounded():
    grid = np.linspace(-50.0, 50.0, 1001)
    for gate in (kesten_gate(), plakhov_almeida_gate(-0.3, 0.8),
                 smooth_gate(-0.3, 0.8, beta=2.0), constant_gate(0.7)):
        vals = sigmoid_eval(gate, grid)
        assert np.all(np.diff(vals) >= 0.0)
        assert np.all(vals >= gate.u_minus - 1e-12)
        assert np.all(vals <= gate.u_plus + 1e-12)


def test_gate_parameter_validation():
    with pytest.raises(ConfigError) as exc:
        kesten_gate(u_plus=-0.1)
    assert exc.value.assumption == "B4.1"
    assert "B4.1" in str(exc.value)
    with pytest.raises(ConfigError):
        plakhov_almeida_gate(0.0, 1.0)   # needs a strictly negative branch
    with pytest.raises(ConfigError):
        plakhov_almeida_gate(1.0, 0.5)   # u_minus above u_plus
    with pytest.raises(ConfigError):
        smooth_gate(-0.5, 1.0, beta=0.0)
    with pytest.raises(ConfigError):
        constant_gate(0.0)
    # every comparison with NaN is False, so each check is written to fail
    # on a NaN level or beta
    for family, u_minus, u_plus, beta, message in [
            ("kesten", 0.0, np.nan, None, "u_plus must be > 0, got nan"),
            ("plakhov_almeida", -0.5, np.nan, None,
             "u_plus must be > 0, got nan"),
            ("smooth", np.nan, 1.0, 2.0,
             "u_minus=nan must not exceed u_plus=1.0"),
            ("smooth", -0.5, np.nan, 2.0, "u_plus must be > 0, got nan"),
            ("smooth", -0.5, 1.0, np.nan,
             "smooth gate needs beta > 0, got nan")]:
        with pytest.raises(ConfigError, match=message) as exc:
            SigmoidSpec(family, u_minus=u_minus, u_plus=u_plus, beta=beta)
        assert exc.value.assumption == "B4.1"


# ---------------------------------------------------------------------------
# E0 = E[u(-<xi_1, xi_2>)]


def test_e0_constant_gate_is_exact():
    est = e0_exact(constant_gate(0.7), gaussian_noise(np.eye(3)))
    assert est.value == 0.7
    assert est.stderr == 0.0
    assert est.method == "exact"


def test_e0_kesten_gaussian():
    # sign-symmetric continuous noise: the positive branch fires half the time
    est = e0_exact(kesten_gate(u_plus=1.0), gaussian_noise(np.eye(2)))
    assert est.value == 0.5
    est = e0_exact(kesten_gate(u_plus=3.0), gaussian_noise([[2.0]]))
    assert est.value == 1.5


def test_e0_kesten_uniform_ball():
    est = e0_exact(kesten_gate(), uniform_ball_noise(3, radius=2.0))
    assert est.value == 0.5


def test_e0_no_closed_form_cases():
    assert e0_exact(kesten_gate(), scaled_rademacher_noise(2, 1.0)) is None
    assert e0_exact(plakhov_almeida_gate(-0.5, 1.0),
                    gaussian_noise(np.eye(2))) is None
    assert e0_exact(smooth_gate(-0.5, 1.0, 2.0),
                    gaussian_noise(np.eye(2))) is None


def sign_symmetric_midpoint(gate):
    # Independent oracle: for noise with -xi distributed like xi, the inner
    # product v = -<xi_1, xi_2> satisfies v ~ -v, so E[u(v)] equals the
    # symmetrised value E[(u(v) + u(-v))/2].  For a step gate on continuous
    # noise that is (u_minus + u_plus)/2; the logistic gate symmetrises to
    # the same midpoint because expit(b) + expit(-b) = 1.
    return 0.5 * (gate.u_minus + gate.u_plus)


def test_e0_monte_carlo_matches_midpoint_oracle():
    noise = gaussian_noise(np.eye(2))
    for gate in (plakhov_almeida_gate(-0.5, 1.0),
                 smooth_gate(-0.5, 1.0, beta=0.7)):
        est = e0_monte_carlo(gate, noise, n_samples=200_000, seed=31)
        expected = sign_symmetric_midpoint(gate)
        assert abs(est.value - expected) <= 4.0 * est.stderr
        assert est.method == "monte_carlo"
        assert est.n_samples == 200_000


def test_e0_monte_carlo_matches_exact_for_kesten():
    est = e0_monte_carlo(kesten_gate(), gaussian_noise(np.eye(2)),
                         n_samples=200_000, seed=7)
    assert abs(est.value - 0.5) <= 4.0 * est.stderr


def test_e0_monte_carlo_deterministic():
    gate = plakhov_almeida_gate(-0.5, 1.0)
    noise = uniform_ball_noise(2, 1.0)
    a = e0_monte_carlo(gate, noise, n_samples=50_000, seed=5)
    b = e0_monte_carlo(gate, noise, n_samples=50_000, seed=5)
    assert a.value == b.value
    assert a.stderr == b.stderr


def test_e0_monte_carlo_constant_integrand_is_exact():
    est = e0_monte_carlo(constant_gate(0.7), gaussian_noise(np.eye(2)),
                         n_samples=10_000, seed=0)
    assert est.value == 0.7
    assert est.stderr == 0.0
    with pytest.raises(ValueError):
        e0_monte_carlo(constant_gate(0.7), gaussian_noise(np.eye(2)),
                       n_samples=1)


def test_e0_monte_carlo_error_scaling():
    gate = kesten_gate()
    noise = gaussian_noise(np.eye(2))
    small = e0_monte_carlo(gate, noise, n_samples=100_000, seed=3)
    double = e0_monte_carlo(gate, noise, n_samples=200_000, seed=3)
    assert small.stderr / double.stderr == pytest.approx(np.sqrt(2), rel=0.05)
    other = e0_monte_carlo(gate, noise, n_samples=100_000, seed=99)
    assert abs(small.value - other.value) <= 4.0 * small.stderr


def whole_block_e0(sigmoid, noise, n_samples, seed):
    """(value, stderr) as the Monte Carlo first computed them: two fresh
    blocks of up to 100 000 pairs, and the gate over each whole block."""
    rng = as_generator(seed)
    total = total_sq = 0.0
    done = 0
    while done < n_samples:
        count = min(100_000, n_samples - done)
        xi1 = noise.sample_block(rng, count)
        xi2 = noise.sample_block(rng, count)
        vals = sigmoid_eval(sigmoid, -dot_rows(xi1, xi2))
        total += float(np.sum(vals))
        total_sq += float(np.sum(vals * vals))
        done += count
    value = total / n_samples
    var = max(total_sq - n_samples * value * value, 0.0) / (n_samples - 1)
    return value, math.sqrt(var / n_samples)


@pytest.mark.parametrize("noise", [
    gaussian_noise([[1.0, 0.3, 0.0], [0.3, 0.8, 0.1], [0.0, 0.1, 0.5]]),
    uniform_ball_noise(4, 2.0), scaled_rademacher_noise(3, 0.5)],
    ids=lambda noise: noise.kind)
@pytest.mark.parametrize("gate", [
    kesten_gate(), plakhov_almeida_gate(-0.25, 1.0),
    smooth_gate(-0.5, 1.0, beta=0.7)], ids=lambda gate: gate.family)
def test_e0_monte_carlo_is_the_whole_block_formula(gate, noise):
    # two full blocks and a short one that ends inside a row chunk
    n = 250_001
    est = e0_monte_carlo(gate, noise, n_samples=n, seed=17)
    assert (est.value, est.stderr) == whole_block_e0(gate, noise, n, 17)
    assert est.n_samples == n


def test_e0_monte_carlo_memory_is_two_blocks():
    # 1e6 dim-4 ball pairs: the two reused 100 000-pair blocks are 6.1 MiB,
    # and the gate runs on rows that stay in cache; fresh blocks and
    # whole-block temporaries peaked at 14.5 MiB
    gate = plakhov_almeida_gate(-0.25, 1.0)
    noise = uniform_ball_noise(4, 2.0)
    # a first call imports modules numpy's seeding needs (0.7 MiB traced);
    # that is not the Monte Carlo's memory
    e0_monte_carlo(gate, noise, n_samples=2, seed=0)
    tracemalloc.start()
    try:
        est = e0_monte_carlo(gate, noise, n_samples=1_000_000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8.5 * 2**20
    assert est.n_samples == 1_000_000


def test_e0_monte_carlo_rejects_negative_drift():
    # midpoint -0.25: the counter would trend downward
    gate = plakhov_almeida_gate(-1.0, 0.5)
    with pytest.raises(ConfigError) as exc:
        e0_monte_carlo(gate, gaussian_noise(np.eye(2)), n_samples=100_000,
                       seed=2)
    assert exc.value.assumption == "B4.2"
