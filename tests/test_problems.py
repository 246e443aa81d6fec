"""Built-in problems, noise models, and the assumption checklist."""

import numpy as np
import pytest

from adaptix import (ConfigError, DimensionMismatchError,
                     constant_schedule, cubic_problem,
                     field_eval, gaussian_noise, jacobian_eval, kesten_gate,
                     linear_problem, plakhov_almeida_gate,
                     reciprocal_schedule, scaled_rademacher_noise,
                     tanh_problem, uniform_ball_noise, validate_problem)
from adaptix._rowops import ColumnSpans, apply_rows
from adaptix.config import parse_config
from adaptix.problems import MAX_DIM, ProblemSpec
from adaptix.report import FAIL, FULL_CHECK_IDS, NOT_CHECKED, PASS
from adaptix.rng import substream

FLOOR4 = reciprocal_schedule(s_floor=4.0)
KESTEN = kesten_gate()


# ---------------------------------------------------------------------------
# fields and jacobians


def test_linear_field_values():
    problem = linear_problem(matrix=np.array([[2.0, 1.0], [0.0, 3.0]]),
                             root=np.array([1.0, -1.0]))
    out = field_eval(problem, np.array([2.0, 0.0]))
    assert np.allclose(out, [3.0, 3.0])
    assert np.allclose(field_eval(problem, problem.root), 0.0)


def test_field_eval_batches():
    problem = linear_problem(matrix=np.diag([1.0, 2.0]))
    pts = np.ones((4, 3, 2))
    out = field_eval(problem, pts)
    assert out.shape == (4, 3, 2)
    assert np.allclose(out[..., 1], 2.0)


def nan_bits(a):
    """Bits with every NaN's payload dropped; see test_rowops."""
    a = np.asarray(a, dtype=np.float64)
    return np.where(np.isnan(a), np.nan, a).view(np.int64)


#: Every pair of signed zeros, NaN, infinities and a plain value.
SPECIAL_ROWS = np.array([(a, b) for a in (0.0, -0.0, np.nan, np.inf,
                                          -np.inf, 1.5)
                         for b in (0.0, -0.0, np.nan, np.inf, -np.inf, -2.0)])


@pytest.mark.parametrize("root", [0.0, -0.0, [0.0, -0.0], [1.0, -0.5]],
                         ids=["plus-zero", "minus-zero", "mixed-zero",
                              "nonzero"])
def test_field_eval_is_the_field_of_x_minus_root(root):
    # a -0.0 root entry turns a -0.0 coordinate into +0.0; a +0.0 one
    # changes no bit
    m = np.array([[2.0, 1.0], [-0.5, 3.0]])
    root = np.broadcast_to(np.asarray(root, dtype=np.float64), (2,))
    problem = linear_problem(matrix=m, root=root)
    with np.errstate(invalid="ignore"):
        want = apply_rows(m, SPECIAL_ROWS - root)
        assert np.array_equal(nan_bits(field_eval(problem, SPECIAL_ROWS)),
                              nan_bits(want))
        tanh = tanh_problem(matrix=m, root=root)
        assert np.array_equal(
            nan_bits(field_eval(tanh, SPECIAL_ROWS)),
            nan_bits(apply_rows(m, np.tanh(SPECIAL_ROWS - root))))
        cubic = cubic_problem(a=1.5, c=0.5, root=root[:1])
        x = SPECIAL_ROWS[:, :1]
        assert np.array_equal(
            nan_bits(field_eval(cubic, x)),
            nan_bits(1.5 * (x - root[0]) + 0.5 * (x - root[0]) ** 3))


def test_scalar_matrix_becomes_multiple_of_identity():
    problem = linear_problem(matrix=2.0, dim=3)
    assert np.array_equal(problem.matrix, 2.0 * np.eye(3))
    assert np.array_equal(problem.jacobian_at_root, 2.0 * np.eye(3))


def test_tanh_saturates_and_linearizes():
    a = np.array([[1.5, 0.0], [0.0, 3.0]])
    problem = tanh_problem(matrix=a)
    far = field_eval(problem, np.array([50.0, 50.0]))
    assert np.allclose(far, a @ np.ones(2), atol=1e-12)
    assert np.allclose(problem.jacobian_at_root, a)


def test_cubic_field_and_jacobian():
    problem = cubic_problem(a=1.0, c=2.0)
    x = np.array([0.5])
    assert field_eval(problem, x)[0] == pytest.approx(0.5 + 2.0 * 0.125)
    assert jacobian_eval(problem, x)[0, 0] == pytest.approx(1.0 + 6.0 * 0.25)
    assert problem.jacobian_at_root[0, 0] == 1.0


def jacobian_fd(problem, x, step=1e-6):
    """Central-difference Jacobian, to cross-check the analytic one."""
    arr = np.asarray(x, dtype=np.float64).reshape(-1)
    cols = []
    for j in range(problem.dim):
        h = step * max(1.0, abs(arr[j]))
        forward = arr.copy()
        forward[j] += h
        backward = arr.copy()
        backward[j] -= h
        cols.append((field_eval(problem, forward) - field_eval(problem, backward))
                    / (2.0 * h))
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("problem", [
    linear_problem(matrix=np.array([[1.5, 0.4], [-0.2, 2.5]])),
    tanh_problem(matrix=np.array([[2.0, 0.3], [0.1, 1.0]]),
                 root=np.array([0.5, -0.3])),
    cubic_problem(a=0.8, c=1.5, root=0.2),
])
def test_analytic_jacobian_matches_finite_differences(problem):
    rng = np.random.default_rng(44)
    for _ in range(5):
        x = problem.root + 0.5 * rng.standard_normal(problem.dim)
        analytic = jacobian_eval(problem, x)
        fd = jacobian_fd(problem, x)
        assert np.max(np.abs(analytic - fd)) < 1e-5 * max(
            1.0, np.max(np.abs(analytic)))


def test_problem_construction_errors():
    with pytest.raises(DimensionMismatchError):
        linear_problem(matrix=np.eye(2), noise=gaussian_noise(np.eye(3)))
    for dim in (-1, 0):
        with pytest.raises(ConfigError, match="problem.dim"):
            linear_problem(matrix=1.0, dim=dim)
    with pytest.raises(ConfigError):
        cubic_problem(a=0.0)
    with pytest.raises(ConfigError):
        cubic_problem(c=-1.0)
    with pytest.raises(ConfigError):
        linear_problem(matrix=np.eye(2),
                       lyap_matrix=np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_a_spec_without_a_lyapunov_matrix_gets_the_identity():
    problem = ProblemSpec(kind="linear", dim=2, root=np.zeros(2),
                          noise=gaussian_noise(np.eye(2)),
                          matrix=np.diag([1.5, 3.0]))
    assert np.array_equal(problem.lyap_matrix, np.eye(2))
    report = validate_problem(problem, FLOOR4, KESTEN, seed=0)
    assert [report.verdict(cid) for cid in ("B3.1a", "B3.1b", "B3.1c",
                                            "B3.1d")] == [PASS] * 4
    assert not report.failed_ids


def test_scalar_root_means_that_value_in_every_coordinate():
    problem = linear_problem(matrix=2.0, dim=2, root=0.5)
    assert np.array_equal(problem.root, [0.5, 0.5])


@pytest.mark.parametrize("values", [{"dim": MAX_DIM + 1},
                                    {"dim": 10**6},
                                    {"matrix": np.zeros((MAX_DIM + 1,) * 2)}])
def test_builders_refuse_a_dim_above_the_lyapunov_bound(values):
    # refused before anything dim-sized, such as np.eye(10**6), is built
    with pytest.raises(ConfigError, match=f"problem.dim must be <= {MAX_DIM}"):
        linear_problem(**values)


@pytest.mark.parametrize("builder", [linear_problem, tanh_problem,
                                     cubic_problem])
def test_builders_reject_an_unknown_keyword(builder):
    with pytest.raises(TypeError, match="kappa"):
        builder(kappa=1.0)


def spec_fields(problem) -> dict:
    """Every field of a problem and of its noise, arrays as lists and a
    held matrix as its matrix."""
    fields = {**vars(problem), **{f"noise.{key}": value for key, value
                                   in vars(problem.noise).items()}}
    del fields["noise"]
    return {key: np.asarray(value.matrix if type(value) is ColumnSpans
                            else value).tolist()
            for key, value in fields.items()}


@pytest.mark.parametrize("doc, build", [
    ({"kind": "linear"}, linear_problem),
    ({"kind": "tanh"}, tanh_problem),
    ({"kind": "cubic1d"}, cubic_problem),
    ({"kind": "linear", "dim": 3, "matrix": 2.0, "root": -0.5},
     lambda: linear_problem(dim=3, matrix=2.0, root=-0.5)),
    ({"kind": "tanh", "matrix": [[1.5, 0.2], [0.0, 3.0]], "root": [1.0, 2.0],
      "noise": {"kind": "uniform_ball", "radius": 2.0},
      "lyap_matrix": [[2.0, 0.0], [0.0, 1.0]], "b32_radius": 1.0,
      "b32_beta0": 0.25},
     lambda: tanh_problem(matrix=np.array([[1.5, 0.2], [0.0, 3.0]]),
                          root=np.array([1.0, 2.0]),
                          noise=uniform_ball_noise(2, 2.0),
                          lyap_matrix=np.diag([2.0, 1.0]), b32_radius=1.0,
                          b32_beta0=0.25)),
    ({"kind": "cubic1d", "dim": 1, "a": 0.5, "c": 2.0, "root": 0.3,
      "noise": {"kind": "scaled_rademacher", "scale": 0.5}},
     lambda: cubic_problem(dim=1, a=0.5, c=2.0, root=0.3,
                           noise=scaled_rademacher_noise(1, 0.5))),
    # with no dim and no matrix list the dim comes from the root, then
    # from the noise
    ({"kind": "linear", "root": [1.0, 2.0]},
     lambda: linear_problem(root=[1.0, 2.0])),
    ({"kind": "tanh", "noise": {"kind": "uniform_ball", "dim": 3}},
     lambda: tanh_problem(noise=uniform_ball_noise(3, 1.0))),
])
def test_config_and_builder_give_the_same_problem(doc, build):
    cfg = parse_config({"problem": doc, "sigmoid": {"family": "kesten"},
                        "schedule": {}})
    assert spec_fields(cfg.plan.problem) == spec_fields(build())


# ---------------------------------------------------------------------------
# noise models


def empirical_moments(noise, count, seed):
    draws = noise.sample_block(substream(seed, 3, 0), count)
    return draws, draws.mean(axis=0), np.cov(draws, rowvar=False)


def test_gaussian_noise_moments():
    cov = np.array([[2.0, 0.5], [0.5, 1.0]])
    noise = gaussian_noise(cov)
    draws, mean, emp = empirical_moments(noise, 200_000, seed=1)
    assert np.max(np.abs(mean)) < 4.0 * np.sqrt(2.0 / 200_000)
    assert np.max(np.abs(emp - cov)) < 0.05
    assert noise.is_continuous and noise.conforming


def test_uniform_ball_noise_moments():
    noise = uniform_ball_noise(3, radius=2.0)
    draws, mean, emp = empirical_moments(noise, 200_000, seed=2)
    assert np.all(np.linalg.norm(draws, axis=1) <= 2.0 + 1e-12)
    assert np.max(np.abs(mean)) < 0.02
    expected = (4.0 / 5.0) * np.eye(3)     # r^2/(n+2) per coordinate
    assert np.max(np.abs(emp - expected)) < 0.02
    assert np.array_equal(noise.cov, expected)


def test_rademacher_noise_support():
    noise = scaled_rademacher_noise(2, scale=0.5)
    draws = noise.sample_block(substream(5, 3, 0), 1000)
    assert set(np.unique(draws)) == {-0.5, 0.5}
    assert not noise.conforming


def test_gaussian_noise_rejects_indefinite_cov():
    with pytest.raises(ConfigError):
        gaussian_noise(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_zero_covariance_is_allowed():
    noise = gaussian_noise([[0.0]])
    draws = noise.sample_block(substream(0, 3, 0), 10)
    assert np.all(draws == 0.0)


# ---------------------------------------------------------------------------
# the assumption checklist


def test_linear_battery_all_pass():
    problem = linear_problem(matrix=np.diag([1.5, 3.0]))
    report = validate_problem(problem, FLOOR4, KESTEN, seed=0)
    assert report.all_pass
    assert {item.check_id for item in report} == set(FULL_CHECK_IDS)
    assert all(item.verdict == PASS for item in report)


def test_tanh_battery_all_pass():
    problem = tanh_problem(matrix=np.diag([1.5, 2.0]))
    report = validate_problem(problem, FLOOR4, KESTEN, seed=0)
    assert not report.failed_ids


def test_cubic_battery_honest_about_growth():
    problem = cubic_problem(a=1.0, c=1.0)
    report = validate_problem(problem, FLOOR4, KESTEN, seed=0)
    # superlinear growth defeats any fixed quantitative drift margin, so the
    # check is reported as not run rather than silently passed
    assert report.verdict("B3.2") == NOT_CHECKED
    assert not report.failed_ids


def test_aggressive_step_fails_descent_margin():
    # frozen counterexample: slope-2 problem at gamma(0) = 1 overshoots
    problem = linear_problem(matrix=2.0, dim=2)
    report = validate_problem(problem, reciprocal_schedule(), KESTEN, seed=0)
    assert report.verdict("B3.2") == FAIL
    item = report["B3.2"]
    assert item.witness is not None


def test_unstable_linearization_flagged():
    problem = linear_problem(matrix=0.2, dim=1)
    report = validate_problem(problem, FLOOR4, KESTEN, seed=0)
    assert report.verdict("B3.3") == FAIL


def test_nonconforming_noise_flagged():
    problem = linear_problem(matrix=1.0, dim=2,
                             noise=scaled_rademacher_noise(2, 1.0))
    report = validate_problem(problem, FLOOR4, KESTEN, seed=0)
    assert report.verdict("B1.2") == FAIL


def test_negative_drift_gate_flagged():
    problem = linear_problem(matrix=1.0, dim=2)
    gate = plakhov_almeida_gate(-1.0, 0.5)   # midpoint drift -0.25
    report = validate_problem(problem, FLOOR4, gate, seed=0)
    assert report.verdict("B4.1") == PASS
    assert report.verdict("B4.2") == FAIL
    # without a positive E0 there is no W to test, and the report says so
    assert report.verdict("B3.3") == NOT_CHECKED


def test_schedule_verdicts_appear_in_problem_report():
    problem = linear_problem(matrix=1.0, dim=1)
    report = validate_problem(problem, constant_schedule(0.1), KESTEN, seed=0)
    assert report.verdict("B2.3") == FAIL


def test_validation_is_deterministic():
    problem = linear_problem(matrix=np.diag([1.5, 3.0]))
    a = validate_problem(problem, FLOOR4, KESTEN, seed=12)
    b = validate_problem(problem, FLOOR4, KESTEN, seed=12)
    assert [(i.check_id, i.verdict, i.detail) for i in a] == \
           [(i.check_id, i.verdict, i.detail) for i in b]
