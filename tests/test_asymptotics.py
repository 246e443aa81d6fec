"""Limit covariance: Lyapunov solve against closed forms and quadrature."""

import numpy as np
import pytest
import scipy.linalg

from adaptix import (E0Estimate, NumericError, StabilityError, TailBoundError,
                     covariance_integral_oracle, predict, solve_lyapunov,
                     stability_matrix)
from adaptix import asymptotics
from adaptix.asymptotics import expm


def scalar_v(a, e0, sigma_sq):
    # 1-D closed form: W = 1/2 - a/E0 and V solves 2 W V = -sigma^2/E0^2,
    # which rearranges to sigma^2 / (E0 (2a - E0)).
    return sigma_sq / (e0 * (2.0 * a - e0))


def diagonal_v(rates, e0, cov):
    # commuting case: V_ij = (S_ij/E0^2) / (-w_i - w_j)
    w = 0.5 - np.asarray(rates) / e0
    denom = -(w[:, None] + w[None, :])
    return np.asarray(cov) / (e0 * e0) / denom


def random_stable_system(rng, n, e0=0.5):
    m = rng.standard_normal((n, n))
    sym = m @ m.T / n + 0.8 * e0 * np.eye(n)
    skew = rng.standard_normal((n, n))
    jac = sym + 0.3 * (skew - skew.T)
    b = rng.standard_normal((n, n))
    cov = b @ b.T / n + 0.1 * np.eye(n)
    return jac, cov


def test_stability_matrix_scalar():
    w, real_parts, stable = stability_matrix(np.array([[2.0]]), 1.0)
    assert w == pytest.approx(np.array([[-1.5]]))
    assert real_parts == pytest.approx(np.array([-1.5]))
    assert stable


def test_stability_matrix_detects_unstable():
    # a/E0 = 0.4 < 1/2, so W has a positive real eigenvalue
    w, real_parts, stable = stability_matrix(np.array([[0.2]]), 0.5)
    assert real_parts[0] == pytest.approx(0.1)
    assert not stable


def test_eigen_solver_failure_is_a_numeric_error(monkeypatch):
    from adaptix import NumericError

    def refuse(_):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    with pytest.raises(NumericError):
        stability_matrix(np.eye(2), 1.0)


def test_scalar_closed_form_tight():
    pred = predict(np.array([[2.0]]), np.array([[1.0]]), 1.0)
    assert abs(pred.v[0, 0] - 1.0 / 3.0) < 1e-12
    pred = predict(np.array([[2.0]]), np.array([[1.0]]), 0.5)
    assert abs(pred.v[0, 0] - scalar_v(2.0, 0.5, 1.0)) < 1e-12
    assert abs(pred.v[0, 0] - 4.0 / 7.0) < 1e-12


def test_diagonal_closed_form():
    rates = np.array([1.5, 3.0])
    cov = np.array([[1.0, 0.3], [0.3, 2.0]])
    pred = predict(np.diag(rates), cov, 0.5)
    expected = diagonal_v(rates, 0.5, cov)
    assert np.max(np.abs(pred.v - expected)) < 1e-12
    # the acceptance pair: unit noise gives diag(0.8, 4/11)
    pred = predict(np.diag(rates), np.eye(2), 0.5)
    assert pred.v[0, 0] == pytest.approx(0.8, abs=1e-12)
    assert pred.v[1, 1] == pytest.approx(4.0 / 11.0, abs=1e-12)


def test_solver_agrees_with_integral_oracle():
    rng = np.random.default_rng(914)
    for n in (1, 2, 3, 5, 10):
        jac, cov = random_stable_system(rng, n)
        pred = predict(jac, cov, 0.5)
        assert pred.stable
        oracle = covariance_integral_oracle(pred.w, cov, 0.5)
        tol = 1e-8 * max(1.0, float(np.max(np.abs(pred.v))))
        assert np.max(np.abs(pred.v - oracle)) <= tol


def test_lyapunov_solution_properties():
    rng = np.random.default_rng(77)
    jac, cov = random_stable_system(rng, 4)
    v = solve_lyapunov(stability_matrix(jac, 0.5)[0], cov, 0.5)
    assert np.array_equal(v, v.T)
    np.linalg.cholesky(v)  # positive definite
    # linearity in the noise covariance
    v2 = solve_lyapunov(stability_matrix(jac, 0.5)[0], 2.0 * cov, 0.5)
    assert np.max(np.abs(v2 - 2.0 * v)) < 1e-10 * np.max(np.abs(v))


def test_lyapunov_residual_identity():
    rng = np.random.default_rng(3)
    jac, cov = random_stable_system(rng, 3)
    e0 = 0.5
    w = stability_matrix(jac, e0)[0]
    v = solve_lyapunov(w, cov, e0)
    residual = w @ (-v) + (-v) @ w.T - cov / (e0 * e0)
    assert np.max(np.abs(residual)) < 1e-10 * max(1.0, np.max(np.abs(cov)) / (e0 * e0))


@pytest.mark.parametrize(("w", "cov", "residual"), [
    # V = 1.7e308 overflows when it is symmetrised
    ([[-0.5]], [[1.7e308]], "inf"),
    # the solve returns NaN entries, whose residual is NaN
    ([[-1e-10, 1.0], [0.0, -1e-10]], [[1e300, 0.0], [0.0, 1e300]], "nan"),
], ids=["overflow", "nan"])
def test_a_non_finite_residual_is_refused(w, cov, residual):
    with pytest.raises(NumericError, match=f"Lyapunov residual {residual} "):
        solve_lyapunov(np.array(w), np.array(cov), 1.0)


@pytest.mark.parametrize("route", [solve_lyapunov, covariance_integral_oracle])
def test_a_tiny_e0_is_refused_by_both_routes(route):
    # E0^2 underflows to 0, so S_xi / E0^2 is infinite
    with pytest.raises(NumericError, match="S_xi / E0\\^2 is not finite at "
                       "E0 = 1e-200"):
        route(np.array([[-1.5]]), np.array([[1.0]]), 1e-200)


def test_unstable_system_refused():
    with pytest.raises(StabilityError):
        solve_lyapunov(np.array([[0.1]]), np.array([[1.0]]), 0.5)
    pred = predict(np.array([[0.2]]), np.array([[1.0]]), 0.5)
    assert not pred.stable
    assert pred.v is None


def test_oracle_tail_bound_guard():
    # W's slowest mode decays by 1e-12 at t = 18.42, where the coupling
    # still holds ||exp(W t)|| at 1.47e-8
    w = np.array([[-1.5, -800.0], [0.0, -1.5]])
    with pytest.raises(TailBoundError, match="too far from normal"):
        covariance_integral_oracle(w, np.eye(2), 0.5)


def test_oracle_refuses_a_horizon_beyond_its_node_limit():
    # W = -1.1e-16 puts the horizon at 2.5e17
    w = np.array([[0.5 - 0.25000000000000006 / 0.5]])
    with pytest.raises(NumericError, match="max eigenvalue real part of W = "
                                           "-1.11022e-16"):
        covariance_integral_oracle(w, np.array([[1.0]]), 0.5)


def test_oracle_node_limit_is_inclusive(monkeypatch):
    # the horizon log(1e12)/0.35 = 78.9 takes 40 panels of 12 nodes at
    # ||W|| = 1; log(1e12)/0.34 = 81.3 takes 41
    monkeypatch.setattr(asymptotics, "ORACLE_MAX_NODES", 480)
    cov = np.array([[1.0]])
    out = covariance_integral_oracle(np.array([[-0.35]]), cov, 1.0)
    assert out[0, 0] == pytest.approx(1.0 / 0.7, abs=1e-10)
    with pytest.raises(NumericError, match=r"needs 492 quadrature nodes "
                                           r"\(limit 480\)"):
        covariance_integral_oracle(np.array([[-0.34]]), cov, 1.0)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


def test_diagonal_expm_is_scipy_bit_for_bit():
    rng = np.random.default_rng(5)
    for _ in range(2000):
        n = int(rng.integers(1, 11))
        diag = rng.standard_normal(n) * rng.choice([1e-3, 1.0, 30.0], size=n)
        diag[rng.random(n) < 0.2] = rng.choice([0.0, -0.0])
        a = np.diag(diag)
        if rng.random() < 0.5:
            a[~np.eye(n, dtype=bool)] = -0.0
        assert same_bits(expm(a), scipy.linalg.expm(a))
    for a in (np.array([[-1.5]]), np.array([[-0.0]]),
              np.diag([800.0, -800.0, 1.0])):      # overflow to inf, and 0
        with np.errstate(over="ignore"):
            assert same_bits(expm(a), scipy.linalg.expm(a))
    coupled = np.array([[-1.0, 0.2], [0.0, -1.5]])
    assert same_bits(expm(coupled), scipy.linalg.expm(coupled))


def test_gauss_legendre_constants_are_leggauss_bit_for_bit():
    nodes, weights = np.polynomial.legendre.leggauss(12)
    for pinned, computed in ((asymptotics.GAUSS_LEGENDRE_NODES, nodes),
                             (asymptotics.GAUSS_LEGENDRE_WEIGHTS, weights)):
        assert (np.array(pinned).view(np.uint64).tolist()
                == computed.view(np.uint64).tolist())


def test_predict_accepts_estimate_and_rejects_bad_e0():
    est = E0Estimate(value=0.5, stderr=0.001, method="monte_carlo",
                     n_samples=1000)
    pred = predict(np.array([[2.0]]), np.array([[1.0]]), est)
    assert pred.e0.value == 0.5
    assert pred.v[0, 0] == pytest.approx(4.0 / 7.0, abs=1e-12)
    with pytest.raises(ValueError):
        predict(np.array([[2.0]]), np.array([[1.0]]), 0.0)
    with pytest.raises(ValueError):
        predict(np.array([[2.0]]), np.array([[1.0]]), -1.0)
