"""Asymptotic covariance predictions for the scaled iterate sqrt(t) (x_t - x*).

With the counter growing like E0 * t, the effective drift around the root is
governed by

    W = I/2 - (1/E0) phi'(x*),

and when W is stable (all eigenvalue real parts < 0) the scaled iterate is
asymptotically normal with covariance V solving

    W (-V) + (-V) W^T = (1/E0)^2 S_xi.

Two independent routes to V are kept deliberately separate:

* :func:`solve_lyapunov` vectorises the equation through the Kronecker sum
  (kron(W, I) + kron(I, W)) and solves the dense n^2 x n^2 system;
* :func:`covariance_integral_oracle` evaluates the stable-matrix integral
  representation -(-V) = integral_0^inf e^{Wt} (1/E0)^2 S_xi e^{W^T t} dt
  by composite Gauss-Legendre quadrature with a checked tail bound.

They share no linear-algebra path, so agreement is a real cross-check.

Closed forms used in tests: scalar V = sigma^2 / (E0 (2a - E0)); for
diagonal W, V_ij = C_ij / (-w_i - w_j) with C = S_xi / E0^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, StabilityError, TailBoundError
from .schedules import E0Estimate

#: Residual tolerance for the Lyapunov solve, relative to max(1, |C|_max).
LYAPUNOV_RESIDUAL_RTOL = 1e-10

#: The quadrature horizon must damp the propagator to this spectral norm.
TAIL_NORM_BOUND = 1e-8

#: Floor on the oracle's total Gauss-Legendre node count.
ORACLE_MIN_NODES = 384

#: Ceiling on that count. Each node costs a matrix exponential, so a W close
#: enough to unstable to need more is refused before any node is allocated.
ORACLE_MAX_NODES = 100_000

#: The oracle's 12-point Gauss-Legendre rule on [-1, 1]: the bits of
#: ``numpy.polynomial.legendre.leggauss(12)``, written out so that no
#: command loads ``numpy.polynomial`` for them.
GAUSS_LEGENDRE_NODES = (
    -0.9815606342467192, -0.9041172563704748, -0.7699026741943047,
    -0.5873179542866175, -0.3678314989981802, -0.1252334085114689,
    0.1252334085114689, 0.3678314989981802, 0.5873179542866175,
    0.7699026741943047, 0.9041172563704748, 0.9815606342467192)
GAUSS_LEGENDRE_WEIGHTS = (
    0.04717533638651141, 0.10693932599531907, 0.16007832854334642,
    0.20316742672306573, 0.2334925365383546, 0.2491470458134027,
    0.2491470458134027, 0.2334925365383546, 0.20316742672306573,
    0.16007832854334642, 0.10693932599531907, 0.04717533638651141)


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential.

    A square float matrix whose off-diagonal entries are all zero is
    ``np.diag(np.exp(np.diag(a)))``, the expression ``scipy.linalg.expm``
    evaluates when its own bandwidth test finds one, so the bits are the
    same. Any other matrix goes to ``scipy.linalg.expm``, imported here,
    so a diagonal W loads no scipy.linalg.
    """
    a = np.asarray(a)
    if (a.ndim == 2 and a.shape[0] == a.shape[1] and a.dtype == np.float64
            and np.count_nonzero(a) == np.count_nonzero(a.diagonal())):
        return np.diag(np.exp(np.diag(a)))
    import scipy.linalg
    return scipy.linalg.expm(a)


def _as_e0_value(e0) -> float:
    value = e0.value if isinstance(e0, E0Estimate) else float(e0)
    if value <= 0:
        raise ValueError(f"E0 must be > 0, got {value}")
    return float(value)


def _scaled_noise(noise_cov, e0) -> np.ndarray:
    """C = S_xi / E0^2. E0^2 underflows to 0 below about 1e-162, so a C
    that is not finite raises NumericError."""
    value = _as_e0_value(e0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        c = np.atleast_2d(np.asarray(noise_cov, dtype=np.float64)) / (
            value * value)
    if not np.isfinite(c).all():
        raise NumericError(f"S_xi / E0^2 is not finite at E0 = {value:.6g}")
    return c


def stability_matrix(jacobian: np.ndarray, e0) -> tuple[np.ndarray, np.ndarray, bool]:
    """Drift matrix W = I/2 - jacobian/E0 with its spectrum.

    Returns ``(W, eigen_real_parts, stable)`` where the real parts come
    sorted ascending and ``stable`` means all of them are < 0. A W that
    overflows raises NumericError.
    """
    j = np.atleast_2d(np.asarray(jacobian, dtype=np.float64))
    if j.shape[0] != j.shape[1]:
        raise ValueError(f"jacobian must be square, got {j.shape}")
    value = _as_e0_value(e0)
    w = 0.5 * np.eye(j.shape[0]) - j / value
    if not np.isfinite(w).all():
        raise NumericError(f"W = I/2 - J/E0 is not finite at E0 = {value:.6g}")
    real_parts = np.sort(_eig_real_parts(w))
    return w, real_parts, bool(real_parts[-1] < 0.0)


def _eig_real_parts(w: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.eigvals(w).real
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigenvalue solver failed: {exc}") from exc


def _require_stable(w: np.ndarray) -> np.ndarray:
    real_parts = np.sort(_eig_real_parts(w))
    if real_parts[-1] >= 0.0:
        raise StabilityError(
            f"matrix is not stable: max eigenvalue real part = {real_parts[-1]:.6g}")
    return real_parts


def solve_lyapunov(w: np.ndarray, noise_cov: np.ndarray, e0) -> np.ndarray:
    """Asymptotic covariance V from the Kronecker-vectorised Lyapunov solve.

    Solves (kron(W, I) + kron(I, W)) vec(-V) = vec(S_xi / E0^2), negates,
    and symmetrises. Raises StabilityError for unstable W and NumericError
    if the residual of the returned V exceeds the documented bound.
    """
    w = np.atleast_2d(np.asarray(w, dtype=np.float64))
    _require_stable(w)
    n = w.shape[0]
    c = _scaled_noise(noise_cov, e0)
    if c.shape != (n, n):
        raise ValueError(f"noise covariance shape {c.shape} does not match W {w.shape}")
    eye = np.eye(n)
    system = np.kron(w, eye) + np.kron(eye, w)
    try:
        minus_v = np.linalg.solve(system, c.reshape(-1)).reshape(n, n)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"Lyapunov system is singular: {exc}") from exc
    # a V or residual that overflows fails the residual check below, which
    # a NaN fails too
    with np.errstate(over="ignore", invalid="ignore"):
        v = -minus_v
        v = 0.5 * (v + v.T)
        residual = np.max(np.abs(w @ (-v) + (-v) @ w.T - c))
    tol = LYAPUNOV_RESIDUAL_RTOL * max(1.0, float(np.max(np.abs(c))))
    if not residual <= tol:
        raise NumericError(
            f"Lyapunov residual {residual:.3e} exceeds tolerance {tol:.3e}")
    return v


def covariance_integral_oracle(w: np.ndarray, noise_cov: np.ndarray,
                               e0) -> np.ndarray:
    """V via quadrature of the integral representation (independent route).

    Integrates e^{Wt} (S_xi/E0^2) e^{W^T t} over [0, t_max] with composite
    Gauss-Legendre panels (12 nodes each). t_max = log(1e12)/|max real
    eigenvalue| is where W's slowest mode has decayed by 1e-12. Panel width
    is capped at 2/||W||_2 so oscillatory modes (complex spectrum) are
    resolved, with at least ``ORACLE_MIN_NODES`` nodes in total; a horizon
    needing more than ``ORACLE_MAX_NODES`` nodes raises NumericError. A W
    so far from normal that ||e^{W t_max}||_2 > 1e-8 raises TailBoundError.
    """
    w = np.atleast_2d(np.asarray(w, dtype=np.float64))
    real_parts = _require_stable(w)
    c = _scaled_noise(noise_cov, e0)
    t_max = float(np.log(1e12) / -real_parts[-1])
    per_panel = len(GAUSS_LEGENDRE_NODES)
    spread = max(1.0, float(np.linalg.norm(w, 2)))
    # t_max is +inf when the division overflows: the count stays a float,
    # so the guard refuses it before int() could meet it
    panels = np.maximum(np.ceil(ORACLE_MIN_NODES / per_panel),
                        np.ceil(t_max * spread / 2.0))
    if not panels * per_panel <= ORACLE_MAX_NODES:
        raise NumericError(
            f"integral oracle needs {panels * per_panel:.6g} quadrature nodes "
            f"(limit {ORACLE_MAX_NODES}) to reach t_max = {t_max:.6g}; max "
            f"eigenvalue real part of W = {real_parts[-1]:.6g}")
    tail = np.linalg.norm(expm(w * t_max), 2)
    if not tail <= TAIL_NORM_BOUND:
        raise TailBoundError(
            f"||exp(W t_max)|| = {tail:.3e} > {TAIL_NORM_BOUND:.0e} at "
            f"t_max = {t_max:.6g}, where W's slowest mode has decayed by "
            f"1e-12: W is too far from normal for the integral oracle")
    n_panels = int(panels)
    edges = np.linspace(0.0, t_max, n_panels + 1)
    acc = np.zeros_like(c)
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        for node, weight in zip(GAUSS_LEGENDRE_NODES, GAUSS_LEGENDRE_WEIGHTS):
            propagator = expm(w * (mid + half * node))
            acc += (half * weight) * (propagator @ c @ propagator.T)
    return 0.5 * (acc + acc.T)


@dataclass(frozen=True, eq=False)
class AsymptoticPrediction:
    """E0, the drift matrix, its spectrum, and (when stable) V."""
    e0: E0Estimate
    w: np.ndarray
    eigen_real_parts: np.ndarray
    stable: bool
    v: np.ndarray | None


def predict(jacobian: np.ndarray, noise_cov: np.ndarray, e0) -> AsymptoticPrediction:
    """Bundle W, the stability verdict, and (if stable) the solved V."""
    estimate = e0 if isinstance(e0, E0Estimate) else E0Estimate(
        value=float(e0), stderr=0.0, method="exact")
    w, real_parts, stable = stability_matrix(jacobian, estimate)
    v = solve_lyapunov(w, noise_cov, estimate) if stable else None
    return AsymptoticPrediction(e0=estimate, w=w, eigen_real_parts=real_parts,
                                stable=stable, v=v)
