"""Built-in root-finding problems and the assumption validators.

A problem bundles the mean field phi (with a known root x* and Jacobian
there), the noise model, and a quadratic Lyapunov certificate
V(x) = (x - x*)^T P (x - x*), P = I unless given, used by the drift checks.

Built-ins:

* ``linear``   phi(x) = A (x - x*)
* ``tanh``     phi(x) = A tanh(x - x*), componentwise tanh (bounded field)
* ``cubic1d``  phi(x) = a (x - x*) + c (x - x*)^3, scalar, a, c > 0

:func:`validate_problem` runs the full assumption checklist (B1.1-B4.2)
against a problem/schedule/gate triple and reports one verdict per check.
Sampling-based checks are evidence, not proof: every verdict records the
grid it looked at, failures carry a witness point, and checks that cannot
run report ``not_checked`` rather than silently passing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import sub

import numpy as np

from ._rowops import apply_rows, norm_rows
from .asymptotics import MAX_DIM, stability_matrix
from .errors import ConfigError, DimensionMismatchError, NumericError
from .noise import NoiseModel, gaussian_noise
from .report import FAIL, NOT_CHECKED, PASS, ValidationReport
from .rng import VALIDATION_LANE, substream
from .schedules import (DEFAULT_E0_MC_SAMPLES, SigmoidSpec, StepSchedule,
                        e0_resolve, gamma_eval, sigmoid_eval,
                        validate_schedule)

#: Config keys of each problem kind, in config.json order, with defaults:
#: None is the matrix's row count for ``dim``, standard gaussian noise for
#: ``noise`` and the identity for ``lyap_matrix``. A kind that declares its
#: dim is scalar: every key but its noise is a number.
_MATRIX_KEYS = {"dim": None, "matrix": 1.0, "root": 0.0, "noise": None,
                "lyap_matrix": None, "b32_radius": 2.0, "b32_beta0": 0.5}
PROBLEM_KINDS = {
    "linear": _MATRIX_KEYS,
    "tanh": _MATRIX_KEYS,
    "cubic1d": {"dim": 1, "a": 1.0, "c": 1.0, "root": 0.0, "noise": None},
}


#: The validators' sampling grid: noise draws for B1.1, random directions
#: on top of the axes, drift radii (B3.1c, B3.2, the B3.1d start),
#: fractions of gamma(0) and steps for the B3.1d descent, and the shrinking
#: radii of B3.4.
N_NOISE_SAMPLES = 200_000
N_DIRECTIONS = 16
RADII = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
#: The cubic's descent starts stay inside the basin of its deterministic
#: recursion.
CUBIC_RADII = (0.25, 0.5, 1.0, 1.2)
GAMMA_FRACTIONS = (0.25, 0.5, 0.9)
DESCENT_STEPS = 60
SHRINK_RADII = (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125)


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    kind: str
    dim: int
    root: np.ndarray
    noise: NoiseModel
    matrix: np.ndarray | None = None      # A, for linear / tanh
    a: float | None = None                # the cubic's coefficients
    c: float | None = None
    lyap_matrix: np.ndarray | None = None  # P; None is the identity
    b32_radius: float | None = None
    b32_beta0: float | None = None
    # ``matrix`` and ``root`` as tuples of floats, for field_eval's float form
    matrix_rows: tuple | None = field(default=None, init=False, repr=False)
    root_floats: tuple = field(default=(), init=False, repr=False)

    def __post_init__(self):
        if self.kind not in PROBLEM_KINDS:
            raise ConfigError(f"unknown problem kind {self.kind!r}")
        root = np.asarray(self.root, dtype=np.float64).reshape(-1)
        if root.shape != (self.dim,):
            raise DimensionMismatchError(
                f"root shape {root.shape} does not match dim {self.dim}")
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "root_floats", tuple(root.tolist()))
        if self.noise.dim != self.dim:
            raise DimensionMismatchError(
                f"noise dim {self.noise.dim} does not match problem dim {self.dim}")
        if self.kind == "cubic1d":
            if self.a is None or self.c is None:
                raise ConfigError("cubic1d needs coefficients a and c")
            if self.a <= 0 or self.c <= 0:
                raise ConfigError(
                    f"cubic1d needs a > 0 and c > 0, got a={self.a}, "
                    f"c={self.c}")
        else:
            if self.matrix is None:
                raise ConfigError(f"{self.kind} problem needs a matrix A")
            m = np.atleast_2d(np.asarray(self.matrix, dtype=np.float64))
            if m.shape != (self.dim, self.dim):
                raise DimensionMismatchError(
                    f"matrix shape {m.shape} does not match dim {self.dim}")
            object.__setattr__(self, "matrix", m)
            object.__setattr__(self, "matrix_rows",
                               tuple(map(tuple, m.tolist())))
        p = np.atleast_2d(np.asarray(
            np.eye(self.dim) if self.lyap_matrix is None else self.lyap_matrix,
            dtype=np.float64))
        if p.shape != (self.dim, self.dim):
            raise DimensionMismatchError(
                f"lyap matrix shape {p.shape} does not match dim {self.dim}")
        if not np.allclose(p, p.T, atol=1e-12):
            raise ConfigError("lyap matrix must be symmetric")
        try:
            np.linalg.cholesky(p)
        except np.linalg.LinAlgError:
            raise ConfigError("lyap matrix must be positive definite") from None
        object.__setattr__(self, "lyap_matrix", p)
        residual = float(norm_rows(field_eval(self, self.root)))
        if residual > 1e-12:
            raise ConfigError(f"field at the declared root has norm {residual:.3e}")

    @property
    def jacobian_at_root(self) -> np.ndarray:
        return jacobian_eval(self, self.root)


def field_eval(problem: ProblemSpec, x) -> np.ndarray:
    """Mean field phi(x); vectorised over leading axes of ``x``.

    For a linear problem a tuple ``x`` of floats gives a tuple, through
    ``apply_rows``'s float form. tanh and the cubic always go through
    numpy, whose ``tanh`` and ``**3`` do not match Python's bit for bit.
    """
    if type(x) is tuple and problem.kind == "linear":
        if len(x) != problem.dim:
            raise DimensionMismatchError(
                f"x has dimension {len(x)}, problem has {problem.dim}")
        return apply_rows(problem.matrix_rows,
                          tuple(map(sub, x, problem.root_floats)))
    arr = np.asarray(x, dtype=np.float64)
    if arr.shape[-1] != problem.dim:
        raise DimensionMismatchError(
            f"x has dimension {arr.shape[-1]}, problem has {problem.dim}")
    centered = arr - problem.root
    if problem.kind == "linear":
        return apply_rows(problem.matrix, centered)
    if problem.kind == "tanh":
        return apply_rows(problem.matrix, np.tanh(centered))
    return problem.a * centered + problem.c * centered**3


def jacobian_eval(problem: ProblemSpec, x) -> np.ndarray:
    """Analytic Jacobian phi'(x) at a single point."""
    arr = np.asarray(x, dtype=np.float64).reshape(-1)
    centered = arr - problem.root
    if problem.kind == "linear":
        return problem.matrix.copy()
    if problem.kind == "tanh":
        sech2 = 1.0 / np.cosh(centered) ** 2
        return problem.matrix * sech2[None, :]
    return np.array([[problem.a + 3.0 * problem.c * centered[0] ** 2]])


def jacobian_fd(problem: ProblemSpec, x, step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian, used to cross-check the analytic one."""
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


def check_dim(dim: int, name: str = "problem.dim") -> None:
    """Refuse a dim below 1 or above ``asymptotics.MAX_DIM``, before
    anything dim-sized is allocated."""
    if dim < 1:
        raise ConfigError(f"{name} must be >= 1, got {dim}")
    if dim > MAX_DIM:
        raise ConfigError(f"{name} must be <= {MAX_DIM}, got {dim}: the "
                          "Lyapunov solve holds dim^4 floats")


def build_problem(kind: str, dim: int | None = None,
                  **values) -> ProblemSpec:
    """A ``kind`` problem from ``values``, keyed as ``PROBLEM_KINDS[kind]``.

    A number for ``matrix`` means that multiple of I, and one for ``root``
    that value in every coordinate; a root of None is the origin. The
    scalar cubic takes no Lyapunov matrix and carries V(x) = (x - x*)^2 / 2.
    """
    declared = PROBLEM_KINDS[kind]
    unknown = sorted(set(values) - set(declared))
    if unknown:
        raise TypeError(f"{kind} problem got unexpected keyword argument(s) "
                        f"{', '.join(unknown)}")
    fields = {**declared, **values}
    fields.setdefault("lyap_matrix", [[0.5]])
    declared_dim = fields.pop("dim")
    if dim is None:
        dim = declared_dim
    if dim is not None:
        check_dim(dim)
    if declared_dim not in (None, dim):
        raise ConfigError(f"{kind} is scalar only")
    if "matrix" in fields:
        m = np.asarray(fields["matrix"], dtype=np.float64)
        m = float(m) * np.eye(dim or 1) if m.ndim == 0 else np.atleast_2d(m)
        if dim is None:
            check_dim(m.shape[0])
        elif dim != m.shape[0]:
            raise DimensionMismatchError(
                f"dim {dim} does not match the {m.shape[0]}-row matrix")
        fields["matrix"] = m
        dim = m.shape[0]
    root = np.asarray(0.0 if fields["root"] is None else fields["root"],
                      dtype=np.float64)
    if root.ndim == 0:
        fields["root"] = np.full(dim, root)
    if fields["noise"] is None:
        fields["noise"] = gaussian_noise(np.eye(dim))
    return ProblemSpec(kind=kind, dim=dim, **fields)


def linear_problem(**values) -> ProblemSpec:
    """Linear field A (x - x*); see :func:`build_problem` for the keys."""
    return build_problem("linear", **values)


def tanh_problem(**values) -> ProblemSpec:
    """Saturating field A tanh(x - x*); phi'(x*) = A."""
    return build_problem("tanh", **values)


def cubic_problem(**values) -> ProblemSpec:
    """Scalar cubic field a (x - x*) + c (x - x*)^3, with no B3.2 margin:
    its superlinear growth beats any margin at large radii."""
    return build_problem("cubic1d", **values)


def _directions(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Axis directions (both signs) plus ``count`` random unit vectors."""
    axes = np.concatenate([np.eye(dim), -np.eye(dim)], axis=0)
    g = rng.standard_normal((count, dim))
    nrm = norm_rows(g)
    nrm = np.where(nrm == 0.0, 1.0, nrm)
    return np.concatenate([axes, g / nrm[:, None]], axis=0)


def _drift(problem: ProblemSpec, p: np.ndarray, dirs: np.ndarray,
           radius: float):
    """Points at ``radius`` along ``dirs``, phi there and phi^T grad V."""
    points = problem.root + radius * dirs
    phi = field_eval(problem, points)
    grad_v = 2.0 * apply_rows(p, points - problem.root)
    return points, phi, np.sum(phi * grad_v, axis=-1)


def _lowest(scans):
    """The first lowest value over ``(points, values)`` scans, and its
    point; a NaN is the lowest, so it fails the check and is its witness."""
    points, values = map(np.concatenate, zip(*scans))
    idx = int(np.argmin(values))
    return float(values[idx]), points[idx]


def _descent(problem: ProblemSpec, p: np.ndarray, step: float,
             start: np.ndarray) -> dict | None:
    """The first of DESCENT_STEPS steps z <- z - step phi(z) from ``start``
    whose V is not <= the V before it (a NaN V included), or None."""
    root = problem.root
    z = start
    v_prev = float((z - root) @ p @ (z - root))
    for k in range(DESCENT_STEPS):
        z = z - step * field_eval(problem, z)
        v_next = float((z - root) @ p @ (z - root))
        if not v_next <= v_prev * (1.0 + 1e-10) + 1e-300:
            return {"gamma": float(step), "start": start.tolist(),
                    "step_index": k, "v_before": v_prev, "v_after": v_next}
        v_prev = v_next
    return None


def validate_problem(problem: ProblemSpec, schedule: StepSchedule,
                     sigmoid: SigmoidSpec, seed: int = 0,
                     e0_mc_samples: int = DEFAULT_E0_MC_SAMPLES
                     ) -> ValidationReport:
    """Run the full assumption checklist for a problem/schedule/gate triple.

    Covers, exactly once each: B1.1 (noise mean zero), B1.2 (noise mass
    around the origin), B2.1-B2.3 (step-size conditions, delegated to
    :func:`validate_schedule`), B3.1a-B3.1d (Lyapunov certificate shape,
    curvature bound, drift positivity, deterministic descent), B3.2
    (quantitative drift margin outside radius R), B3.3 (stability of the
    scaled linearisation), B3.4 (local linearity of the field), B4.1 (gate
    shape), and B4.2 (positive expected gate increment). E0 is resolved as
    every prediction resolves it, from ``e0_mc_samples`` Monte Carlo pairs
    at ``seed`` when there is no closed form.
    """
    report = ValidationReport()
    rng = substream(seed, VALIDATION_LANE, 0)
    dirs = _directions(problem.dim, N_DIRECTIONS, rng)
    root = problem.root

    # B1.1 -- noise mean zero, empirically.
    samples = problem.noise.sample_block(rng, N_NOISE_SAMPLES)
    means = samples.mean(axis=0)
    stderrs = samples.std(axis=0, ddof=1) / np.sqrt(N_NOISE_SAMPLES)
    standardized = np.abs(means) / np.where(stderrs == 0.0, 1.0, stderrs)
    worst = int(np.argmax(standardized))
    mean_ok = bool(np.all(np.abs(means) <= 4.0 * stderrs + 1e-15))
    report.add(
        "B1.1", PASS if mean_ok else FAIL,
        f"max |sample mean|/stderr = {standardized[worst]:.2f} over "
        f"{N_NOISE_SAMPLES} draws (component {worst})",
        witness=None if mean_ok else {"component": worst, "mean": float(means[worst])})

    # B1.2 -- positive mass on balls around the origin, by construction.
    report.add(
        "B1.2", PASS if problem.noise.conforming else FAIL,
        f"kind={problem.noise.kind!r}: "
        + ("support is a neighbourhood of the origin"
           if problem.noise.conforming else
           "discrete support misses small balls around the origin "
           "(documented non-conforming, unit-test use only)"))

    # B2.1-B2.3 -- schedule conditions.
    report.merge(validate_schedule(schedule))

    # B3.1a -- structural: the certificate is a centered quadratic form
    # with P positive definite (verified at construction), so V(x*) = 0
    # and V > 0 everywhere else.
    p = problem.lyap_matrix
    report.add("B3.1a", PASS, "V(x) = (x-x*)^T P (x-x*), P positive definite")

    # B3.1b -- curvature bound M = largest eigenvalue of the Hessian 2P.
    m_bound = float(np.linalg.eigvalsh(2.0 * p).max())
    report.add("B3.1b", PASS, f"Hessian bound M = {m_bound:.6g}")

    # B3.1c and B3.2 read one drift evaluation per radius.
    radii = CUBIC_RADII if problem.kind == "cubic1d" else RADII
    has_margin = (problem.b32_radius is not None
                  and problem.b32_beta0 is not None)
    b32_radii = []
    if has_margin:
        r0 = float(problem.b32_radius)
        b32_radii = sorted({r0, *[r for r in radii if r >= r0]})
    drift = {r: _drift(problem, p, dirs, r) for r in (*radii, *b32_radii)}

    # B3.1c -- drift positivity phi^T grad V > 0 away from the root.
    worst_val, worst_point = _lowest(
        (points, vals) for points, _, vals in map(drift.get, radii))
    ok = worst_val > 0.0
    report.add(
        "B3.1c", PASS if ok else FAIL,
        f"min phi^T grad V = {worst_val:.6g} over {len(dirs)} directions "
        f"x radii {radii}",
        witness=None if ok else {"x": worst_point.tolist(), "value": worst_val})

    # B3.1d -- deterministic monotone descent of V under any step below
    # gamma(0), simulated on the sampled grid of steps and starts.
    gamma0 = gamma_eval(schedule, 0.0)
    start_radius = max(radii)
    witnesses = (_descent(problem, p, frac * gamma0, root + start_radius * d)
                 for frac in GAMMA_FRACTIONS for d in dirs)
    descent_witness = next((w for w in witnesses if w is not None), None)
    report.add(
        "B3.1d", PASS if descent_witness is None else FAIL,
        f"V non-increasing over {DESCENT_STEPS} deterministic steps, "
        f"gamma* in {tuple(float(f * gamma0) for f in GAMMA_FRACTIONS)}, "
        f"starts at radius {start_radius}",
        witness=descent_witness)

    # B3.2 -- quantitative drift margin outside radius R.
    if not has_margin:
        reason = ("no (R, beta0) supplied"
                  if problem.kind != "cubic1d" else
                  "no (R, beta0) supplied: superlinear field growth beats "
                  "the margin at large radii for any gamma(0) > 0")
        report.add("B3.2", NOT_CHECKED, reason)
    else:
        beta0 = float(problem.b32_beta0)
        trace_term = m_bound * float(np.trace(problem.noise.cov))
        min_margin, min_point = _lowest(
            (points, lhs - 0.5 * gamma0 * (m_bound * np.sum(phi * phi, axis=-1)
                                           + trace_term))
            for points, phi, lhs in map(drift.get, b32_radii))
        ok = min_margin >= beta0
        report.add(
            "B3.2", PASS if ok else FAIL,
            f"min drift margin {min_margin:.6g} vs beta0 = {beta0} on "
            f"radii {tuple(b32_radii)} (gamma(0) = {gamma0:.6g}, M = "
            f"{m_bound:.6g})",
            witness=None if ok else {"x": min_point.tolist(),
                                     "margin": min_margin})

    # B3.3 -- stability of W = I/2 - phi'(x*)/E0 (needs E0 first).
    e0_estimate = e0_error = None
    try:
        e0_estimate = e0_resolve(sigmoid, problem.noise, e0_mc_samples, seed)
    except (ConfigError, NumericError) as err:
        e0_error = err
    if e0_estimate is None:
        report.add("B3.3", NOT_CHECKED, f"E0 unavailable: {e0_error}")
    else:
        with_e0 = f"with E0 = {e0_estimate.value:.6g} ({e0_estimate.method})"
        try:
            _, real_parts, stable = stability_matrix(
                problem.jacobian_at_root, e0_estimate)
        except NumericError as err:
            report.add("B3.3", FAIL, f"no spectrum of I/2 - J/E0 {with_e0}",
                       witness=str(err))
        else:
            report.add(
                "B3.3", PASS if stable else FAIL,
                f"eigenvalue real parts of I/2 - J/E0: "
                f"[{real_parts.min():.6g}, {real_parts.max():.6g}] {with_e0}",
                witness=None if stable else {
                    "real_parts": real_parts.tolist()})

    # B3.4 -- the field is asymptotically linear at the root. A Jacobian
    # that overflows (3c in the cubic's) has no norm and fails.
    jac = problem.jacobian_at_root
    if not np.isfinite(jac).all():
        report.add("B3.4", FAIL, "the Jacobian at the root is not finite",
                   witness={"jacobian": jac.tolist()})
    else:
        jac_norm = float(np.linalg.norm(jac, 2))
        ratios = []
        for r in SHRINK_RADII:
            points = root + r * dirs
            linearized = apply_rows(jac, points - root)
            err = norm_rows(field_eval(problem, points) - linearized)
            ratios.append(float(err.max() / r))
        shrinking = all(b <= a + 1e-12 for a, b in zip(ratios, ratios[1:]))
        small = ratios[-1] <= 0.01 * (1.0 + jac_norm)
        report.add(
            "B3.4", PASS if (shrinking and small) else FAIL,
            f"max ||phi - J (x - x*)||/||x - x*|| over radii "
            f"{SHRINK_RADII}: {[f'{v:.3g}' for v in ratios]}",
            witness=None if (shrinking and small) else {"ratios": ratios})

    # B4.1 -- gate shape: bounded, non-decreasing, positive right limit.
    span = 3.0 * (sigmoid.beta if sigmoid.beta else 1.0)
    probe = np.linspace(-span, span, 513)
    vals = sigmoid_eval(sigmoid, probe)
    non_decreasing = bool(np.all(np.diff(vals) >= -1e-15))
    bounded = bool(np.all(vals >= sigmoid.u_minus - 1e-15)
                   and np.all(vals <= sigmoid.u_plus + 1e-15))
    gate_ok = non_decreasing and bounded and sigmoid.u_plus > 0
    report.add(
        "B4.1", PASS if gate_ok else FAIL,
        f"family={sigmoid.family}: non-decreasing={non_decreasing}, "
        f"bounded in [{sigmoid.u_minus}, {sigmoid.u_plus}]={bounded}, "
        f"u_plus={sigmoid.u_plus} > 0 on a 513-point grid")

    # B4.2 -- positive expected increment under pure noise.
    if e0_estimate is None:
        report.add("B4.2", FAIL, f"E0 estimate rejected: {e0_error}",
                   witness=str(e0_error))
    else:
        report.add(
            "B4.2", PASS,
            f"E0 = {e0_estimate.value:.6g} +/- {e0_estimate.stderr:.2g} "
            f"({e0_estimate.method})")
    return report
