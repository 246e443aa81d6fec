"""The assumption checklist and its report containers.

Assumption checks are identified by short ids (B1.1 through B4.2). Each
check yields a verdict plus enough detail to audit it: sampled grids are
recorded in ``detail``, counterexamples in ``witness``. A check that could
not run (missing inputs) reports ``not_checked`` rather than silently
passing.

:func:`validate_problem` runs the full checklist against a
problem/schedule/gate triple and reports one verdict per check;
:func:`validate_schedule` runs the step-size checks B2.1-B2.3 alone.
Sampling-based checks are evidence, not proof: every verdict records the
grid it looked at and failures carry a witness point. Only the
``validate`` command loads this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._rowops import apply_rows, norm_rows
from .asymptotics import stability_matrix
from .errors import ConfigError, NumericError
from .problems import ProblemSpec, field_eval
from .rng import VALIDATION_LANE, substream
from .schedules import (DEFAULT_E0_MC_SAMPLES, SigmoidSpec, StepSchedule,
                        e0_resolve, gamma_eval, sigmoid_eval)


PASS = "pass"
FAIL = "fail"
NOT_CHECKED = "not_checked"

#: Every id a full problem validation must cover, exactly once.
FULL_CHECK_IDS = (
    "B1.1", "B1.2",
    "B2.1", "B2.2", "B2.3",
    "B3.1a", "B3.1b", "B3.1c", "B3.1d", "B3.2", "B3.3", "B3.4",
    "B4.1", "B4.2",
)


def _recordable(witness):
    """``witness`` with each non-finite float as its string, e.g. "-inf"."""
    if isinstance(witness, dict):
        return {key: _recordable(value) for key, value in witness.items()}
    if isinstance(witness, list):
        return [_recordable(value) for value in witness]
    if isinstance(witness, float) and not math.isfinite(witness):
        return str(witness)
    return witness


@dataclass(frozen=True)
class ValidationItem:
    check_id: str
    verdict: str  # pass | fail | not_checked
    detail: str = ""
    witness: object = None

    def __post_init__(self):
        if self.verdict not in (PASS, FAIL, NOT_CHECKED):
            raise ValueError(f"unknown verdict {self.verdict!r}")


@dataclass
class ValidationReport:
    items: list[ValidationItem] = field(default_factory=list)

    def add(self, check_id, verdict, detail="", witness=None):
        self.items.append(ValidationItem(check_id, verdict, detail,
                                         _recordable(witness)))

    def verdict(self, check_id) -> str:
        return self[check_id].verdict

    def __getitem__(self, check_id) -> ValidationItem:
        for item in self.items:
            if item.check_id == check_id:
                return item
        raise KeyError(check_id)

    def __iter__(self):
        return iter(self.items)

    @property
    def failed_ids(self) -> list[str]:
        return [i.check_id for i in self.items if i.verdict == FAIL]

    @property
    def all_pass(self) -> bool:
        """True when no item failed (not_checked items do not fail)."""
        return not self.failed_ids


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


def validate_schedule(schedule: StepSchedule) -> ValidationReport:
    """Check the step-size conditions B2.1-B2.3.

    B2.1: gamma is non-increasing in s (also spot-checked on a grid).
    B2.2: integral of gamma(s) ds diverges.
    B2.3: integral of gamma(s)^2 ds converges.

    Verdicts are analytic per family; the sampled grid for the
    monotonicity spot check is recorded in the detail string.
    """
    report = ValidationReport()
    grid = np.concatenate([[0.0], np.logspace(-3, 9, 49)])
    vals = gamma_eval(schedule, grid)
    monotone = bool(np.all(np.diff(vals) <= 1e-15))
    report.add(
        "B2.1",
        PASS if monotone else FAIL,
        f"family={schedule.family}; non-increasing on 50-point grid "
        f"s in [0, 1e9]: {monotone}",
    )
    if schedule.family == "reciprocal":
        report.add("B2.2", PASS, "integral of 1/max(s, s_floor) diverges (log tail)")
        report.add("B2.3", PASS, "integral of 1/max(s, s_floor)^2 converges")
    elif schedule.family == "power":
        diverges = schedule.p <= 1.0
        report.add(
            "B2.2",
            PASS if diverges else FAIL,
            f"(1+s)^-p with p={schedule.p}: first integral "
            f"{'diverges' if diverges else 'converges'} (needs p <= 1)",
        )
        square_ok = 2.0 * schedule.p > 1.0
        report.add(
            "B2.3",
            PASS if square_ok else FAIL,
            f"(1+s)^-2p with p={schedule.p}: second integral "
            f"{'converges' if square_ok else 'diverges'} (needs p > 1/2)",
        )
    else:
        report.add("B2.2", PASS, "constant step: first integral diverges")
        report.add(
            "B2.3", FAIL,
            f"constant step gamma0={schedule.gamma0}: integral of gamma^2 "
            "grows linearly",
        )
    return report


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
    report.items.extend(validate_schedule(schedule).items)

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
