"""Monte Carlo experiments over independent replicates.

A plan fixes the problem, schedule, gate, initial conditions, horizon,
replicate count, master seed, and the checkpoints at which iterates are
recorded. Replicate r draws its noise from the substream
(master_seed, trajectory lane, r), so the result set is a pure function of
the plan: the same bits come back whether replicates run serially, across
8 processes, or one at a time.

Statistics on a result set exclude diverged replicates (they are counted,
and callers decide how many are tolerable). The normality check compares
the empirical covariance of sqrt(t) (x_t - x*) against a predicted V in
Frobenius distance and the Mahalanobis-squared sample against the
chi-square law with dim degrees of freedom via the Kolmogorov-Smirnov
sup-distance, with the asymptotic 1% band 1.63/sqrt(n_replicates).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ._rowops import norm_rows
from .asymptotics import AsymptoticPrediction
from .core import (DEFAULT_DIVERGENCE_BOUND, NOISE_CHUNK, ComparatorConfig,
                   InitialConditions, _simulate)
from .errors import ConfigError, NumericError
from .noise import NoiseModel
from .problems import ProblemSpec
from .rng import COMPARATOR_LANE, TRAJECTORY_LANE, substream
from .schedules import (DEFAULT_E0_MC_SAMPLES, E0Estimate, SigmoidSpec,
                        StepSchedule, e0_resolve)

DEFAULT_COV_TOL = 0.15
DEFAULT_KS_SCALE = 1.63

#: ``coupling_gap`` calls the gap decreasing once its 90% quantile has
#: dropped to this fraction of its first-checkpoint value.
COUPLING_DROP_FACTOR = 0.5

#: Bytes of noise one tile of replicates may hold: ``_run_block`` runs a
#: worker's replicates in tiles of streams x tile x min(NOISE_CHUNK,
#: horizon) x dim doubles at most, streams being 2 with independent
#: comparator noise and 1 otherwise. Tiling changes no bit.
NOISE_TILE_BYTES = 64 * 2**20


def default_checkpoints(horizon: int) -> tuple:
    """Powers of ten up to the horizon, plus the horizon itself."""
    points = [10**k for k in range(1, 19) if 10**k <= horizon]
    if not points or points[-1] != horizon:
        points.append(horizon)
    return tuple(points)


@dataclass(frozen=True, eq=False)
class ExperimentPlan:
    problem: ProblemSpec
    schedule: StepSchedule
    sigmoid: SigmoidSpec
    init: InitialConditions
    horizon: int = 10_000
    n_replicates: int = 100
    master_seed: int = 0
    checkpoints: tuple = ()
    couple_comparator: bool = False
    comparator_noise: str = "shared"  # or "independent" (negative control)
    divergence_bound: float = DEFAULT_DIVERGENCE_BOUND
    e0_mc_samples: int = DEFAULT_E0_MC_SAMPLES

    def __post_init__(self):
        if self.horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {self.horizon}")
        if self.n_replicates < 2:
            raise ConfigError(
                f"n_replicates must be >= 2, got {self.n_replicates}")
        if not 0 <= int(self.master_seed) < 2**64:
            raise ConfigError(f"master_seed must be a u64, got {self.master_seed}")
        checkpoints = tuple(int(t) for t in self.checkpoints)
        if not checkpoints:
            checkpoints = default_checkpoints(self.horizon)
        if sorted(set(checkpoints)) != list(checkpoints):
            raise ConfigError("checkpoints must be strictly increasing")
        if checkpoints[0] < 1 or checkpoints[-1] > self.horizon:
            raise ConfigError(
                f"checkpoints must lie in [1, horizon={self.horizon}]")
        object.__setattr__(self, "checkpoints", checkpoints)
        if self.comparator_noise not in ("shared", "independent"):
            raise ConfigError(
                f"comparator_noise must be 'shared' or 'independent', "
                f"got {self.comparator_noise!r}")
        if not self.divergence_bound > 0:
            raise ConfigError(
                f"divergence_bound must be > 0, got {self.divergence_bound}")
        if self.e0_mc_samples < 2:
            raise ConfigError(
                f"e0_mc_samples must be >= 2, got {self.e0_mc_samples}")
        if self.init.x0.shape[0] != self.problem.dim:
            raise ConfigError(
                f"x0 dimension {self.init.x0.shape[0]} does not match problem "
                f"dim {self.problem.dim}")


@dataclass(frozen=True, eq=False)
class ReplicateSet:
    """Checkpointed iterates of every replicate; row r always derives from
    substream (master_seed, r) regardless of scheduling."""
    plan: ExperimentPlan
    e0: E0Estimate
    ts: np.ndarray                # (checkpoints,)
    x: np.ndarray                 # (checkpoints, replicates, dim)
    s: np.ndarray                 # (checkpoints, replicates)
    z: np.ndarray | None          # comparator iterates, if coupled
    diverged_at: np.ndarray       # (replicates,), -1 where none

    @property
    def diverged(self) -> np.ndarray:
        return self.diverged_at >= 0

    @property
    def n_replicates(self) -> int:
        return self.diverged_at.shape[0]

    @property
    def diverged_fraction(self) -> float:
        return float(self.diverged.mean())

    def slot(self, t: int | None = None) -> int:
        if t is None:
            return len(self.ts) - 1
        matches = np.nonzero(self.ts == int(t))[0]
        if matches.size == 0:
            raise KeyError(f"t={t} is not a recorded checkpoint")
        return int(matches[0])


def resolve_e0(plan: ExperimentPlan) -> E0Estimate:
    """The plan's E0: closed form when available, otherwise seeded Monte
    Carlo (see :func:`adaptix.schedules.e0_resolve`)."""
    return e0_resolve(plan.sigmoid, plan.problem.noise, plan.e0_mc_samples,
                      plan.master_seed)


def _records(plan: ExperimentPlan, n_rep: int):
    """Empty (x, s, z, diverged_at) arrays for ``n_rep`` replicates."""
    shape = (len(plan.checkpoints), n_rep)
    dim = plan.problem.dim
    z = np.empty(shape + (dim,)) if plan.couple_comparator else None
    return (np.empty(shape + (dim,)), np.empty(shape), z,
            np.empty(n_rep, dtype=np.int64))


def _store(out, rows: slice, piece) -> None:
    """Copy the records ``piece`` into replicates ``rows`` of ``out``."""
    x, s, z, diverged_at = out
    x[:, rows] = piece[0]
    s[:, rows] = piece[1]
    if z is not None:
        z[:, rows] = piece[2]
    diverged_at[rows] = piece[3]


def _run_block(plan: ExperimentPlan, e0_value: float, lo: int, hi: int,
               out=None):
    """Replicates ``lo`` to ``hi - 1``, simulated a tile at a time; fills
    ``out`` (records of ``hi - lo`` replicates, made here if None) and
    returns it. Substreams are made per tile, so neither the noise nor
    the generators of a block grow with its size."""
    if out is None:
        out = _records(plan, hi - lo)
    # as many replicates as keep one noise block per stream in the budget
    independent = plan.comparator_noise == "independent"
    streams = 2 if plan.couple_comparator and independent else 1
    per_replicate = (streams * min(NOISE_CHUNK, plan.horizon)
                     * plan.problem.dim * 8)
    tile = max(1, NOISE_TILE_BYTES // per_replicate)
    alpha = plan.problem.jacobian_at_root if plan.couple_comparator else None
    for start in range(lo, hi, tile):
        stop = min(start + tile, hi)
        rngs = [substream(plan.master_seed, TRAJECTORY_LANE, r)
                for r in range(start, stop)]
        comparator = None
        if plan.couple_comparator:
            comp_rngs = None
            if independent:
                comp_rngs = [substream(plan.master_seed, COMPARATOR_LANE, r)
                             for r in range(start, stop)]
            comparator = ComparatorConfig(alpha=alpha, e0=e0_value,
                                          rngs=comp_rngs)
        res = _simulate(plan.problem, plan.init, plan.schedule, plan.sigmoid,
                        plan.horizon, rngs, plan.checkpoints,
                        comparator=comparator,
                        divergence_bound=plan.divergence_bound)
        _store(out, slice(start - lo, stop - lo),
               (res.x, res.s, res.z, res.diverged_at))
    return out


def allocate_records(plan: ExperimentPlan):
    """Empty (x, s, z, diverged_at) records of every replicate of ``plan``,
    for :func:`run_replicates` to fill. A replicate count whose records
    numpy cannot allocate raises ConfigError."""
    n = plan.n_replicates
    try:
        return _records(plan, n)
    except (ValueError, MemoryError):
        per_replicate = len(plan.checkpoints) * (
            plan.problem.dim * (2 if plan.couple_comparator else 1) + 1) + 1
        raise ConfigError(
            f"experiment.n_replicates = {n} needs {n * per_replicate * 8} "
            "bytes of replicate records, more than can be allocated"
        ) from None


def run_replicates(plan: ExperimentPlan, workers: int = 1,
                   records=None) -> ReplicateSet:
    """Execute the plan; the result is bit-identical for any ``workers``.

    The result fills ``records`` from :func:`allocate_records`. Without
    them they are allocated first, before E0 is resolved or any stream is
    made. At most one process per block, and no more blocks than
    replicates or CPUs this process may run on: the pool forks all its
    workers up front. The pool (and with it multiprocessing) is imported
    only to fork one.
    """
    n = plan.n_replicates
    out = allocate_records(plan) if records is None else records
    e0 = resolve_e0(plan)
    n_blocks = max(1, min(int(workers), n, len(os.sched_getaffinity(0))))
    base, extra = divmod(n, n_blocks)
    bounds = []
    lo = 0
    for b in range(n_blocks):
        hi = lo + base + (1 if b < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    if n_blocks == 1:
        _run_block(plan, e0.value, 0, n, out)
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=n_blocks) as pool:
            futures = [pool.submit(_run_block, plan, e0.value, lo, hi)
                       for lo, hi in bounds]
            # drop each piece once it is copied
            for lo, hi in bounds:
                _store(out, slice(lo, hi), futures.pop(0).result())
    x, s, z, diverged_at = out
    return ReplicateSet(plan=plan, e0=e0,
                        ts=np.asarray(plan.checkpoints, dtype=np.int64),
                        x=x, s=s, z=z, diverged_at=diverged_at)


def _alive_mask(rset: ReplicateSet) -> np.ndarray:
    ok = ~rset.diverged
    if not ok.any():
        raise ValueError("every replicate diverged; no statistics available")
    return ok


@dataclass(frozen=True)
class ConvergenceSummary:
    """Error-norm quantiles per checkpoint, plus a trend flag.

    ``decreasing`` compares the median error at the first and last
    checkpoints; it is None when only one checkpoint was recorded.
    """
    rows: list
    decreasing: bool | None


def convergence_summary(rset: ReplicateSet) -> ConvergenceSummary:
    """Per-checkpoint 50/90/99% quantiles of the error norm ||x_t - x*||."""
    ok = _alive_mask(rset)
    root = rset.plan.problem.root
    rows = []
    for i, t in enumerate(rset.ts):
        err = norm_rows(rset.x[i][ok] - root)
        rows.append({
            "t": int(t),
            "quantile_50": float(np.quantile(err, 0.50)),
            "quantile_90": float(np.quantile(err, 0.90)),
            "quantile_99": float(np.quantile(err, 0.99)),
        })
    decreasing = None
    if len(rows) >= 2:
        decreasing = rows[-1]["quantile_50"] < rows[0]["quantile_50"]
    return ConvergenceSummary(rows=rows, decreasing=decreasing)


def step_counter_drift(rset: ReplicateSet) -> list[dict]:
    """Per-checkpoint mean and sd of s_t / t, with relative deviation from
    the engine's E0."""
    ok = _alive_mask(rset)
    e0 = rset.e0.value
    rows = []
    for i, t in enumerate(rset.ts):
        ratio = rset.s[i][ok] / float(t)
        mean = float(ratio.mean())
        sd = float(ratio.std(ddof=1)) if ratio.size > 1 else 0.0
        rows.append({
            "t": int(t),
            "s_over_t_mean": mean,
            "s_over_t_sd": sd,
            "rel_dev_from_e0": abs(mean - e0) / e0,
        })
    return rows


def _ks_distance(sample: np.ndarray, cdf) -> float:
    """Two-sided Kolmogorov-Smirnov sup-distance to a reference CDF."""
    ordered = np.sort(sample)
    count = ordered.size
    reference = cdf(ordered)
    upper = np.arange(1, count + 1) / count
    lower = np.arange(0, count) / count
    return float(max(np.max(upper - reference), np.max(reference - lower)))


def chi2_cdf(q, dim: int) -> np.ndarray:
    """Chi-square CDF with ``dim`` degrees of freedom, 0 below the support.

    Bit for bit ``scipy.stats.chi2(dim).cdf``, whose body is ``chdtr``, but
    without importing scipy.stats; ``chdtr`` alone is nan below 0.
    """
    from scipy.special import chdtr
    return chdtr(dim, np.maximum(q, 0.0))


def solve_predicted_v(predicted_v: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``V^-1 rhs``; a singular V raises NumericError.

    Whether V is singular depends on its LU factors alone, not on ``rhs``,
    so a check with any right-hand side agrees with ``normality_stats``.
    """
    try:
        return np.linalg.solve(predicted_v, rhs)
    except np.linalg.LinAlgError:
        raise NumericError("predicted covariance V is singular; the "
                           "Mahalanobis test needs it invertible") from None


def normality_stats(rows: np.ndarray, predicted_v: np.ndarray):
    """(empirical covariance, relative Frobenius error, Mahalanobis KS).

    ``rows`` are samples whose limit law is N(0, predicted_v); exposed
    separately so the pipeline can be calibrated on exact normal draws.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    dim = rows.shape[1]
    v = np.atleast_2d(np.asarray(predicted_v, dtype=np.float64))
    # solving first rejects a singular V before dividing by its norm
    solved = solve_predicted_v(v, rows.T)
    empirical = np.atleast_2d(np.cov(rows, rowvar=False, ddof=1))
    rel_err = float(np.linalg.norm(empirical - v, "fro")
                    / np.linalg.norm(v, "fro"))
    mahalanobis_sq = np.sum(rows.T * solved, axis=0)
    ks = _ks_distance(mahalanobis_sq, lambda q: chi2_cdf(q, dim))
    return empirical, rel_err, ks


@dataclass(frozen=True, eq=False)
class NormalityReport:
    t: int
    n_used: int
    empirical_cov: np.ndarray
    cov_rel_err: float
    mahalanobis_ks: float
    ks_band: float
    cov_tol: float
    passed: bool


def normality_check(rset: ReplicateSet, prediction: AsymptoticPrediction,
                    t: int | None = None, cov_tol: float = DEFAULT_COV_TOL,
                    ks_scale: float = DEFAULT_KS_SCALE) -> NormalityReport:
    """Compare sqrt(t) (x_t - x*) at a checkpoint against N(0, V).

    Passes when the empirical covariance is within ``cov_tol`` relative
    Frobenius error of V and the Mahalanobis-squared KS distance stays
    inside ks_scale/sqrt(n_used). Defaults are calibrated for >= 500
    replicates.
    """
    if not prediction.stable or prediction.v is None:
        raise ValueError("normality check needs a stable prediction with V")
    ok = _alive_mask(rset)
    slot = rset.slot(t)
    t_val = int(rset.ts[slot])
    rows = np.sqrt(float(t_val)) * (rset.x[slot][ok] - rset.plan.problem.root)
    if rows.shape[0] < 2:
        raise ValueError("normality check needs at least 2 replicates")
    empirical, rel_err, ks = normality_stats(rows, prediction.v)
    band = ks_scale / np.sqrt(rows.shape[0])
    return NormalityReport(
        t=t_val, n_used=int(rows.shape[0]), empirical_cov=empirical,
        cov_rel_err=rel_err, mahalanobis_ks=ks, ks_band=float(band),
        cov_tol=float(cov_tol), passed=bool(rel_err <= cov_tol and ks <= band))


@dataclass(frozen=True)
class CouplingSummary:
    rows: list
    decreasing: bool
    drop_factor: float


def coupling_gap(rset: ReplicateSet) -> CouplingSummary:
    """Quantiles of sqrt(t) ||x_t - z_t|| per checkpoint.

    ``decreasing`` is True when the 90% quantile at the last checkpoint has
    dropped to at most ``COUPLING_DROP_FACTOR`` times its first-checkpoint
    value -- a margin wide enough that an uncoupled control does not trip
    it.
    """
    if rset.z is None:
        raise ValueError("plan did not couple a comparator")
    ok = _alive_mask(rset)
    rows = []
    for i, t in enumerate(rset.ts):
        gap = np.sqrt(float(t)) * norm_rows(rset.x[i][ok] - rset.z[i][ok])
        rows.append({
            "t": int(t),
            "quantile_50": float(np.quantile(gap, 0.50)),
            "quantile_90": float(np.quantile(gap, 0.90)),
        })
    decreasing = bool(rows[-1]["quantile_90"]
                      <= COUPLING_DROP_FACTOR * rows[0]["quantile_90"])
    return CouplingSummary(rows=rows, decreasing=decreasing,
                           drop_factor=COUPLING_DROP_FACTOR)
