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
import pickle
import struct
from dataclasses import dataclass
from math import prod
from mmap import mmap

import numpy as np

from ._rowops import norm_rows
from .asymptotics import AsymptoticPrediction
from .config import (DEFAULT_COV_TOL, DEFAULT_KS_SCALE, ExperimentPlan,
                     resolve_e0)
from .core import NOISE_CHUNK, ComparatorConfig, _simulate
from .errors import ConfigError, NumericError
from .rng import COMPARATOR_LANE, TRAJECTORY_LANE, substream
from .schedules import E0Estimate

#: ``coupling_gap`` calls the gap decreasing once its 90% quantile has
#: dropped to this fraction of its first-checkpoint value.
COUPLING_DROP_FACTOR = 0.5

#: Bytes of noise one tile of replicates may hold: ``_run_block`` runs a
#: worker's replicates in tiles of streams x tile x min(NOISE_CHUNK,
#: horizon) x dim doubles at most, streams being 2 with independent
#: comparator noise and 1 otherwise. Tiling changes no bit.
NOISE_TILE_BYTES = 64 * 2**20


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


class _Worker:
    """A forked child that runs ``work()`` and sends its outcome, pickled
    as (True, result) or (False, exception), to this process through a
    pipe. The child first closes the inherited file descriptors ``close``;
    ``name`` names it in the error of a child that cannot be started or
    that ends without a report.
    """

    def __init__(self, name: str, work, close=()):
        self.name = name
        self.outcome = None
        fds = ()
        try:
            pipe, report = fds = os.pipe()
            self.pid = os.fork()
        except OSError as exc:
            for fd in fds:
                os.close(fd)
            raise NumericError(f"{name} could not be started "
                               f"({exc.strerror})") from None
        if self.pid == 0:
            code = 1
            try:
                for fd in (pipe, *close):
                    os.close(fd)
                try:
                    outcome = (True, work())
                except BaseException as exc:  # re-raised in the parent
                    outcome = (False, exc)
                with open(report, "wb") as out:
                    out.write(pickle.dumps(outcome))
                code = 0
            finally:
                os._exit(code)
        os.close(report)
        self.pipe = pipe

    def join(self) -> None:
        """Read the report to EOF and reap the child; once only."""
        if self.outcome is not None:
            return
        with open(self.pipe, "rb") as pipe:
            report = pipe.read()
        status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        if report:
            self.outcome = pickle.loads(report)
            return
        how = (f"killed by signal {-status}" if status < 0
               else f"exit status {status}")
        self.outcome = (False, NumericError(
            f"{self.name} ended without a report ({how})"))

    def result(self):
        """The child's result, or its exception raised here."""
        self.join()
        ok, value = self.outcome
        if not ok:
            raise value
        return value


def _run_block(plan: ExperimentPlan, e0_value: float, lo: int, hi: int,
               out) -> None:
    """Replicates ``lo`` to ``hi - 1``, simulated a tile at a time into the
    same rows of the records ``out``. Substreams are made per tile, so
    neither the noise nor the generators of a block grow with its size."""
    x, s, z, diverged_at = out
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
        rows = slice(start, stop)
        x[:, rows] = res.x
        s[:, rows] = res.s
        if z is not None:
            z[:, rows] = res.z
        diverged_at[rows] = res.diverged_at


def _released_block(plan: ExperimentPlan, go: int, lo: int, hi: int, out):
    """A block worker's work: wait for E0 on the pipe ``go``, then run the
    block with it; at EOF, which is a refusal, simulate nothing."""
    e0 = os.read(go, 8)
    if e0:
        _run_block(plan, struct.unpack("d", e0)[0], lo, hi, out)


def allocate_records(plan: ExperimentPlan):
    """Empty (x, s, z, diverged_at) records of every replicate of ``plan``
    for :func:`run_replicates` to fill, in one anonymous shared mapping
    that forked workers write into. Records that cannot be mapped raise
    ConfigError."""
    n, checkpoints = plan.n_replicates, len(plan.checkpoints)
    vectors = (checkpoints, n, plan.problem.dim)
    shapes = [vectors, (checkpoints, n),
              vectors if plan.couple_comparator else None, (n,)]
    sizes = [0 if shape is None else prod(shape) for shape in shapes]
    try:
        buffer = mmap(-1, 8 * sum(sizes))
    except (OverflowError, OSError):
        raise ConfigError(
            f"experiment.n_replicates = {n} needs {8 * sum(sizes)} "
            "bytes of replicate records, more than can be allocated"
        ) from None
    records, offset = [], 0
    for shape, size, dtype in zip(shapes, sizes, ("f8", "f8", "f8", "i8")):
        records.append(None if shape is None else np.ndarray(
            shape, dtype, buffer=buffer, offset=offset))
        offset += 8 * size
    return tuple(records)


def block_count(plan: ExperimentPlan, workers: int) -> int:
    """The blocks :func:`run_replicates` splits ``plan`` into at
    ``workers``: at most one per worker, replicate and CPU this process may
    run on (every CPU of the machine where the OS cannot tell, as on
    macOS), and one where the OS cannot fork, as on Windows. More than one
    run in forked workers, one process per block."""
    if not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(int(workers), plan.n_replicates, cpus))


def run_replicates(plan: ExperimentPlan, workers: int = 1,
                   meanwhile=None) -> ReplicateSet:
    """Execute the plan; the result is bit-identical for any ``workers``.

    The records are allocated first, before ``meanwhile`` runs, E0 is
    resolved or any stream is made. The blocks are those of
    :func:`block_count`.

    ``meanwhile(get_e0)`` runs in this process before any replicate is
    simulated; ``get_e0``, a callable without arguments, returns the E0
    that the blocks simulate with. ``meanwhile`` returns None or the work
    to run beside the blocks, a callable without arguments. An exception
    from either ends the run; from the work beside the blocks, once the
    blocks have ended.

    * One block: ``get_e0`` resolves E0 afresh; ``meanwhile`` and then its
      work run first, after which E0 is resolved again for the block.
    * More: right after the allocation, before ``meanwhile`` can import
      anything into this process, one worker is forked to resolve the only
      E0 and one per block, each waiting on a shared "go" pipe. ``get_e0``
      waits for the E0 worker, so ``meanwhile`` runs beside it. Once
      ``meanwhile`` returns, E0 is written to the go pipe once per block,
      which releases the blocks into their rows of the records, and the
      work runs here while they simulate. A refusal closes the go pipe
      unwritten, and the blocks end without simulating. Every worker is
      reaped before the run returns or raises. A worker's exception is
      raised here; a go pipe or a worker the OS refuses, and a worker
      that ends without a report, killed by a signal, raise NumericError.
    """
    n = plan.n_replicates
    out = allocate_records(plan)
    n_blocks = block_count(plan, workers)
    # ceil(n b / n_blocks): block sizes differ by at most one replicate
    edges = [-(-n * b // n_blocks) for b in range(n_blocks + 1)]
    if n_blocks == 1:
        beside = meanwhile and meanwhile(lambda: resolve_e0(plan))
        if beside is not None:
            beside()
        e0 = resolve_e0(plan)
        _run_block(plan, e0.value, 0, n, out)
    else:
        try:
            go, release = os.pipe()
        except OSError as exc:
            raise NumericError("the go pipe of the blocks could not be "
                               f"opened ({exc.strerror})") from None
        forked = []
        try:
            forked.append(_Worker("the E0 worker", lambda: resolve_e0(plan),
                                  close=(go, release)))
            for b, (lo, hi) in enumerate(zip(edges, edges[1:])):
                forked.append(_Worker(
                    f"the worker of block {b + 1} of {n_blocks} (replicates "
                    f"{lo} to {hi - 1})",
                    lambda lo=lo, hi=hi: _released_block(plan, go, lo, hi,
                                                         out),
                    close=(release,)))
            beside = meanwhile and meanwhile(forked[0].result)
            e0 = forked[0].result()
            for _ in range(n_blocks):
                os.write(release, struct.pack("d", e0.value))
            if beside is not None:
                beside()
        finally:
            os.close(release)
            for worker in forked:
                worker.join()
            os.close(go)
        for block in forked[1:]:
            block.result()
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
    without importing scipy.stats; ``chdtr`` alone is nan below 0. It is
    imported here, so commands without a normality test load no
    scipy.special.
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
    # the norms square V's entries; scaled by the power of two at its
    # largest, exactly, a tiny or huge V neither underflows nor overflows
    _, exponent = np.frexp(np.max(np.abs(v)))
    rel_err = float(np.linalg.norm(np.ldexp(empirical - v, -exponent), "fro")
                    / np.linalg.norm(np.ldexp(v, -exponent), "fro"))
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
    """Quantiles of sqrt(t) ||x_t - z_t|| per checkpoint; a comparator
    iterate that is not finite in a surviving replicate raises NumericError.

    ``decreasing`` is True when the 90% quantile at the last checkpoint has
    dropped to at most ``COUPLING_DROP_FACTOR`` times its first-checkpoint
    value -- a margin wide enough that an uncoupled control does not trip
    it.
    """
    if rset.z is None:
        raise ValueError("plan did not couple a comparator")
    ok = _alive_mask(rset)
    # the comparator has no divergence bound: refuse a z that left the floats
    finite = np.isfinite(rset.z[:, ok]).all(axis=2)
    if not finite.all():
        first = int(rset.ts[np.argmin(finite.all(axis=1))])
        raise NumericError(
            f"comparator iterate z is not finite in "
            f"{int((~finite).any(axis=0).sum())} of {int(ok.sum())} "
            f"surviving replicates, first at checkpoint t={first}")
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
