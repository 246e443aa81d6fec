"""The adaptive step-size stochastic approximation iteration.

One step, given the previous iterate x, counter s, and previous
measurement y_prev:

    y  = phi(x) + xi               (one fresh noise draw per step)
    x' = x - gamma(s) * y
    s' = (s + u(-y^T y_prev))^+    from the second measurement onward

The first step has no previous measurement; it spends the initial counter
s0 on the step size and installs the staged initial counter s1 as the
counter value at t = 1. Counter updates proper start at t = 2.

The batch kernel can also run the decreasing-step comparator process

    z_t = z_{t-1} - (1/(E0 t)) (alpha z_{t-1} + xi_t),   t = 1, 2, ...

whose coupling to the main run (same noise stream) underlies the
normal-limit diagnostics.

Determinism contract
--------------------
All trajectory code funnels into one kernel, ``_simulate``, whose batch
loop vectorises across replicates using only row-local arithmetic (see
``_rowops``), and noise is drawn in fixed blocks of ``NOISE_CHUNK`` steps
from per-replicate substreams. Consequences: a single run equals row r of
a batch seeded with the same (master seed, replicate) substream bit for
bit, and batch results do not depend on how replicates are grouped into
batches or workers. ``NOISE_CHUNK`` is part of the reproducibility
contract; changing it changes every sampled trajectory.

A batch holds one noise block per stream, refilled in place chunk after
chunk: n_rep x min(NOISE_CHUNK, horizon) x dim doubles, twice with
independent comparator streams, plus one replicate tile of at most
``_NOISE_TILE_BYTES`` that the streams draw into. Bounding the blocks per
worker is the caller's job; ``montecarlo`` runs a large block of
replicates in tiles.

One replicate below ``_PAIRWISE_COLUMNS`` dims without a comparator runs
on a float lane, its state a tuple of floats where a one-row array costs
several times the arithmetic in numpy dispatch. Its layer functions are
the batch loop's, each in its float form, which repeats the batch
operations in their order, or else its array form; so its bits are the
batch row's. The two routes check each other in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, sub

import numpy as np

from ._rowops import _PAIRWISE_COLUMNS, ColumnSpans, apply_rows, dot_rows
from .config import DEFAULT_DIVERGENCE_BOUND, InitialConditions
from .errors import DivergedTrajectoryError
from .problems import ProblemSpec, field_eval
from .rng import as_generator
from .schedules import SigmoidSpec, StepSchedule, gamma_eval, sigmoid_eval

#: Noise block length for every trajectory path (reproducibility contract).
NOISE_CHUNK = 1024

#: Bytes of the replicate tile ``_noise_blocks`` draws into before storing
#: a chunk's noise: a few replicates, so the tile stays in cache.
_NOISE_TILE_BYTES = 128 * 2**10

_FLOAT_MAX = float(np.finfo(np.float64).max)


@dataclass
class Trajectory:
    """Recorded states as columns, one row per recorded time, in time
    order; the last row is the final state. ``y`` holds the measurement
    that produced each row (zeros at t = 0)."""
    t: np.ndarray                   # (n,) int64
    x: np.ndarray                   # (n, dim)
    s: np.ndarray                   # (n,)
    y: np.ndarray                   # (n, dim)


@dataclass(frozen=True)
class ComparatorConfig:
    """Comparator drift and step scale; ``rngs`` None means the comparator
    replays the main run's noise (coupled), otherwise it draws from the
    given independent streams."""
    alpha: np.ndarray
    e0: float
    rngs: list | None = None


@dataclass
class SimResult:
    ts: np.ndarray              # recorded times, ascending
    x: np.ndarray               # (checkpoints, replicates, dim)
    s: np.ndarray               # (checkpoints, replicates)
    y: np.ndarray               # (checkpoints, replicates, dim)
    z: np.ndarray | None        # comparator iterates, same layout as x
    diverged_at: np.ndarray     # step of divergence per replicate, -1 if none


def _noise_blocks(noise, rngs: list, block: np.ndarray,
                  tile: np.ndarray) -> np.ndarray:
    """Fill ``block``, shaped (span, dim, n_rep), with the next ``span``
    noise vectors of each stream; returns it as a (span, n_rep, dim) view.

    The replicate axis is innermost, so step k's (n_rep, dim) slice is one
    column-major block, the layout ``_rowops`` gives a large batch's state,
    and adding it runs one inner loop per column, not one per replicate. A
    single replicate's slice is one contiguous row. The kernel passes the
    leading ``span`` steps of one buffer it reuses for every chunk, which
    stay C-contiguous, so a short last chunk keeps the same layout.

    Each stream draws its chunk into a row of ``tile``, a C-contiguous
    (replicates, >= span, dim) buffer, and each full or last tile goes into
    ``block`` in one transposed copy: that writes a run of replicates per
    cache line, where storing one replicate at a time writes a single
    double in each line it touches.
    """
    span = block.shape[0]
    width = tile.shape[0]
    for lo in range(0, len(rngs), width):
        part = rngs[lo:lo + width]
        for i, rng in enumerate(part):
            noise.sample_block(rng, span, out=tile[i, :span])
        block[:, :, lo:lo + len(part)] = \
            tile[:len(part), :span].transpose(1, 2, 0)
    return block.transpose(0, 2, 1)


def _lane_takes(problem: ProblemSpec, n_rep: int, comparator) -> bool:
    """Whether ``_simulate`` runs this plan on the float lane: one
    replicate, no comparator, and a dim at which the float ``dot_rows``
    sums in numpy's order. Each layer picks its own form on the lane."""
    return (n_rep == 1 and comparator is None
            and problem.dim < _PAIRWISE_COLUMNS)


def _lane(problem: ProblemSpec, init: InitialConditions,
          schedule: StepSchedule, sigmoid: SigmoidSpec, horizon: int, rng,
          ts: np.ndarray, slot: int, bound_sq: float, x_rec: np.ndarray,
          s_rec: np.ndarray, y_rec: np.ndarray) -> int:
    """The batch loop's step for one replicate, on Python floats.

    x and y_prev are tuples and s a float; each layer is called through
    this module once per step, as the batch loop calls it, and takes its
    float form where it has one. Records into slots ``slot`` on, once per
    noise chunk, so at most a chunk of records is held as Python objects;
    freezes a diverged state as the batch loop does and returns its step,
    or -1.
    """
    x = tuple(init.x0.tolist())
    s = float(init.s0)
    s1 = float(init.s1)
    y_prev = (0.0,) * problem.dim
    n_slots = ts.size
    mark = ts.item(slot) if slot < n_slots else -1
    # x, s and y_prev of the marks passed in this chunk, x and y_prev
    # flattened; stored at its end
    xs, ss, ys = [], [], []
    t = 1
    while t <= horizon:
        span = min(NOISE_CHUNK, horizon - t + 1)
        xi = problem.noise.sample_block(rng, span).tolist()
        for tk, xi_k in enumerate(xi, t):
            y = tuple(map(add, field_eval(problem, x), xi_k))
            gamma = gamma_eval(schedule, s)
            x_new = tuple(map(sub, x, map(gamma.__mul__, y)))
            ok = dot_rows(x_new, x_new) <= bound_sq
            if tk == 1:
                s_new = s1
            else:
                s_new = sigmoid_eval(sigmoid, -dot_rows(y, y_prev)) + s
                # np.maximum(s_new, 0.0): +0.0 for -0.0, and NaN stays
                if s_new <= 0.0:
                    s_new = 0.0
            if not ok:
                _store_records(slot, xs, ss, ys, x_rec, s_rec, y_rec)
                x_rec[slot:, 0] = x
                s_rec[slot:, 0] = s
                y_rec[slot:, 0] = y_prev
                return tk
            x, s, y_prev = x_new, s_new, y
            if tk == mark:
                xs += x
                ss.append(s)
                ys += y_prev
                slot += 1
                mark = ts.item(slot) if slot < n_slots else -1
        _store_records(slot, xs, ss, ys, x_rec, s_rec, y_rec)
        t += span
    return -1


def _store_records(end: int, xs: list, ss: list, ys: list, x_rec: np.ndarray,
                   s_rec: np.ndarray, y_rec: np.ndarray) -> None:
    """Store the lane's pending records, which fill the slots up to
    ``end``, with one slice assignment per array, and empty the lists.
    ``xs`` and ``ys`` hold the states flattened: numpy converts a flat list
    of floats about twice as fast as a list of tuples."""
    if ss:
        lo = end - len(ss)
        dim = x_rec.shape[2]
        x_rec[lo:end, 0] = np.reshape(xs, (-1, dim))
        s_rec[lo:end, 0] = ss
        y_rec[lo:end, 0] = np.reshape(ys, (-1, dim))
        xs.clear()
        ss.clear()
        ys.clear()


def _simulate(problem: ProblemSpec, init: InitialConditions,
              schedule: StepSchedule, sigmoid: SigmoidSpec, horizon: int,
              rngs: list, record_ts, comparator: ComparatorConfig | None = None,
              divergence_bound: float = DEFAULT_DIVERGENCE_BOUND) -> SimResult:
    """The kernel: all replicates advance in lockstep (one replicate on
    the float lane when ``_lane_takes`` the plan).

    A replicate whose next iterate would exceed the divergence guard is
    frozen at its last finite state (recorded checkpoints from then on
    repeat that state) and marked in ``diverged_at``. When a comparator is
    configured it consumes exactly the noise vector of the same step,
    either shared with the main run or from its own streams.

    ``record_ts`` must be strictly increasing within [0, horizon], as
    ``_stride_ts`` and a plan's checkpoints are; it is not re-sorted.
    """
    n_rep = len(rngs)
    dim = problem.dim
    horizon = int(horizon)
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    ts = np.array(record_ts, dtype=np.int64)

    x = np.tile(init.x0, (n_rep, 1))
    s = np.full(n_rep, float(init.s0))
    y_prev = np.zeros((n_rep, dim))
    alive = np.ones(n_rep, dtype=bool)
    n_alive = n_rep
    diverged_at = np.full(n_rep, -1, dtype=np.int64)
    # ``norm_sq <= bound_sq`` is False for NaN and inf norms, so the one
    # comparison also checks finiteness. A bound whose square is not a
    # finite float (above 1.3e154, infinite or NaN) leaves finiteness as
    # the only check, which the largest float gives.
    bound = float(divergence_bound)
    bound_sq = bound * bound
    if not bound_sq <= _FLOAT_MAX:
        bound_sq = _FLOAT_MAX

    n_slots = ts.size
    x_rec = np.zeros((n_slots, n_rep, dim))
    s_rec = np.zeros((n_slots, n_rep))
    y_rec = np.zeros((n_slots, n_rep, dim))
    z = z_rec = None
    if comparator is not None:
        alpha = ColumnSpans(comparator.alpha)
        z = np.tile(init.x0, (n_rep, 1))
        z_rec = np.zeros((n_slots, n_rep, dim))

    # ``slot`` is a cursor into the sorted record times and ``mark`` the
    # time it points at, read when a record is taken; past the last one it
    # is -1, which no step reaches
    slot = 0
    if n_slots and ts[0] == 0:
        x_rec[0] = x
        s_rec[0] = s
        if z is not None:
            z_rec[0] = z
        slot = 1
    # the divergence guard catches every overflow and NaN, so numpy need
    # not warn about them, on the lane or in the batch loop
    with np.errstate(over="ignore", invalid="ignore"):
        if _lane_takes(problem, n_rep, comparator):
            diverged_at[0] = _lane(problem, init, schedule, sigmoid, horizon,
                                   rngs[0], ts, slot, bound_sq, x_rec, s_rec,
                                   y_rec)
            return SimResult(ts=ts, x=x_rec, s=s_rec, y=y_rec, z=None,
                             diverged_at=diverged_at)
        mark = ts.item(slot) if slot < n_slots else -1
        noise = problem.noise
        # one noise buffer per stream, refilled in place for every chunk, so
        # a batch holds one block of noise per stream and never two
        chunk = min(NOISE_CHUNK, horizon)
        buf = np.empty((chunk, dim, n_rep))
        buf_z = None
        if comparator is not None and comparator.rngs is not None:
            buf_z = np.empty((chunk, dim, n_rep))
        width = _NOISE_TILE_BYTES // (8 * dim * max(chunk, 1))
        tile = np.empty((max(1, min(n_rep, width)), chunk, dim))
        t = 1
        while t <= horizon and (n_alive or comparator is not None):
            span = min(NOISE_CHUNK, horizon - t + 1)
            xi = _noise_blocks(noise, rngs, buf[:span], tile)
            xi_z = None
            if buf_z is not None:
                xi_z = _noise_blocks(noise, comparator.rngs, buf_z[:span],
                                     tile)
            for k in range(span):
                tk = t + k
                xi_k = xi[k]
                # field_eval and sigmoid_eval return fresh arrays, so updating
                # y and s_new in place touches no state
                y = field_eval(problem, x)
                y += xi_k
                x_new = gamma_eval(schedule, s)[:, None] * y
                np.subtract(x, x_new, out=x_new)
                ok = dot_rows(x_new, x_new) <= bound_sq
                if tk == 1:
                    s_new = np.full(n_rep, float(init.s1))
                else:
                    s_new = sigmoid_eval(sigmoid, -dot_rows(y, y_prev))
                    s_new += s
                    np.maximum(s_new, 0.0, out=s_new)
                if n_alive == n_rep and ok.all():
                    x, s, y_prev = x_new, s_new, y
                else:
                    # freeze path: a dead replicate keeps its last finite state
                    advance = alive & ok
                    newly_dead = alive & ~ok
                    x = np.where(advance[:, None], x_new, x)
                    s = np.where(advance, s_new, s)
                    y_prev = np.where(advance[:, None], y, y_prev)
                    died = int(np.count_nonzero(newly_dead))
                    if died:
                        diverged_at[newly_dead] = tk
                        alive &= ok
                        n_alive -= died
                if comparator is not None:
                    zxi = xi_k if xi_z is None else xi_z[k]
                    dz = apply_rows(alpha, z)
                    dz += zxi
                    dz *= 1.0 / (comparator.e0 * tk)
                    z = np.subtract(z, dz, out=dz)
                if tk == mark:
                    x_rec[slot] = x
                    s_rec[slot] = s
                    y_rec[slot] = y_prev
                    if z is not None:
                        z_rec[slot] = z
                    slot += 1
                    mark = ts.item(slot) if slot < n_slots else -1
                if not n_alive and comparator is None:
                    # every replicate is frozen: later slots repeat this state
                    x_rec[slot:] = x
                    s_rec[slot:] = s
                    y_rec[slot:] = y_prev
                    break
            t += span
    return SimResult(ts=ts, x=x_rec, s=s_rec, y=y_rec, z=z_rec,
                     diverged_at=diverged_at)


def _stride_ts(horizon: int, record_stride: int) -> np.ndarray:
    if record_stride < 1:
        raise ValueError("record_stride must be >= 1")
    # a negative horizon is left for the kernel to reject
    return np.append(np.arange(0, horizon, record_stride, dtype=np.int64),
                     horizon)


def run_trajectory(problem: ProblemSpec, init: InitialConditions,
                   schedule: StepSchedule, sigmoid: SigmoidSpec, horizon: int,
                   seed, record_stride: int = 1,
                   divergence_bound: float = DEFAULT_DIVERGENCE_BOUND) -> Trajectory:
    """Simulate one trajectory, drawing one noise vector per step.

    Records every ``record_stride``-th state plus the final one. An iterate
    crossing ``divergence_bound`` in norm raises DivergedTrajectoryError
    carrying the last finite state and the truncated recording.
    """
    rng = as_generator(seed)
    res = _simulate(problem, init, schedule, sigmoid, horizon, [rng],
                    _stride_ts(horizon, record_stride),
                    divergence_bound=divergence_bound)
    t_div = int(res.diverged_at[0])
    # a diverged run keeps its rows up to t_div - 1; later rows repeat them,
    # and the horizon is always recorded, so the last row is its final state
    n = res.ts.size if t_div < 0 else int(
        np.searchsorted(res.ts, t_div - 1, side="right"))
    trajectory = Trajectory(t=res.ts[:n], x=res.x[:n, 0], s=res.s[:n, 0],
                            y=res.y[:n, 0])
    if t_div >= 0:
        # the last slot holds the frozen state of t_div - 1, which may lie
        # off the stride grid
        last = Trajectory(t=np.array([t_div - 1], dtype=np.int64),
                          x=res.x[-1:, 0], s=res.s[-1:, 0], y=res.y[-1:, 0])
        raise DivergedTrajectoryError(
            f"iterate norm crossed {divergence_bound:.3g} at step {t_div}",
            t=t_div, trajectory=trajectory, last=last)
    return trajectory
