#!/usr/bin/env python3
"""Benchmark of the adaptix CLI: end-to-end metrics and per-layer numbers.

Run from the root of a checkout:

    python3 bench/run.py --workload single_long --seed 3 --seconds 30 --trace 0

Workloads (configs in bench/configs/):

* ``single_long``  -- ``adaptix run``, one replicate for 20 000 steps. Bound
  by per-step Python dispatch; the only workload with a large artifact.
* ``ensemble``     -- ``adaptix replicate --workers 1`` on the README example
  cut to 2000 steps (2000 replicates). The single-process batch baseline.
* ``wide_coupled`` -- ``adaptix replicate --workers 2``: tanh dim 4, ball
  noise, coupled comparator, Monte Carlo E0, 2000 replicates x 1000 steps.

Each workload command runs in about 2 to 3 s, so one invocation times
about ten of them.

``--trace 0`` launches the real CLI (``python -m adaptix``) in child
processes with tracing off. It times ``adaptix predict`` several times
(``setup_s``), then repeats the workload command for ``--seconds`` and
reports the median run's wall time, replicate-steps per second and CPU
time, and the largest peak RSS (see ``end_to_end`` for why). CPU time and
RSS come from ``os.wait4`` on each child, so they cover the child and the
workers it reaped and never mix runs.

Times are reported at a reference host speed. On a VM of a shared host
(measured on a 2-core Xeon VM) each core flips between a fast and a slow
state, up to 2x apart in CPU time too, within fractions of a second as
other tenants come and go, and the share of slow time drifts over minutes,
which no statistic over one 30 s invocation averages out. So while a
child runs, a probe thread pinned to each core the child may use times
fixed pieces of work that do not touch adaptix (``probe_work``), with warm
caches and in thread CPU time so that it leaves out the time the child
holds the core. It idles nine times as long as it works, so it takes a
tenth of the core in any state. The child is pinned to the probed cores:
one for a single process, one per worker for ``--workers 2``. The run's
wall and CPU time are scaled by ``PROBE_REF_S`` over the probe's time.
The raw times are printed in the report beside them. A change to adaptix
moves the scaled times exactly as much as the raw ones; only the host's
own drift is divided out.

``--trace 1`` runs the workload command through ``bench/traced.py``, which
calls ``adaptix.cli.main`` in-process with timing and counting wrappers
around each module's public functions, and reports the per-layer numbers
plus the tracing overhead against untraced runs made beside them.

Every CLI run is checked: the exit code, no traceback on stderr, and the
SHA-256 of every artifact must equal bench/reference.json. The workload seed
``n`` selects CLI seed ``n mod 16``; the reference holds the exit codes and
digests of those 16 seeds (written by bench/record_reference.py); all of
them exit 0. ``wide_coupled`` is also run once at ``--workers 1`` per
invocation, outside the timed runs, and must give the same bytes. A run
that breaks any of this is failed.

Children get ``OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=MKL_NUM_THREADS=1``:
BLAS threads made the integral oracle's time vary twenty-fold between
identical runs on a 2-core machine, and the kernel avoids BLAS, so pinning
changes no bits (the digest check proves it). Artifacts go to a temporary
directory inside the checkout that is removed before exit.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it are a readable
report with each metric's unit and sample count.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
BENCHMARK = ROOT / "BENCHMARK.json"

#: Workload seed n runs the CLI with seed n mod CLI_SEEDS (digests recorded).
CLI_SEEDS = 16
#: ``adaptix predict`` runs per invocation; setup_s is their median.
SETUP_REPEATS = 5
#: A child still running after this many seconds is killed and counted failed.
CHILD_TIMEOUT_S = 60.0
#: Thread-count variables pinned to 1 in every child.
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: The probe idles this many times as long as it has just worked, so that
#: it takes the same share of its core (a tenth) however fast the core is.
PROBE_IDLE_RATIO = 9.0
#: Probe time per piece of work (geometric mean, thread CPU time, caches
#: warm) at the reference speed: about what an idle core of a 2-core Xeon
#: VM measures.
PROBE_REF_S = 3.1e-4


@dataclass(frozen=True)
class Workload:
    name: str
    command: str              # adaptix subcommand
    workers: int | None       # --workers for replicate, None for run

    @property
    def config(self) -> Path:
        return BENCH / "configs" / f"{self.name}.json"

    @property
    def rep_steps(self) -> int:
        """Replicate-steps one run of the command computes."""
        experiment = json.loads(self.config.read_text())["experiment"]
        replicates = (experiment["n_replicates"]
                      if self.command == "replicate" else 1)
        return replicates * experiment["horizon"]


#: Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("single_long", "run", None),
    Workload("ensemble", "replicate", 1),
    Workload("wide_coupled", "replicate", 2),
)}


@dataclass
class Run:
    """One finished child: its measurements and what was wrong with it."""
    label: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    digests: dict
    problems: list = field(default_factory=list)
    #: factor from this run's host speed to the reference speed (SpeedProbe)
    scale: float = 1.0

    @property
    def ok(self) -> bool:
        return not self.problems


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("ADAPTIX_WORKERS", None)
    for name in PINNED_THREADS:
        env[name] = "1"
    return env


def digest_dir(path: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.iterdir()) if p.is_file()}


def run_child(argv: list, label: str, out_dir: Path | None, log_dir: Path,
              expected: dict | None, cores: list | None = None) -> Run:
    """Launch ``argv``, reap it with ``os.wait4`` and check its outputs.

    ``expected`` holds the exit code (``exit``) and the SHA-256 of each
    artifact (``sha256``); the artifacts in ``out_dir`` must match it
    exactly (same names, same bytes). Without it the exit code must be 0.
    With ``cores`` the child is pinned to those cores and a SpeedProbe on
    each sets the run's ``scale``.
    """
    if out_dir is not None:
        shutil.rmtree(out_dir, ignore_errors=True)
    stdout_path = log_dir / f"{label}.stdout"
    stderr_path = log_dir / f"{label}.stderr"
    probes = [SpeedProbe(core) for core in cores or ()]
    for probe in probes:
        probe.start()
    try:
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = spawn_pinned(argv, out, err, cores)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, os.killpg,
                                       (proc.pid, signal.SIGKILL))
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:               # interrupted: take it down
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
                os.waitpid(proc.pid, 0)
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
    finally:
        for probe in probes:
            probe.halt.set()
        for probe in probes:
            probe.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    run = Run(label=label, wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
              peak_rss_mb=usage.ru_maxrss / 1024.0,
              exit_code=proc.returncode,
              digests=digest_dir(out_dir) if out_dir and out_dir.is_dir()
              else {})
    if probes:
        run.scale = PROBE_REF_S / (sum(p.burst_s() for p in probes)
                                   / len(probes))
    stderr = stderr_path.read_text(errors="replace")
    expected_exit = expected["exit"] if expected else 0
    if run.exit_code != expected_exit:
        tail = stderr.strip().splitlines()[-1:] or [""]
        run.problems.append(f"exit code {run.exit_code}, expected "
                            f"{expected_exit}: {tail[0]}")
    if "Traceback" in stderr:
        run.problems.append("traceback on stderr")
    digests = expected["sha256"] if expected else None
    if digests is not None and run.digests != digests:
        wrong = sorted(set(run.digests) ^ set(digests)) + sorted(
            k for k in set(run.digests) & set(digests)
            if run.digests[k] != digests[k])
        run.problems.append(f"artifact digests differ: {', '.join(wrong)}")
    return run


def spawn_pinned(argv: list, out, err, cores: list | None):
    """Start ``argv`` in its own session, with the CPU affinity ``cores``
    (inherited from this thread at fork) if given."""
    own = os.sched_getaffinity(0)
    if cores:
        os.sched_setaffinity(0, cores)
    try:
        return subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdout=out,
                                stderr=err, start_new_session=True)
    finally:
        os.sched_setaffinity(0, own)


def probe_work() -> tuple:
    """The probe's fixed pieces of work, each about 0.5 ms on an idle core.

    They mix the kinds of work adaptix does (interpreter dispatch, numpy
    calls on small arrays and on rows, dicts and strings) because a busy
    host slows each kind by a different factor.
    """
    rng = np.random.default_rng(0)
    rows, step = rng.standard_normal((2000, 2)), rng.standard_normal((2000, 2))
    matrix = np.array([[1.5, 0.0], [0.0, 3.0]])
    record = {f"k{i}": [i, i / 3.0, "x" * (i % 17), {"i": i}]
              for i in range(60)}

    def integer_loop():
        total = 0
        for i in range(8000):
            total += i * i % 7
        return total

    def row_updates():
        x = rows
        for _ in range(15):
            x = np.where(x > 0.0, x - 0.01 * step, x + 0.01 * step)
        return x

    def one_row_recursion():
        x, s, y_prev = np.ones((1, 2)), np.ones(1), np.zeros((1, 2))
        for k in range(25):
            y = x @ matrix.T + rows[k:k + 1]
            x = x - (1.0 / (s + 2.0))[:, None] * y
            turn = np.einsum("ij,ij->i", y, y_prev) < 0.0
            s = np.maximum(s + np.where(turn, 1.0, -1.0), 0.0)
            y_prev = y
        return x

    def json_round_trip():
        return json.loads(json.dumps(record))

    def keyed_sort():
        return sorted(range(3000, 0, -1), key=lambda z: z * 7919 % 3001)

    return (integer_loop, row_updates, one_row_recursion, json_round_trip,
            keyed_sort)


class SpeedProbe(threading.Thread):
    """Measures one core's speed while a child runs on it.

    Pinned to ``core``, it runs each piece of ``probe_work`` twice, to warm
    the caches the child has just used, and times the second run in thread
    CPU time, which leaves out the time the child holds the core but not
    the host slowing the core down. The work is independent of adaptix, so
    its time tracks only the host.
    """

    def __init__(self, core: int):
        super().__init__(daemon=True)
        self.core = core
        self.halt = threading.Event()
        self._work = probe_work()
        self._times = [[] for _ in self._work]

    def run(self):
        os.sched_setaffinity(0, [self.core])    # 0: this thread
        clock = time.thread_time
        while True:
            busy = 0.0
            for piece, times in zip(self._work, self._times):
                start = clock()
                piece()                         # warms the caches
                warm = clock()
                piece()
                end = clock()
                times.append(end - warm)
                busy += end - start
            if self.halt.wait(busy * PROBE_IDLE_RATIO):
                return

    def burst_s(self) -> float:
        """Geometric mean over the pieces of their mean time."""
        logs = [math.log(sum(t) / len(t)) for t in self._times]
        return math.exp(sum(logs) / len(logs))


def cli_argv(workload: Workload, command: str, cli_seed: int, out_dir: Path,
             workers: int | None = None) -> list:
    argv = [command, "--config", str(workload.config), "--out", str(out_dir),
            "--seed", str(cli_seed)]
    if command == "replicate":
        argv += ["--workers", str(workers or workload.workers)]
    return argv


PROBE = """
import json, os, platform, sys
import numpy, scipy
import adaptix.cli
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({
    "adaptix": os.path.dirname(adaptix.cli.__file__),
    "cores": os.cpu_count(),
    "affinity": sorted(os.sched_getaffinity(0)),
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "blas": f"{blas.get('name')} {blas.get('version')}",
    "blas_threads": {k: os.environ.get(k) for k in %r},
}))
""" % (PINNED_THREADS,)


def probe_environment(log_dir: Path) -> dict:
    """Import the stack once in a child (also warms bytecode and file caches)
    and return what the report records about the machine."""
    run = run_child([sys.executable, "-c", PROBE], "probe", None, log_dir,
                    None)
    if not run.ok:
        raise SystemExit(f"bench: environment probe failed: {run.problems}")
    info = json.loads((log_dir / "probe.stdout").read_text())
    if Path(info["adaptix"]).resolve() != (SRC / "adaptix").resolve():
        raise SystemExit(f"bench: imported adaptix from {info['adaptix']}, "
                         f"not from {SRC}")
    return info


def load_reference(workload: Workload, cli_seed: int) -> dict:
    """Expected exit code and digests of ``predict`` and the workload
    command for one CLI seed."""
    ref = json.loads(REFERENCE.read_text())
    return ref["digests"][workload.name][str(cli_seed)]


def metric(value, unit):
    return {"value": value, "unit": unit}


def metric_units(kind: str) -> dict:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, in the order
    BENCHMARK.json lists them."""
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def is_count(unit: str) -> bool:
    """Counts and computed sizes must repeat exactly between runs."""
    return unit in ("count", "bytes")


def end_to_end(workload: Workload, cli_seed: int, seconds: float,
               work: Path, report: list) -> tuple[list, dict]:
    expected = load_reference(workload, cli_seed)
    python = [sys.executable, "-m", "adaptix"]
    out_dir = work / "out"
    cores = sorted(os.sched_getaffinity(0))
    main_cores = cores[:workload.workers or 1]
    setup = [run_child(python + cli_argv(workload, "predict", cli_seed,
                                         out_dir),
                       f"predict{i}", out_dir, work, expected["predict"],
                       cores[:1])
             for i in range(SETUP_REPEATS)]
    timed = []
    start = time.perf_counter()
    # start another run only if it should end inside the measured window
    while not timed or (time.perf_counter() - start) * (len(timed) + 1) \
            / len(timed) <= seconds:
        timed.append(run_child(
            python + cli_argv(workload, workload.command, cli_seed, out_dir),
            f"main{len(timed)}", out_dir, work, expected["main"], main_cores))
    checks = []
    if workload.workers and workload.workers > 1:
        checks.append(run_child(
            python + cli_argv(workload, workload.command, cli_seed, out_dir,
                              workers=1),
            "workers1", out_dir, work, expected["main"]))

    good = [r for r in timed if r.ok] or timed
    setups = [r for r in setup if r.ok] or setup
    # Times are scaled to the reference host speed (see SpeedProbe), and the
    # median run is reported. Peak RSS flips between two allocator layouts
    # from run to run; the largest is what a user must provision.
    wall = [r.wall_s * r.scale for r in good]
    samples = {
        "wall_s": (wall, median),
        "rep_steps_per_s": ([workload.rep_steps / w for w in wall], median),
        "setup_s": ([r.wall_s * r.scale for r in setups], median),
        "cpu_s": ([r.cpu_s * r.scale for r in good], median),
        "peak_rss_mb": ([r.peak_rss_mb for r in good], max),
    }
    metrics = {}
    for name, unit in metric_units("end_to_end").items():
        values, stat = samples[name]
        metrics[name] = metric(stat(values), unit)
        report.append(
            f"  {name:<34} {stat(values):>14.6g} {unit:<6} ({stat.__name__} "
            f"of {len(values)}; median {median(values):.6g}, min "
            f"{min(values):.6g}, max {max(values):.6g})")
    raw = [r.wall_s for r in good]
    scales = [r.scale for r in setup + timed]
    report.append(
        f"  host: speed scale median {median(scales):.6g} (min "
        f"{min(scales):.6g}, max {max(scales):.6g} over {len(scales)} runs; "
        f"reference burst {PROBE_REF_S} s); raw wall_s median "
        f"{median(raw):.6g}, min {min(raw):.6g}, max {max(raw):.6g} s; "
        f"pinned to cores {main_cores}")
    runs = setup + timed + checks
    failed = sum(not r.ok for r in runs)
    report.append(
        f"  {'failed_frac':<34} {failed / len(runs):>14.6g} {'ratio':<6} "
        f"({failed} of {len(runs)} runs: {len(setup)} predict, "
        f"{len(timed)} timed, {len(checks)} worker-invariance)")
    return runs, metrics


def traced_session(workload: Workload, cli_seed: int, expected: dict,
                   work: Path, index: int) -> tuple[list, dict, float]:
    """One traced pass at ``--workers 1`` (every span is in one process),
    plus, for ``replicate``, one at ``--workers 2`` for the parallel
    efficiency. Returns the runs, the layer numbers and the traced wall time
    at the workload's own worker count."""
    out_dir = work / "out"
    report_path = work / "layers.json"
    worker_counts = [1, 2] if workload.command == "replicate" else [1]
    runs, layers, own_wall = [], {}, None
    for workers in worker_counts:
        report_path.unlink(missing_ok=True)
        argv = [sys.executable, str(BENCH / "traced.py"), "--report",
                str(report_path), "--"] + cli_argv(
            workload, workload.command, cli_seed, out_dir, workers=workers)
        run = run_child(argv, f"traced{index}w{workers}", out_dir, work,
                        expected)
        runs.append(run)
        if run.ok:
            numbers = json.loads(report_path.read_text())
            if workers == 1:
                layers = numbers
            else:
                layers["montecarlo.run_replicates_w2_s"] = numbers[
                    "montecarlo.run_replicates_s"]
        if workers == (workload.workers or 1):
            own_wall = run.wall_s
    w1 = layers.get("montecarlo.run_replicates_s", 0.0)
    w2 = layers.setdefault("montecarlo.run_replicates_w2_s", 0.0)
    layers["montecarlo.parallel_eff"] = w1 / (2.0 * w2) if w2 else 0.0
    return runs, layers, own_wall


def per_layer(workload: Workload, cli_seed: int, seconds: float, work: Path,
              report: list) -> tuple[list, dict]:
    expected = load_reference(workload, cli_seed)
    out_dir = work / "out"
    runs, sessions, traced_walls, untraced_walls = [], [], [], []
    start, tried = time.perf_counter(), 0
    # like the timed runs: start a session only if it should end in time.
    # Each session has an untraced run beside it, so that the overhead
    # compares runs made under the same host load.
    while not tried or (time.perf_counter() - start) * (tried + 1) / tried \
            <= seconds:
        untraced = run_child(
            [sys.executable, "-m", "adaptix"] + cli_argv(
                workload, workload.command, cli_seed, out_dir),
            f"untraced{tried}", out_dir, work, expected["main"])
        runs.append(untraced)
        if untraced.ok:
            untraced_walls.append(untraced.wall_s)
        session_runs, layers, own_wall = traced_session(
            workload, cli_seed, expected["main"], work, tried)
        tried += 1
        runs += session_runs
        if all(r.ok for r in session_runs):
            sessions.append(layers)
            traced_walls.append(own_wall)

    units = metric_units("per_layer")
    metrics = {}
    if sessions:
        for name in sessions[0]:
            values = [s[name] for s in sessions]
            if is_count(units[name]):
                if len(set(values)) > 1:
                    runs[-1].problems.append(
                        f"{name} differs between traced runs: {values}")
                metrics[name] = values[0]
            else:
                metrics[name] = median(values)
        traced_wall = median(traced_walls)
    else:
        traced_wall = 0.0
    metrics["trace.wall_s"] = traced_wall
    untraced_wall = median(untraced_walls) if untraced_walls else 0.0
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0
                                      if traced_wall and untraced_wall
                                      else 0.0)
    missing = set(units) - set(metrics)
    for name in sorted(missing):
        metrics[name] = 0.0
    if missing and sessions:
        runs[-1].problems.append(f"traced run reported no {sorted(missing)}")

    for name, unit in units.items():
        source = (f"{len(untraced_walls)} untraced runs"
                  if name == "trace.untraced_wall_s" else
                  f"{len(sessions)} traced sessions")
        kind = "equal in" if is_count(unit) else "median of"
        report.append(f"  {name:<34} {metrics[name]:>14.6g} {unit:<6} "
                      f"({kind} {source})")
    failed = sum(not r.ok for r in runs)
    report.append(f"  tracing overhead: traced wall {traced_wall:.4f} s vs "
                  f"untraced wall {untraced_wall:.4f} s "
                  f"({100.0 * metrics['trace.overhead_frac']:+.1f}%)")
    report.append(f"  failed_frac {failed / len(runs):.6g} "
                  f"({failed} of {len(runs)} runs)")
    return runs, {name: metric(metrics[name], unit)
                  for name, unit in units.items()}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "adaptix" / "cli.py").is_file():
        print(f"bench: no adaptix sources under {SRC}", file=sys.stderr)
        return 2
    for path in (REFERENCE, BENCHMARK):
        if not path.is_file():
            print(f"bench: missing {path}", file=sys.stderr)
            return 2
    workload = WORKLOADS[args.workload]
    cli_seed = args.seed % CLI_SEEDS
    # on SIGTERM, unwind: kill the running child and remove the work dir
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = Path(tempfile.mkdtemp(prefix=".bench-", dir=ROOT))
    try:
        env = probe_environment(work)
        report = [
            f"env: cores={env['cores']} affinity={env['affinity']} "
            f"python={env['python']} numpy={env['numpy']} "
            f"scipy={env['scipy']} blas={env['blas']} "
            f"threads={env['blas_threads']}",
            f"workload {workload.name}: adaptix {workload.command} "
            f"--seed {cli_seed} (workload seed {args.seed})"
            + (f" --workers {workload.workers}" if workload.workers else "")
            + f"; trace={args.trace}",
        ]
        measure = per_layer if args.trace else end_to_end
        runs, metrics = measure(workload, cli_seed, args.seconds, work,
                                report)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for run in runs:
        for problem in run.problems:
            report.append(f"  FAILED {run.label}: {problem}")
    failed = sum(not r.ok for r in runs)
    print("\n".join(report))
    print(json.dumps({"correct": failed == 0, "attempted": len(runs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
