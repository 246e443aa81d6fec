#!/usr/bin/env python3
"""Run one adaptix CLI command in-process with per-layer wrappers.

    python3 bench/traced.py --report layers.json -- replicate --config c.json \\
        --out out/ --seed 3 --workers 1

Calls ``adaptix.cli.main`` with the arguments after ``--``, writes the
per-layer numbers of that one command to ``--report`` and exits with the
command's exit code.

Each wrapped function is replaced in every ``adaptix`` module that binds it,
not only where it is defined: ``core`` imports ``field_eval``,
``gamma_eval``, ``sigmoid_eval``, ``dot_rows`` and ``apply_rows`` by name, and
``cli`` does the same for ``run_replicates``, ``normality_stats`` and the
writers. Calls a module makes to its own functions are counted too (the
problem constructor's root-residual check calls ``field_eval`` once).

A layer's time is the time spent inside its outermost wrapped call; its self
time subtracts the wrapped calls made from inside it. Counts and the
computed byte sizes repeat exactly for a given config and seed. Spans inside
worker processes are lost, so per-layer numbers are taken at
``--workers 1``; at ``--workers 2`` only ``montecarlo.run_replicates_s`` is
used.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import adaptix.cli  # noqa: E402  (needs the path above)
from adaptix import (_rowops, asymptotics, config, core, montecarlo,  # noqa: E402
                     noise, problems, rng, schedules, serialize)


class Tracer:
    """Call counts per function and span times per layer group."""

    def __init__(self):
        self.calls: dict[str, list] = {}
        self.groups: dict[str, list] = {}   # group -> [total, self, depth]
        self.extra = {"rep_steps": 0, "live_rep_steps": 0,
                      "noise_block_bytes": 0, "record_bytes": 0,
                      "bytes_written": 0, "vectors": 0}
        self._stack = [0.0]     # time spent in child spans of each open span

    def wrap(self, fn, group: str, name: str, on_return=None):
        """Time and count ``fn``; ``on_return(args, kwargs, result)`` runs
        after the span has closed."""
        count = self.calls.setdefault(name, [0])
        acc = self.groups.setdefault(group, [0.0, 0.0, 0])
        stack = self._stack
        push, pop, clock = stack.append, stack.pop, time.perf_counter

        def traced(*args, **kwargs):
            count[0] += 1
            acc[2] += 1
            push(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                acc[1] += elapsed - pop()
                stack[-1] += elapsed
                acc[2] -= 1
                if not acc[2]:
                    acc[0] += elapsed

        if on_return is None:
            return traced

        def hooked(*args, **kwargs):
            result = traced(*args, **kwargs)
            on_return(args, kwargs, result)
            return result

        return hooked

    def total(self, group: str) -> float:
        return self.groups[group][0]

    def self_time(self, group: str) -> float:
        return self.groups[group][1]

    def count(self, name: str) -> int:
        return self.calls[name][0]


def rebind(original, wrapped) -> None:
    """Replace ``original`` by ``wrapped`` in every loaded adaptix module."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "adaptix" and not mod_name.startswith("adaptix."):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)


def install(tracer: Tracer):
    """Wrap the public functions of each layer; returns the traced main."""
    extra = tracer.extra
    kernel_signature = inspect.signature(core._simulate)

    def kernel_done(args, kwargs, res):
        bound = kernel_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        n_rep, horizon = len(a["rngs"]), int(a["horizon"])
        comparator = a["comparator"]
        died = res.diverged_at >= 0
        steps = horizon
        if comparator is None and n_rep and died.all():
            steps = int(res.diverged_at.max())
        extra["rep_steps"] += n_rep * steps
        extra["live_rep_steps"] += int(
            sum(int(d) if d >= 0 else horizon for d in res.diverged_at))
        streams = 2 if comparator is not None and comparator.rngs else 1
        block = (streams * n_rep * min(core.NOISE_CHUNK, horizon)
                 * a["problem"].dim * 8)
        extra["noise_block_bytes"] = max(extra["noise_block_bytes"], block)
        extra["record_bytes"] += sum(
            arr.nbytes for arr in (res.x, res.s, res.y, res.z)
            if arr is not None)

    def written(args, kwargs, result):
        extra["bytes_written"] += os.path.getsize(
            args[0] if args else kwargs["path"])

    def sampled(args, kwargs, block):
        extra["vectors"] += block.shape[0]

    functions = [
        (config, "load_config", "config.load", None),
        (montecarlo, "resolve_e0", "schedules.e0", None),
        (schedules, "gamma_eval", "schedules.gamma_eval", None),
        (schedules, "sigmoid_eval", "schedules.sigmoid_eval", None),
        (asymptotics, "predict", "asymptotics.predict", None),
        (asymptotics, "covariance_integral_oracle", "asymptotics.oracle",
         None),
        (asymptotics, "expm", "asymptotics.expm", None),
        (rng, "substream", "rng.substream", None),
        (problems, "field_eval", "problems.field_eval", None),
        (_rowops, "dot_rows", "rowops.dot_rows", None),
        (_rowops, "apply_rows", "rowops.apply_rows", None),
        (core, "_simulate", "core.kernel", kernel_done),
        (core, "run_trajectory", "core.run_trajectory", None),
        (montecarlo, "run_replicates", "montecarlo.run_replicates", None),
        (serialize, "write_json", "serialize.write", written),
        (serialize, "write_csv", "serialize.write", written),
    ] + [(montecarlo, name, "montecarlo.stats", None)
         for name in ("convergence_summary", "step_counter_drift",
                      "normality_stats", "normality_check", "coupling_gap")]
    for module, attr, group, hook in functions:
        original = getattr(module, attr)
        rebind(original, tracer.wrap(original, group,
                                     f"{module.__name__}.{attr}", hook))
    noise.NoiseModel.sample_block = tracer.wrap(
        noise.NoiseModel.sample_block, "noise.sample_block",
        "noise.sample_block", sampled)
    return tracer.wrap(adaptix.cli.main, "cli.main", "cli.main")


def layer_metrics(tr: Tracer) -> dict:
    extra = tr.extra
    rep_steps = extra["rep_steps"]
    kernel = tr.total("core.kernel")
    return {
        "config.load_s": tr.total("config.load"),
        "schedules.e0_s": tr.total("schedules.e0"),
        "schedules.gamma_eval_s": tr.total("schedules.gamma_eval"),
        "schedules.gamma_eval_calls": tr.count("adaptix.schedules.gamma_eval"),
        "schedules.sigmoid_eval_s": tr.total("schedules.sigmoid_eval"),
        "schedules.sigmoid_eval_calls":
            tr.count("adaptix.schedules.sigmoid_eval"),
        "asymptotics.predict_s": tr.total("asymptotics.predict"),
        "asymptotics.oracle_s": tr.total("asymptotics.oracle"),
        "asymptotics.expm_calls": tr.count("adaptix.asymptotics.expm"),
        "rng.substream_s": tr.total("rng.substream"),
        "rng.substream_calls": tr.count("adaptix.rng.substream"),
        "noise.sample_block_s": tr.total("noise.sample_block"),
        "noise.sample_block_calls": tr.count("noise.sample_block"),
        "noise.vectors": extra["vectors"],
        "problems.field_eval_s": tr.total("problems.field_eval"),
        "problems.field_eval_calls": tr.count("adaptix.problems.field_eval"),
        "rowops.dot_rows_s": tr.total("rowops.dot_rows"),
        "rowops.dot_rows_calls": tr.count("adaptix._rowops.dot_rows"),
        "rowops.apply_rows_s": tr.total("rowops.apply_rows"),
        "rowops.apply_rows_calls": tr.count("adaptix._rowops.apply_rows"),
        "core.kernel_s": kernel,
        "core.kernel_self_s": tr.self_time("core.kernel"),
        "core.trajectory_self_s": tr.self_time("core.run_trajectory"),
        "core.ns_per_rep_step": kernel * 1e9 / rep_steps if rep_steps else 0.0,
        "core.rep_steps": rep_steps,
        "core.live_rep_step_ratio":
            extra["live_rep_steps"] / rep_steps if rep_steps else 0.0,
        "core.noise_block_bytes": extra["noise_block_bytes"],
        "core.record_bytes": extra["record_bytes"],
        "montecarlo.run_replicates_s": tr.total("montecarlo.run_replicates"),
        "montecarlo.stats_s": tr.total("montecarlo.stats"),
        "montecarlo.normality_stats_calls":
            tr.count("adaptix.montecarlo.normality_stats"),
        "serialize.write_s": tr.total("serialize.write"),
        "serialize.bytes_written": extra["bytes_written"],
        "cli.self_s": tr.self_time("cli.main"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", required=True,
                        help="path of the JSON file for the layer numbers")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER,
                        help="-- followed by adaptix CLI arguments")
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] \
        else args.cli_args
    tracer = Tracer()
    traced_main = install(tracer)
    code = traced_main(cli_args)
    Path(args.report).write_text(json.dumps(layer_metrics(tracer), indent=1))
    return code


if __name__ == "__main__":
    sys.exit(main())
