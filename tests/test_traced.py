"""The benchmark tracer still runs against the package.

``bench/traced.py`` wraps package functions by name, so renaming one of
them breaks the benchmark's per-layer numbers. Running it here on two tiny
commands makes such a rename fail the test suite too. The tracer is only
read; everything it writes goes under ``tmp_path``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: Per-layer names that ``bench/run.py`` derives from several runs rather
#: than reading from one traced report.
DERIVED = {"montecarlo.run_replicates_w2_s", "montecarlo.parallel_eff",
           "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_frac"}

CONFIG = {
    "problem": {"kind": "tanh", "dim": 2,
                "matrix": [[1.0, 0.2], [0.0, 1.5]],
                "noise": {"kind": "uniform_ball", "radius": 1.0}},
    "sigmoid": {"family": "kesten"},
    "schedule": {"family": "reciprocal", "s_floor": 2.0},
    "experiment": {"horizon": 10, "n_replicates": 2,
                   "couple_comparator": True},
}


def layer_names():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {layer["name"] for layer in bench["per_layer"]} - DERIVED


@pytest.mark.parametrize("command", ["predict", "replicate"])
def test_tracer_reports_every_layer(tmp_path, command):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(CONFIG))
    report = tmp_path / "layers.json"
    argv = [sys.executable, str(ROOT / "bench" / "traced.py"),
            "--report", str(report), "--", command, "--config", str(config),
            "--out", str(tmp_path / "out")]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(argv, env=env, cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    layers = json.loads(report.read_text())
    assert set(layers) == layer_names()
    assert layers["config.load_s"] > 0.0
    # E0 is resolved where each command looks resolve_e0 up: config for
    # predict, montecarlo for replicate; the tracer must wrap both
    assert layers["schedules.e0_s"] > 0.0
    if command == "replicate":
        # both replicates advance every step, and the coupled comparator
        # applies its drift once per step
        assert layers["core.rep_steps"] == 2 * 10
        assert layers["rowops.apply_rows_calls"] >= 10
        assert layers["problems.field_eval_calls"] >= 10
