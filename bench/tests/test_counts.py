"""Traced call counts equal the analytic counts of each workload.

    python3 -m pytest -q bench/tests

Each test runs one workload command through bench/traced.py at
``--workers 1`` (about 2 to 4 s each) and compares the counts with numbers
worked out from the config and the code path.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from run import WORKLOADS, child_env, cli_argv  # noqa: E402

SEED = 3
NOISE_CHUNK = 1024


def traced(name: str, tmp_path: Path) -> dict:
    report = tmp_path / "layers.json"
    argv = [sys.executable, str(BENCH / "traced.py"), "--report", str(report),
            "--"] + cli_argv(WORKLOADS[name], WORKLOADS[name].command, SEED,
                             tmp_path / "out", workers=1)
    done = subprocess.run(argv, env=child_env(), capture_output=True,
                          text=True, timeout=150)
    assert done.returncode == 0, done.stderr
    return json.loads(report.read_text())


def blocks(horizon: int) -> int:
    return -(-horizon // NOISE_CHUNK)


def test_single_long_counts(tmp_path):
    horizon, rows = 20_000, 10_001    # trajectory.csv keeps every 2nd state
    m = traced("single_long", tmp_path)
    # one per step, plus the root-residual check when the config builds the
    # problem (a call problems makes to its own field_eval)
    assert m["problems.field_eval_calls"] == horizon + 1
    assert m["rowops.apply_rows_calls"] == horizon + 1
    # one per step, plus one per trajectory.csv row written by the CLI
    assert m["schedules.gamma_eval_calls"] == horizon + rows
    # step 1 installs s1 instead of gating
    assert m["schedules.sigmoid_eval_calls"] == horizon - 1
    # divergence check every step, gate argument from step 2 on
    assert m["rowops.dot_rows_calls"] == 2 * horizon - 1
    assert m["noise.sample_block_calls"] == blocks(horizon) == 20
    assert m["noise.vectors"] == horizon
    assert m["rng.substream_calls"] == 1
    assert m["core.rep_steps"] == horizon
    assert m["core.live_rep_step_ratio"] == 1.0
    assert m["core.record_bytes"] == rows * (2 + 1 + 2) * 8   # x, s, y
    assert m["asymptotics.expm_calls"] == 0
    assert m["montecarlo.normality_stats_calls"] == 0


def test_ensemble_counts(tmp_path):
    n_rep, horizon, checkpoints = 2000, 2000, 3
    m = traced("ensemble", tmp_path)
    assert m["noise.sample_block_calls"] == n_rep * blocks(horizon) == 4000
    assert m["noise.vectors"] == n_rep * horizon
    assert m["rng.substream_calls"] == n_rep      # E0 is exact: no E0 stream
    assert m["problems.field_eval_calls"] == horizon + 1
    assert m["core.rep_steps"] == n_rep * horizon
    # one per checkpoint row, plus normality_check's recomputation of the last
    assert m["montecarlo.normality_stats_calls"] == checkpoints + 1
    assert m["core.noise_block_bytes"] == n_rep * NOISE_CHUNK * 2 * 8


def test_wide_coupled_counts(tmp_path):
    n_rep, horizon, checkpoints, dim = 2000, 1000, 3, 4
    e0_samples, e0_block = 1_000_000, 100_000
    m = traced("wide_coupled", tmp_path)
    # one stream per replicate, plus the E0 stream, which the replicate
    # command resolves twice: for prediction.json and inside run_replicates
    assert m["rng.substream_calls"] == n_rep + 2
    e0_blocks = 2 * (e0_samples // e0_block)       # two draws per E0 block
    assert m["noise.sample_block_calls"] == (n_rep * blocks(horizon)
                                             + 2 * e0_blocks)
    assert m["noise.vectors"] == n_rep * horizon + 2 * 2 * e0_samples
    assert m["core.rep_steps"] == n_rep * horizon
    assert m["montecarlo.normality_stats_calls"] == checkpoints + 1
    assert m["core.noise_block_bytes"] == (n_rep * min(NOISE_CHUNK, horizon)
                                           * dim * 8)
    # x, y, z per checkpoint and replicate, plus s
    assert m["core.record_bytes"] == checkpoints * n_rep * (3 * dim + 1) * 8

