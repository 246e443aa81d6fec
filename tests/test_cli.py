"""Command-line harness: config parsing, artifacts, exit codes."""

import contextlib
import errno
import functools
import importlib
import io
import json
import os
import signal
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from documents import PROCESS_ENTRIES, outcome
from test_montecarlo import InlineWorker, inline_workers

import adaptix.__main__
from adaptix import cli, config, core, montecarlo
from adaptix.cli import main
from adaptix.config import canonical_config, load_config, parse_config
from adaptix.core import run_trajectory
from adaptix.errors import (ConfigError, DimensionMismatchError,
                            DivergedTrajectoryError, NumericError)
from adaptix.problems import MAX_DIM
from adaptix.schedules import gamma_eval
from adaptix.serialize import dumps_json, format_float

BASE_CONFIG = {
    "problem": {"kind": "linear", "dim": 2,
                "matrix": [[1.5, 0.0], [0.0, 3.0]],
                "noise": {"kind": "gaussian", "cov": 1.0}},
    "sigmoid": {"family": "kesten", "u_plus": 1.0},
    "schedule": {"family": "reciprocal", "s_floor": 1.0},
    "experiment": {"horizon": 500, "n_replicates": 30, "master_seed": 11,
                   "checkpoints": [10, 100, 500]},
}


def make_config(tmp_path, name="cfg.json", **edits):
    doc = json.loads(json.dumps(BASE_CONFIG))
    for dotted, value in edits.items():
        node = doc
        parts = dotted.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        if value is None:
            node.pop(parts[-1], None)
        else:
            node[parts[-1]] = value
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# parsing


def test_parse_round_trip():
    cfg = parse_config(BASE_CONFIG)
    echoed = canonical_config(cfg)
    again = parse_config(echoed)
    assert canonical_config(again) == echoed
    assert cfg.plan.horizon == 500
    assert cfg.plan.checkpoints == (10, 100, 500)
    assert np.array_equal(cfg.plan.init.x0, np.array([1.0, 1.0]))


def test_defaults_are_materialized():
    cfg = parse_config({"problem": {"kind": "linear", "dim": 1},
                        "sigmoid": {"family": "kesten"},
                        "schedule": {"family": "reciprocal"}})
    echoed = canonical_config(cfg)
    assert echoed["experiment"]["horizon"] == 10_000
    assert echoed["experiment"]["checkpoints"] == [10, 100, 1000, 10_000]
    assert echoed["tolerances"]["cov_tol"] == 0.15
    assert echoed["init"]["x0"] == [1.0]
    assert echoed["output"] == {"dir": ".", "trajectory": True,
                                "summary": True, "prediction": True}


def test_unknown_keys_rejected_with_path(tmp_path, capsys):
    path = make_config(tmp_path, **{"experiment.horizons": 5})
    assert run_cli("predict", "--config", path, "--out", tmp_path / "o") == 2
    assert "experiment.horizons" in capsys.readouterr().err


def test_duplicate_key_rejected(tmp_path):
    path = tmp_path / "dup.json"
    path.write_text('{"problem": {"kind": "linear"}, "problem": {}}')
    assert run_cli("predict", "--config", path, "--out", tmp_path / "o") == 2


def test_wrong_type_names_the_path(tmp_path, capsys):
    path = make_config(tmp_path, **{"experiment.horizon": "long"})
    assert run_cli("predict", "--config", path, "--out", tmp_path / "o") == 2
    assert "experiment.horizon" in capsys.readouterr().err


def test_nonpositive_gate_ceiling_rejected(tmp_path, capsys):
    path = make_config(tmp_path, **{"sigmoid.u_plus": -0.5})
    assert run_cli("predict", "--config", path, "--out", tmp_path / "o") == 2
    assert "B4.1" in capsys.readouterr().err


@pytest.mark.parametrize("sigmoid", [
    {"family": "constant", "c": 0.7, "u_minus": 0.0, "u_plus": 1.0},
    {"family": "constant", "c": 0.7, "u_plus": 1.0},
    {"family": "constant", "c": 0.7, "u_minus": 0.5},
])
def test_contradictory_constant_gate_keys_rejected(sigmoid):
    # c fills only the levels not given, so it cannot hide either of them
    with pytest.raises(ConfigError, match="B4.1"):
        parse_config(dict(BASE_CONFIG, sigmoid=sigmoid))


def test_constant_gate_keys_that_agree_are_accepted():
    for sigmoid in ({"family": "constant", "c": 0.7, "u_plus": 0.7},
                    {"family": "constant", "u_plus": 0.7}):
        echoed = canonical_config(parse_config(dict(BASE_CONFIG,
                                                    sigmoid=sigmoid)))
        assert echoed["sigmoid"]["u_minus"] == echoed["sigmoid"]["u_plus"] \
            == 0.7


@pytest.mark.parametrize("kind", ["linear", "tanh"])
def test_dim_contradicting_the_matrix_rejected(tmp_path, capsys, kind):
    # without a noise section nothing else ties the problem to dim 3
    path = make_config(tmp_path, **{"problem.kind": kind, "problem.dim": 3,
                                    "problem.noise": None})
    assert run_cli("predict", "--config", path, "--out", tmp_path / "o") == 2
    assert "dim 3 does not match the 2-row matrix" in capsys.readouterr().err


@pytest.mark.parametrize("noise, message", [
    ({"kind": "gaussian", "dim": 3, "cov": [1.0, 1.0]},
     "cov shape (2, 2) does not match dim 3"),
    ({"kind": "uniform_ball", "dim": -2}, "noise dim must be >= 1"),
])
def test_noise_dim_is_checked_before_use(tmp_path, capsys, noise, message):
    path = make_config(tmp_path, **{"problem.noise": noise})
    assert run_cli("predict", "--config", path, "--out", tmp_path / "o") == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["linear", "tanh", "cubic1d"])
def test_a_null_root_exits_2(tmp_path, capsys, kind):
    # a linear or tanh root of null once meant the origin, and the echo
    # wrote zeros in its place
    path = make_config(tmp_path, problem={"kind": kind, "root": None})
    out = tmp_path / "o"
    assert run_cli("predict", "--config", path, "--out", out) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["adaptix: error: problem.root must be a number, got None"]
    assert not out.exists()


@pytest.mark.parametrize("key, value, path", [
    ("experiment.divergence_bound", float("nan"),
     "experiment.divergence_bound"),
    ("tolerances.cov_tol", float("nan"), "tolerances.cov_tol"),
    ("problem.matrix", [[float("nan"), 0.0], [0.0, 3.0]],
     "problem.matrix[0][0]"),
    ("init.x0", float("inf"), "init.x0"),
    ("schedule.s_floor", 10**400, "schedule.s_floor"),
])
def test_non_finite_numbers_rejected_with_path(tmp_path, capsys, key, value,
                                               path):
    cfg = make_config(tmp_path, **{key: value})
    assert run_cli("predict", "--config", cfg, "--out", tmp_path / "o") == 2
    assert f"{path} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, name", [
    ("experiment.e0_mc_samples", 1, "e0_mc_samples"),
    ("init.s0", -1.0, "s0"),
    ("init.s1", -0.5, "s1"),
    ("experiment.divergence_bound", 0.0, "divergence_bound"),
    ("experiment.divergence_bound", -1e6, "divergence_bound"),
    ("tolerances.max_diverged_fraction", -0.01, "max_diverged_fraction"),
    ("tolerances.cov_tol", 0.0, "cov_tol"),
    ("tolerances.ks_scale", -1.63, "ks_scale"),
    ("problem", {"kind": "linear", "dim": -1, "matrix": 1.0}, "problem.dim"),
    ("problem", {"kind": "tanh", "dim": 0, "matrix": 1.0, "root": 0.5},
     "problem.dim"),
    ("problem.dim", -1, "problem.dim"),
    ("problem", {"kind": "linear", "root": 0.5,
                 "noise": {"kind": "gaussian", "dim": -2}}, "noise dim"),
    # record times are int64
    ("experiment.horizon", 2**63, "horizon"),
])
def test_out_of_range_values_exit_2_and_name_the_key(tmp_path, capsys, key,
                                                     value, name):
    path = make_config(tmp_path, **{key: value})
    assert run_cli("predict", "--config", path, "--out", tmp_path / "o") == 2
    assert name in capsys.readouterr().err


# ---------------------------------------------------------------------------
# predict


def test_predict_artifacts(tmp_path):
    path = make_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli("predict", "--config", path, "--out", out) == 0
    config_echo = json.loads((out / "config.json").read_text())
    assert config_echo["experiment"]["master_seed"] == 11
    pred = json.loads((out / "prediction.json").read_text())
    assert list(pred) == ["e0", "e0_stderr", "W", "V", "stable",
                          "eigen_real_parts", "oracle_max_abs_diff"]
    assert pred["e0"] == 0.5
    assert pred["stable"] is True
    assert pred["V"][0][0] == pytest.approx(0.8, abs=1e-12)
    assert pred["V"][1][1] == pytest.approx(4.0 / 11.0, abs=1e-12)
    assert pred["oracle_max_abs_diff"] < 1e-8


def test_predict_scalar_closed_form(tmp_path):
    path = make_config(tmp_path, **{
        "problem.dim": 1, "problem.matrix": [[2.0]],
        "sigmoid": {"family": "constant", "c": 1.0},
        "experiment.checkpoints": None})
    out = tmp_path / "out"
    assert run_cli("predict", "--config", path, "--out", out) == 0
    pred = json.loads((out / "prediction.json").read_text())
    assert pred["V"][0][0] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_predict_identity_fixed_point(tmp_path):
    # jacobian I with E0 = 1 gives W = -I/2, so V solves -V = -S: V = I
    path = make_config(tmp_path, **{
        "problem.matrix": [[1.0, 0.0], [0.0, 1.0]],
        "sigmoid": {"family": "constant", "c": 1.0}})
    out = tmp_path / "out"
    assert run_cli("predict", "--config", path, "--out", out) == 0
    pred = json.loads((out / "prediction.json").read_text())
    v = np.asarray(pred["V"])
    assert np.allclose(v, np.eye(2), atol=1e-12)
    assert pred["oracle_max_abs_diff"] <= 1e-8


UNSTABLE_W_LINE = ("adaptix: error: W = I/2 - J/E0 is not stable; "
                   "no limit covariance")


def assert_refused_unstable(out, capsys):
    """Exit 3's artifacts and reason line: prediction.json without V, and
    nothing a replicate ensemble would write."""
    assert capsys.readouterr().err.splitlines() == [UNSTABLE_W_LINE]
    pred = json.loads((out / "prediction.json").read_text())
    assert pred["stable"] is False
    assert "V" not in pred
    assert "oracle_max_abs_diff" not in pred
    assert sorted(os.listdir(out)) == ["config.json", "prediction.json"]


def test_predict_unstable_exits_3_and_omits_v(tmp_path, capsys):
    path = make_config(tmp_path, **{"problem.matrix": [[0.2, 0.0],
                                                       [0.0, 0.2]]})
    out = tmp_path / "out"
    assert run_cli("predict", "--config", path, "--out", out) == 3
    assert_refused_unstable(out, capsys)


def test_predict_byte_stable(tmp_path):
    path = make_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("predict", "--config", path, "--out", a) == 0
    assert run_cli("predict", "--config", path, "--out", b) == 0
    assert (a / "prediction.json").read_bytes() == \
           (b / "prediction.json").read_bytes()
    assert (a / "config.json").read_bytes() == (b / "config.json").read_bytes()


def test_seed_flag_overrides_config(tmp_path):
    path = make_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli("predict", "--config", path, "--out", out,
                   "--seed", "99") == 0
    echoed = json.loads((out / "config.json").read_text())
    assert echoed["experiment"]["master_seed"] == 99


# ---------------------------------------------------------------------------
# run


def test_run_writes_trajectory(tmp_path):
    path = make_config(tmp_path, **{"problem.dim": 1,
                                    "problem.matrix": [[2.0]],
                                    "experiment.horizon": 200,
                                    "experiment.checkpoints": None})
    out = tmp_path / "out"
    assert run_cli("run", "--config", path, "--out", out) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,s,gamma,x_0"
    assert len(lines) == 202                    # header + t = 0..200
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 1.0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["diverged"] is False
    assert summary["final_error_norm"] >= 0.0


def test_run_diverged_exits_4(tmp_path):
    path = make_config(tmp_path, **{
        "problem.dim": 1, "problem.matrix": [[2.0]],
        "schedule": {"family": "constant", "gamma0": 2.0},
        "experiment.horizon": 100, "experiment.checkpoints": None,
        "experiment.divergence_bound": 1e6})
    out = tmp_path / "out"
    assert run_cli("run", "--config", path, "--out", out) == 4
    summary = json.loads((out / "summary.json").read_text())
    assert summary["diverged"] is True
    assert summary["diverged_at"] > 0
    plan = load_config(path).plan
    with pytest.raises(DivergedTrajectoryError) as exc:
        run_trajectory(plan.problem, plan.init, plan.schedule, plan.sigmoid,
                       plan.horizon, plan.master_seed,
                       divergence_bound=plan.divergence_bound)
    state = exc.value.last
    assert summary["diverged_at"] == exc.value.t
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert len(lines) == 1 + exc.value.t      # header + t = 0..t_div - 1
    last = lines[-1].split(",")
    assert int(last[0]) == exc.value.t - 1 == state.t[0]
    s = float(state.s[0])
    assert [float(v) for v in last[1:]] == [
        s, gamma_eval(plan.schedule, s), state.x[0, 0]]


def cli_stderr(*argv):
    """Exit code and stderr lines of the CLI in a fresh interpreter.

    pytest captures warnings in-process, so only a subprocess shows what
    Python's default warning filters would print beside the reason line.
    """
    proc = subprocess.run([sys.executable, "-m", "adaptix",
                           *(str(a) for a in argv)],
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stderr.splitlines()


def test_an_in_process_numpy_warning_fails_the_test():
    # pyproject.toml makes a RuntimeWarning an error, so a numpy warning
    # that would print beside a command's reason line fails the suite
    with pytest.raises(RuntimeWarning, match="divide by zero"):
        np.array([1.0]) / 0.0


SMOOTH_TINY_BETA = {"family": "smooth", "u_minus": 0.0, "u_plus": 1.0,
                    "beta": 1e-310}


@pytest.mark.parametrize("command, edits", [
    # (1 + s)^150 overflows once s passes about 110: gamma is then 0
    ("run", {"problem": {"kind": "linear", "dim": 1, "matrix": 1.0},
             "schedule": {"family": "power", "gamma0": 1.0, "p": 150},
             "experiment.horizon": 4000}),
    # v / 1e-310 overflows for |v| > 1.8e-2: the gate is then u_minus or
    # u_plus
    ("predict", {"sigmoid": SMOOTH_TINY_BETA}),
    ("replicate", {"sigmoid": SMOOTH_TINY_BETA}),
], ids=["run-power", "predict-smooth", "replicate-smooth"])
def test_an_overflow_with_an_exact_limit_prints_nothing(tmp_path, command,
                                                        edits):
    path = make_config(tmp_path, **edits)
    assert cli_stderr(command, "--config", path,
                      "--out", tmp_path / "out") == (0, [])


def test_run_overflow_prints_only_the_divergence_line(tmp_path):
    # the cubic field overflows the squared norm before the bound is crossed
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps({
        "problem": {"kind": "cubic1d", "a": 1.292, "c": 0.914,
                    "noise": {"kind": "uniform_ball", "radius": 0.976}},
        "sigmoid": {"family": "plakhov_almeida", "u_minus": -1.917,
                    "u_plus": 0.342},
        "schedule": {"family": "reciprocal", "s_floor": 0.5},
        "init": {"x0": -1.008, "s0": 1.606, "s1": 2.683},
        "experiment": {"horizon": 50, "master_seed": 25,
                       "divergence_bound": 1e150}}))
    code, err = cli_stderr("run", "--config", path, "--out", tmp_path / "o")
    assert code == 4
    assert err == ["adaptix: trajectory diverged at t=18"]


def test_replicate_zero_covariance_prints_only_the_reason(tmp_path):
    # V = 0: the relative covariance error would divide 0 by 0
    path = make_config(tmp_path, **{
        "problem.dim": 1, "problem.matrix": [[1.0]],
        "problem.noise": {"kind": "gaussian", "cov": 0.0},
        "experiment.horizon": 20, "experiment.n_replicates": 4,
        "experiment.checkpoints": None})
    code, err = cli_stderr("replicate", "--config", path,
                           "--out", tmp_path / "o")
    assert code == 5
    assert len(err) == 1
    assert "predicted covariance V is singular" in err[0]


def test_run_takes_a_bound_too_large_to_square(tmp_path):
    # 1e200 squared overflows a float; only non-finite iterates diverge
    path = make_config(tmp_path, **{"experiment.divergence_bound": 1e200})
    assert run_cli("run", "--config", path, "--out", tmp_path / "out") == 0


def test_trajectory_csv_matches_the_per_state_rendering(tmp_path, monkeypatch):
    # horizon 25 001 records every 2nd state and appends the final one; the
    # writer must give the bytes of a cell-by-cell rendering of the same
    # trajectory
    runs = []

    def recording_run_trajectory(*args, **kwargs):
        runs.append(run_trajectory(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr("adaptix.core.run_trajectory", recording_run_trajectory)
    path = make_config(tmp_path, **{
        "problem": {"kind": "cubic1d", "a": 1.0, "c": 0.5,
                    "noise": {"kind": "gaussian", "cov": 1.0}},
        "sigmoid": {"family": "smooth", "u_minus": -0.5, "u_plus": 1.0,
                    "beta": 0.5},
        "schedule.s_floor": 4.0,
        "experiment.horizon": 25_001, "experiment.checkpoints": None})
    out = tmp_path / "out"
    assert run_cli("run", "--config", path, "--out", out) == 0
    schedule = load_config(path).plan.schedule
    traj = runs[0]
    lines = ["t,s,gamma,x_0\n"]
    for i in range(len(traj.t)):
        s = float(traj.s[i])
        cells = [str(int(traj.t[i])), format_float(s),
                 format_float(gamma_eval(schedule, s))]
        lines.append(",".join(cells + [format_float(v) for v in traj.x[i]])
                     + "\n")
    assert len(lines) == 1 + 12_502
    assert lines[-2].startswith("25000,") and lines[-1].startswith("25001,")
    assert (out / "trajectory.csv").read_bytes() == "".join(lines).encode()


# ---------------------------------------------------------------------------
# replicate


def test_replicate_artifacts_and_worker_invariance(tmp_path):
    path = make_config(tmp_path)
    a, b = tmp_path / "w1", tmp_path / "w2"
    assert run_cli("replicate", "--config", path, "--out", a,
                   "--workers", "1") == 0
    assert run_cli("replicate", "--config", path, "--out", b,
                   "--workers", "2") == 0
    for name in ("checkpoints.csv", "summary.json", "prediction.json",
                 "config.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    lines = (a / "checkpoints.csv").read_text().splitlines()
    assert lines[0] == ("t,quantile_50,quantile_90,quantile_99,"
                        "s_over_t_mean,s_over_t_sd,cov_rel_err,"
                        "mahalanobis_ks")
    assert len(lines) == 4
    summary = json.loads((a / "summary.json").read_text())
    assert summary["n_replicates"] == 30
    assert summary["n_diverged"] == 0
    assert summary["error_trend_decreasing"] is True
    assert summary["normality_gate_applied"] is False   # 30 < 500
    assert summary["exit_code"] == 0


def test_one_replicate_blocks_take_the_lane_with_the_bytes_of_one_block(
        tmp_path, monkeypatch):
    # two tanh replicates: at two workers each block holds one, which runs
    # on the float lane, and at one worker both run in the batch loop. The
    # lane's calls are logged to a file the forked workers inherit.
    path = make_config(tmp_path, **{"problem.kind": "tanh",
                                    "experiment.n_replicates": 2})
    assert core._lane_takes(load_config(path).plan.problem, 1, None)
    log = tmp_path / "lane.log"
    log.write_text("")
    lane = core._lane

    def logged(*args):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return lane(*args)

    monkeypatch.setattr(core, "_lane", logged)
    monkeypatch.setattr(montecarlo.os, "sched_getaffinity",
                        lambda pid: {0, 1})
    outs, lanes = [], []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        assert run_cli("replicate", "--config", path, "--out", out,
                       "--workers", workers) == 0
        outs.append({name: (out / name).read_bytes()
                     for name in sorted(os.listdir(out))})
        lanes.append(len(set(log.read_text().split())))
        log.write_text("")
    assert lanes == [0, 2]
    assert sorted(outs[0]) == ["checkpoints.csv", "config.json",
                               "prediction.json", "summary.json"]
    assert outs[0] == outs[1]


@pytest.mark.parametrize("command", ["predict", "run", "validate"])
def test_only_replicate_takes_workers(tmp_path, capsys, command):
    path = make_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--config", path, "--out", tmp_path / "o",
                "--workers", "2")
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    assert run_cli("replicate", "--config", path, "--out", tmp_path / "r",
                   "--workers", "2") == 0


def replicate_outcome(tmp_path, **edits):
    """Exit code, stderr lines and summary.json of a 1-D replicate run."""
    path = make_config(tmp_path, **{
        "problem.dim": 1, "problem.matrix": [[1.0]],
        "experiment.horizon": 200, "experiment.n_replicates": 50,
        "experiment.checkpoints": None, **edits})
    out = tmp_path / "o"
    code, err = cli_stderr("replicate", "--config", path, "--out", out)
    return code, err, json.loads((out / "summary.json").read_text())


def test_replicate_failed_normality_gate_exits_4(tmp_path):
    code, err, summary = replicate_outcome(tmp_path, **{
        "tolerances.cov_tol": 1e-6,
        "tolerances.normality_min_replicates": 2})
    assert code == 4
    assert len(err) == 1
    assert err[0].startswith("adaptix: normality gate failed at t=200: ")
    assert summary["normality_gate_applied"] is True
    assert summary["normality"]["passed"] is False
    assert summary["exit_code"] == 4


@pytest.mark.parametrize("gate, edits, phase", [
    # criterion 10's plan from x0 = 100: the constant gate's replicates
    # agree with one another far above the predicted scale
    ({"family": "constant", "c": 0.5}, {}, True),
    # the kesten gate has left that phase; a tolerance that no run meets
    # fails its gate all the same
    ({"family": "kesten", "u_plus": 1.0}, {"tolerances.cov_tol": 1e-6},
     False),
])
def test_a_failed_normality_gate_names_a_deterministic_phase(tmp_path, gate,
                                                             edits, phase):
    path = make_config(tmp_path, **{
        "problem.matrix": [[0.3, 0.0], [0.0, 0.5]],
        "problem.noise": {"kind": "gaussian", "cov": 0.01},
        "sigmoid": gate, "init": {"x0": [100.0, 100.0]},
        "experiment.horizon": 100, "experiment.n_replicates": 50,
        "experiment.master_seed": 1, "experiment.checkpoints": [10, 100],
        "tolerances.normality_min_replicates": 2, **edits})
    out = tmp_path / "o"
    code, err = cli_stderr("replicate", "--config", path, "--out", out)
    # the two numbers from the last row of checkpoints.csv and V
    last = (out / "checkpoints.csv").read_text().splitlines()[-1].split(",")
    t, q50, q90 = int(last[0]), float(last[1]), float(last[2])
    v = np.array(json.loads((out / "prediction.json").read_text())["V"])
    ratio = q50 / float(np.sqrt(np.trace(v) / t))
    spread = (q90 - q50) / q50
    assert code == 4 and len(err) == 1
    assert err[0].startswith("adaptix: normality gate failed at t=100: ")
    assert err[0].endswith(
        f"); median error {ratio:.2f}x sqrt(tr V / t), "
        f"(q90 - q50)/q50 = {spread:.3f}"
        + (": still in the deterministic phase" if phase else ""))
    assert (ratio > cli.DETERMINISTIC_RATIO
            and spread < cli.DETERMINISTIC_SPREAD) is phase


def test_replicate_diverged_fraction_above_the_bound_exits_4(tmp_path):
    code, err, summary = replicate_outcome(tmp_path, **{
        "schedule": {"family": "constant", "gamma0": 1.9},
        "experiment.divergence_bound": 12,
        "tolerances.max_diverged_fraction": 0.0})
    assert code == 4
    assert err == ["adaptix: diverged fraction 0.3200 exceeds 0.0"]
    assert summary["n_diverged"] == 16
    assert summary["exit_code"] == 4


def test_replicate_requires_an_ensemble(tmp_path):
    path = make_config(tmp_path, **{"experiment.n_replicates": 1})
    assert run_cli("replicate", "--config", path,
                   "--out", tmp_path / "o") == 2


def test_replicate_unstable_exits_3(tmp_path, capsys):
    path = make_config(tmp_path, **{"problem.matrix": [[0.2, 0.0],
                                                       [0.0, 0.2]]})
    out = tmp_path / "o"
    assert run_cli("replicate", "--config", path, "--out", out) == 3
    assert_refused_unstable(out, capsys)


def test_replicate_names_a_singular_predicted_v(tmp_path, capsys):
    # noise only along the first axis: V has a zero row and column
    path = make_config(tmp_path, **{
        "problem.noise": {"kind": "gaussian", "cov": [[1.0, 0.0],
                                                      [0.0, 0.0]]},
        "experiment.horizon": 50, "experiment.n_replicates": 10,
        "experiment.checkpoints": None, "experiment.e0_mc_samples": 2000})
    assert run_cli("replicate", "--config", path,
                   "--out", tmp_path / "o") == 5
    err = capsys.readouterr().err
    assert "predicted covariance V is singular" in err
    assert len(err.strip().splitlines()) == 1


def test_singular_predicted_v_is_decided_before_simulating(tmp_path, capsys,
                                                            monkeypatch):
    def kernel(*args, **kwargs):
        raise AssertionError("the batch kernel was entered")

    monkeypatch.setattr("adaptix.montecarlo._simulate", kernel)
    path = make_config(tmp_path, **{
        "problem.noise": {"kind": "gaussian", "cov": [[1.0, 0.0],
                                                      [0.0, 0.0]]},
        "experiment.horizon": 50, "experiment.n_replicates": 10,
        "experiment.checkpoints": None, "experiment.e0_mc_samples": 2000})
    out = tmp_path / "o"
    assert run_cli("replicate", "--config", path, "--out", out) == 5
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["adaptix: error: predicted covariance V is singular; the "
                   "Mahalanobis test needs it invertible"]
    assert sorted(os.listdir(out)) == ["config.json", "prediction.json"]


@pytest.mark.parametrize("command", ["predict", "replicate"])
def test_nearly_unstable_w_exits_5_before_the_oracle_allocates(tmp_path,
                                                              command):
    # W = 1/2 - 0.25000000000000006 / E0 with E0 = 1/2 is -1.1e-16: the
    # oracle's horizon is 2.5e17, which once meant a 1.2e17-panel linspace
    path = make_config(tmp_path, **{
        "problem.dim": 1, "problem.matrix": 0.25000000000000006,
        "experiment.horizon": 50, "experiment.checkpoints": None})
    code, err = cli_stderr(command, "--config", path, "--out", tmp_path / "o")
    assert code == 5
    assert err == ["adaptix: error: integral oracle needs 1.49327e+18 "
                   "quadrature nodes (limit 100000) to reach t_max = "
                   "2.48878e+17; max eigenvalue real part of W = "
                   "-1.11022e-16"]


def test_the_tail_bound_refusal_names_no_knob_the_user_lacks(tmp_path):
    # W = [[-1.5, -800], [0, -1.5]]: the propagator has not decayed by the
    # oracle's horizon, and no flag or config key could lengthen it
    path = make_config(tmp_path, problem={
        "kind": "linear", "matrix": [[1.0, 400.0], [0.0, 1.0]]})
    code, err = cli_stderr("predict", "--config", path, "--out",
                           tmp_path / "o")
    assert code == 5
    assert len(err) == 1
    assert err[0].startswith("adaptix: error: ||exp(W t_max)|| = 1.474e-08 ")
    assert "too far from normal" in err[0]
    assert "increase t_max" not in err[0]


# At two workers the oracle and the prediction.json write run in this process
# while the blocks simulate; the other refusals come before any block
# simulates. Each must end the command as at one worker.
REFUSED_PREDICTIONS = {
    "oracle-nodes": ({"problem.dim": 1, "problem.matrix": 0.25000000000000006,
                      "experiment.horizon": 50,
                      "experiment.checkpoints": None}, None, 5, True),
    "singular-v": ({"problem.noise": {"kind": "gaussian",
                                      "cov": [[1.0, 0.0], [0.0, 0.0]]},
                    "experiment.horizon": 50, "experiment.n_replicates": 10,
                    "experiment.checkpoints": None}, None, 5, False),
    "unwritable-prediction": ({}, "prediction.json", 2, True),
    # W = 1/2 - 0.01/E0 with E0 = 0.5: prediction.json without V
    "unstable-w": ({"problem.dim": 1, "problem.matrix": 0.01,
                    "experiment.horizon": 50,
                    "experiment.checkpoints": None}, None, 3, False),
    "b42-monte-carlo-e0": ({"sigmoid": {"family": "plakhov_almeida",
                                        "u_minus": -5.0, "u_plus": 1.0},
                            "experiment.e0_mc_samples": 2000,
                            "experiment.horizon": 50,
                            "experiment.checkpoints": None}, None, 2, False),
}


def counted_workers(monkeypatch, tmp_path):
    """Fork real workers on a host of two CPUs. Returns the names of the
    workers made and a callable that counts the batch kernel's calls in
    every process, through a log file the forked workers inherit."""
    made = []
    log = tmp_path / "kernel.log"
    log.write_text("")
    simulate = montecarlo._simulate

    class CountedWorker(montecarlo._Worker):
        def __init__(self, name, *args, **kwargs):
            made.append(name)
            super().__init__(name, *args, **kwargs)

    def kernel(*args, **kwargs):
        with open(log, "a") as fh:
            fh.write("kernel\n")
        return simulate(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "_Worker", CountedWorker)
    monkeypatch.setattr(montecarlo, "_simulate", kernel)
    monkeypatch.setattr(montecarlo.os, "sched_getaffinity",
                        lambda pid: {0, 1})
    return made, lambda: len(log.read_text().splitlines())


def assert_no_worker_left():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def replicate_both_ways(tmp_path, capsys, path, code, blocked=None):
    """Stderr lines and artifacts of ``replicate`` at one and at two
    workers, each of which must exit ``code``; ``blocked`` names an
    artifact that a directory stands in the way of."""
    outcomes = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        if blocked is not None:
            (out / blocked).mkdir(parents=True)
        assert run_cli("replicate", "--config", path, "--out", out,
                       "--workers", workers) == code
        artifacts = {name: (out / name).read_bytes()
                     if (out / name).is_file() else None
                     for name in sorted(os.listdir(out))}
        outcomes.append((capsys.readouterr().err.splitlines(), artifacts))
    return outcomes


@pytest.mark.parametrize(("edits", "blocked", "code", "beside_blocks"),
                         REFUSED_PREDICTIONS.values(),
                         ids=REFUSED_PREDICTIONS.keys())
def test_a_refused_prediction_ends_alike_at_two_workers(tmp_path, capsys,
                                                        monkeypatch, edits,
                                                        blocked, code,
                                                        beside_blocks):
    made, kernels = counted_workers(monkeypatch, tmp_path)
    path = make_config(tmp_path, **edits)
    outcomes = replicate_both_ways(tmp_path, capsys, path, code, blocked)
    assert len(outcomes[0][0]) == 1
    assert outcomes[1] == outcomes[0]
    # both runs: no kernel call at one worker, one per block at two where
    # the refusal comes beside the blocks
    assert len(made) == 3 and kernels() == 2 * beside_blocks
    assert_no_worker_left()


def test_a_block_error_ends_alike_at_two_workers(tmp_path, capsys,
                                                 monkeypatch):
    made, _ = counted_workers(monkeypatch, tmp_path)

    def refused(plan, e0_value, lo, hi, out):
        raise NumericError(f"block from replicate {lo} refused")

    monkeypatch.setattr(montecarlo, "_run_block", refused)
    outcomes = replicate_both_ways(tmp_path, capsys, make_config(tmp_path), 5)
    assert outcomes[0][0] == ["adaptix: error: block from replicate 0 refused"]
    assert outcomes[1] == outcomes[0]
    assert len(made) == 3
    assert_no_worker_left()


@pytest.mark.parametrize("target, line", [
    ("_run_block", "the worker of block 1 of 2 (replicates 0 to 14) ended "
                   "without a report (killed by signal 9)"),
    ("resolve_e0", "the E0 worker ended without a report (killed by "
                   "signal 9)"),
])
def test_a_killed_worker_exits_5_naming_it(tmp_path, capsys, monkeypatch,
                                           target, line):
    made, kernels = counted_workers(monkeypatch, tmp_path)
    parent = os.getpid()
    original = getattr(montecarlo, target)

    def killed(*args):
        # only a forked worker's copy kills its process
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return original(*args)

    monkeypatch.setattr(montecarlo, target, killed)
    out = tmp_path / "out"
    assert run_cli("replicate", "--config", make_config(tmp_path),
                   "--out", out, "--workers", 2) == 5
    assert capsys.readouterr().err.splitlines() == [f"adaptix: error: {line}"]
    assert len(made) == 3
    # a killed E0 worker releases no block; the prediction needs E0
    assert kernels() == 0
    assert sorted(os.listdir(out)) == (
        ["config.json", "prediction.json"] if target == "_run_block"
        else ["config.json"])
    assert_no_worker_left()


def open_fds():
    """This process's open file descriptors, or None where the OS does not
    list them in /proc/self/fd."""
    if not os.path.isdir("/proc/self/fd"):
        return None
    return sorted(os.listdir("/proc/self/fd"))


@pytest.mark.parametrize("call, nth, error, line", [
    ("fork", 2, errno.EAGAIN, "the worker of block 1 of 2 (replicates 0 to "
                              "14) could not be started (Resource "
                              "temporarily unavailable)"),
    ("fork", 3, errno.EAGAIN, "the worker of block 2 of 2 (replicates 15 to "
                              "29) could not be started (Resource "
                              "temporarily unavailable)"),
    ("fork", 1, errno.EAGAIN, "the E0 worker could not be started (Resource "
                              "temporarily unavailable)"),
    ("pipe", 1, errno.EMFILE, "the go pipe of the blocks could not be opened "
                              "(Too many open files)"),
    ("pipe", 2, errno.EMFILE, "the E0 worker could not be started (Too many "
                              "open files)"),
    ("pipe", 3, errno.EMFILE, "the worker of block 1 of 2 (replicates 0 to "
                              "14) could not be started (Too many open "
                              "files)"),
    ("pipe", 4, errno.EMFILE, "the worker of block 2 of 2 (replicates 15 to "
                              "29) could not be started (Too many open "
                              "files)"),
], ids=["second-fork", "third-fork", "first-fork", "go-pipe",
        "e0-worker-pipe", "first-block-pipe", "second-block-pipe"])
def test_a_worker_that_cannot_be_started_exits_5_naming_it(
        tmp_path, capsys, monkeypatch, call, nth, error, line):
    made, kernels = counted_workers(monkeypatch, tmp_path)
    path = make_config(tmp_path)
    original = getattr(os, call)
    calls = []

    def refused():
        # the OS refuses this process its nth pipe or fork
        calls.append(call)
        if len(calls) == nth:
            raise OSError(error, os.strerror(error))
        return original()

    fds = open_fds()
    monkeypatch.setattr(os, call, refused)
    out = tmp_path / "out"
    assert run_cli("replicate", "--config", path, "--out", out,
                   "--workers", 2) == 5
    monkeypatch.undo()
    assert capsys.readouterr().err.splitlines() == [f"adaptix: error: {line}"]
    # every worker tried, the refused one too (the go pipe is opened
    # before any); those forked before the refusal simulate nothing
    assert len(made) == (nth if call == "fork" else nth - 1)
    assert kernels() == 0
    assert sorted(os.listdir(out)) == ["config.json"]
    assert_no_worker_left()
    assert open_fds() == fds


@pytest.mark.parametrize(("cpus", "pools"), [(2, 1), (None, 0)])
def test_replicate_runs_where_the_os_gives_no_affinity(tmp_path, monkeypatch,
                                                       cpus, pools):
    # macOS has no os.sched_getaffinity: the blocks are capped by the
    # machine's CPU count, or one block where that is unknown
    made, _ = counted_workers(monkeypatch, tmp_path)
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    path = make_config(tmp_path)
    artifacts = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        assert run_cli("replicate", "--config", path, "--out", out,
                       "--workers", workers) == 0
        artifacts.append({name: (out / name).read_bytes()
                          for name in sorted(os.listdir(out))})
    # the E0 worker and two blocks
    assert len(made) == 3 * pools
    assert len(artifacts[0]) == 4 and artifacts[1] == artifacts[0]


def test_replicate_runs_where_the_os_cannot_fork(tmp_path, monkeypatch):
    # Windows has no os.fork: one block, the bytes of one worker
    made, _ = counted_workers(monkeypatch, tmp_path)
    monkeypatch.delattr(os, "fork")
    path = make_config(tmp_path)
    assert montecarlo.block_count(load_config(path).plan, 2) == 1
    artifacts = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        assert run_cli("replicate", "--config", path, "--out", out,
                       "--workers", workers) == 0
        artifacts.append({name: (out / name).read_bytes()
                          for name in sorted(os.listdir(out))})
    assert made == []
    assert len(artifacts[0]) == 4 and artifacts[1] == artifacts[0]


MONTE_CARLO_E0 = {"sigmoid": {"family": "plakhov_almeida", "u_minus": -0.25,
                              "u_plus": 1.0},
                  "experiment.e0_mc_samples": 2000}


def test_a_pool_resolves_the_only_e0(tmp_path, monkeypatch):
    calls = []
    resolve_e0 = montecarlo.resolve_e0

    def counted(plan):
        calls.append(InlineWorker.running[-1] if InlineWorker.running
                     else "parent")
        return resolve_e0(plan)

    monkeypatch.setattr(montecarlo, "resolve_e0", counted)
    monkeypatch.setattr(config, "resolve_e0", counted)
    made = inline_workers(monkeypatch)
    path = make_config(tmp_path, **MONTE_CARLO_E0)
    artifacts = []
    for workers, resolved in ((1, ["parent", "parent"]),
                              (2, ["the E0 worker"])):
        calls.clear()
        out = tmp_path / f"w{workers}"
        assert run_cli("replicate", "--config", path, "--out", out,
                       "--workers", workers) == 0
        assert calls == resolved
        e0 = [(doc["e0"].hex(), doc["e0_stderr"].hex()) for doc in (
            json.loads((out / name).read_text())
            for name in ("prediction.json", "summary.json"))]
        assert e0[0] == e0[1] and float.fromhex(e0[0][1]) > 0
        artifacts.append({name: (out / name).read_bytes()
                          for name in sorted(os.listdir(out))})
    assert len(made) == 3
    assert len(artifacts[0]) == 4 and artifacts[1] == artifacts[0]


def test_replicate_coupling_summary(tmp_path):
    path = make_config(tmp_path, **{
        "experiment.couple_comparator": True,
        "experiment.horizon": 2000,
        "experiment.checkpoints": [100, 2000],
        "experiment.n_replicates": 40})
    out = tmp_path / "out"
    assert run_cli("replicate", "--config", path, "--out", out) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["coupling"]["decreasing"] is True
    assert len(summary["coupling"]["rows"]) == 2


def test_emit_flags_suppress_artifacts(tmp_path):
    path = make_config(tmp_path, **{
        "problem.dim": 1, "problem.matrix": [[2.0]],
        "experiment.horizon": 50, "experiment.checkpoints": None,
        "output.trajectory": False, "output.prediction": False})
    out = tmp_path / "out"
    assert run_cli("run", "--config", path, "--out", out) == 0
    assert not (out / "trajectory.csv").exists()
    assert (out / "summary.json").exists()

    assert run_cli("replicate", "--config", path, "--out", out) == 0
    assert not (out / "prediction.json").exists()
    assert (out / "checkpoints.csv").exists()

    quiet = make_config(tmp_path, name="quiet.json", **{
        "problem.dim": 1, "problem.matrix": [[2.0]],
        "experiment.horizon": 50, "experiment.checkpoints": None,
        "output.summary": False})
    out2 = tmp_path / "out2"
    assert run_cli("replicate", "--config", quiet, "--out", out2) == 0
    assert not (out2 / "summary.json").exists()
    assert not (out2 / "checkpoints.csv").exists()
    assert (out2 / "prediction.json").exists()


def test_output_dir_from_config(tmp_path):
    target = tmp_path / "from_config"
    path = make_config(tmp_path, **{"output.dir": str(target)})
    assert run_cli("predict", "--config", path) == 0
    assert (target / "prediction.json").exists()
    echoed = json.loads((target / "config.json").read_text())
    assert echoed["output"]["dir"] == str(target)


def test_config_json_escapes_control_characters(tmp_path):
    # a carriage return in output.dir must not make config.json invalid
    path = make_config(tmp_path, **{"output.dir": "x\ry"})
    out = tmp_path / "o"
    assert run_cli("predict", "--config", path, "--out", out) == 0
    echoed = json.loads((out / "config.json").read_text())
    assert echoed["output"]["dir"] == "x\ry"
    assert run_cli("predict", "--config", out / "config.json",
                   "--out", tmp_path / "replay") == 0
    assert (tmp_path / "replay" / "prediction.json").read_bytes() == \
        (out / "prediction.json").read_bytes()


def test_empty_output_dir_exits_2_with_one_line(tmp_path):
    path = make_config(tmp_path, **{"output.dir": ""})
    code, err = cli_stderr("predict", "--config", path)
    assert code == 2
    assert len(err) == 1
    assert err[0].startswith("adaptix: error: cannot write artifacts to "
                             "output directory ''")
    # a NUL in the name is refused by Python before any system call
    path = make_config(tmp_path, **{"output.dir": "a\u0000b"})
    code, err = cli_stderr("predict", "--config", path)
    assert code == 2
    assert err == ["adaptix: error: cannot write artifacts to output "
                   "directory 'a\\x00b': embedded null byte"]


@pytest.mark.parametrize(("name", "reason"), [
    ("missing.json", "cannot read config {!r}: No such file or directory"),
    ("a_directory", "cannot read config {!r}: Is a directory"),
    ("latin1.json", "config {!r} is not UTF-8: invalid continuation byte "
                    "at byte 13"),
    ("deep.json", "config is not valid JSON: maximum recursion depth "
                  "exceeded while decoding a JSON array from a unicode "
                  "string"),
    ("digits.json", "config is not valid JSON: Exceeds the limit (4300 "
                    "digits) for integer string conversion: value has 5000 "
                    "digits; use sys.set_int_max_str_digits() to increase "
                    "the limit")],
    ids=["missing", "directory", "not-utf8", "nested-too-deep",
         "too-many-digits"])
def test_unreadable_config_exits_2_with_one_line(tmp_path, name, reason):
    path = tmp_path / name
    if name == "a_directory":
        path.mkdir()
    elif name == "latin1.json":
        path.write_bytes('{"note": "caf\u00e9"}'.encode("latin-1"))
    elif name == "deep.json":
        path.write_text("[" * 200_000 + "]" * 200_000)
    elif name == "digits.json":
        path.write_text('{"note": ' + "1" * 5000 + "}")
    out = tmp_path / "o"
    code, err = cli_stderr("predict", "--config", path, "--out", out)
    assert code == 2
    assert err == ["adaptix: error: " + reason.format(str(path))]
    assert not out.exists()


def test_out_naming_a_file_exits_2_with_one_line(tmp_path):
    path = make_config(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    code, err = cli_stderr("run", "--config", path, "--out", taken)
    assert code == 2
    assert len(err) == 1
    assert err[0].startswith("adaptix: error: cannot write artifacts to "
                             f"output directory {str(taken)!r}")
    assert taken.read_text() == "not a directory"


@pytest.mark.parametrize(("command", "artifact", "written"), [
    ("run", "trajectory.csv", ["config.json"]),
    ("replicate", "checkpoints.csv", ["config.json", "prediction.json"]),
    ("predict", "prediction.json", ["config.json"]),
    ("predict", "config.json", [])])
def test_an_artifact_that_cannot_be_written_exits_2_naming_it(
        tmp_path, command, artifact, written):
    # a directory where the artifact goes: one line, no traceback
    path = make_config(tmp_path)
    out = tmp_path / "o"
    (out / artifact).mkdir(parents=True)
    code, err = cli_stderr(command, "--config", path, "--out", out)
    assert code == 2
    assert err == [f"adaptix: error: cannot write artifact {artifact}: "
                   "Is a directory"]
    assert sorted(os.listdir(out)) == sorted(written + [artifact])
    assert os.listdir(out / artifact) == []


@pytest.mark.parametrize("n_rep", [2**60, 2**50])
def test_replicate_records_too_large_to_allocate_exit_2(tmp_path, capsys,
                                                        n_rep):
    # numpy calls 2**60 replicates too big for an array; 2**50, whose x
    # alone is 48 PiB, exceeds any address space. The records are
    # allocated before E0, the prediction or any substream, so neither
    # grows memory and no prediction.json is written.
    path = make_config(tmp_path, **{"experiment.n_replicates": n_rep})
    out = tmp_path / "o"
    assert run_cli("replicate", "--config", path, "--out", out) == 2
    err = capsys.readouterr().err.strip().splitlines()
    # x and s at 3 checkpoints of dim 2, and diverged_at: 10 doubles each
    assert err == [f"adaptix: error: experiment.n_replicates = {n_rep} "
                   f"needs {n_rep * 80} bytes of replicate records, more "
                   "than can be allocated"]
    assert sorted(os.listdir(out)) == ["config.json"]


# ---------------------------------------------------------------------------
# validate


def test_validate_artifacts(tmp_path):
    path = make_config(tmp_path, **{"schedule.s_floor": 4.0})
    out = tmp_path / "out"
    assert run_cli("validate", "--config", path, "--out", out) == 0
    doc = json.loads((out / "validation.json").read_text())
    assert doc["all_pass"] is True
    assert len(doc["items"]) == 14
    ids = [item["check_id"] for item in doc["items"]]
    assert ids == sorted(ids) or len(set(ids)) == 14


def test_validate_fails_the_drift_checks_on_a_nan_drift(tmp_path):
    # phi overflows to +-inf past radius 1, so phi^T grad V, the B3.2
    # margin and the descent's V are NaN at some sampled points: each
    # fails its check and is the witness, written as a string
    path = make_config(tmp_path, **{
        "problem.matrix": [[1e308, 1e308], [-1e308, 1e308]],
        "schedule.s_floor": 2.0})
    out = tmp_path / "out"
    assert run_cli("validate", "--config", path, "--out", out) == 3
    doc = json.loads((out / "validation.json").read_text(),
                     parse_constant=lambda name: pytest.fail(name))
    assert doc["failed"] == ["B3.1c", "B3.1d", "B3.2", "B3.3"]
    items = {item["check_id"]: item for item in doc["items"]}
    assert items["B3.1c"]["witness"]["value"] == "nan"
    assert items["B3.1d"]["witness"]["v_after"] == "nan"
    assert items["B3.2"]["witness"]["margin"] == "nan"


def test_validate_flags_constant_schedule(tmp_path):
    path = make_config(tmp_path, **{
        "schedule": {"family": "constant", "gamma0": 0.1}})
    out = tmp_path / "out"
    assert run_cli("validate", "--config", path, "--out", out) == 3
    doc = json.loads((out / "validation.json").read_text())
    assert "B2.3" in doc["failed"]


@pytest.mark.parametrize("u_minus, seed", [
    (-5.0, 11),   # Monte Carlo E0 many standard errors below zero
    (-1.0, 1),    # estimate -0.0005 within noise of zero, still not positive
])
def test_validate_nonpositive_e0_is_an_assumption_failure(tmp_path, u_minus,
                                                          seed):
    path = make_config(tmp_path, **{
        "schedule.s_floor": 4.0,
        "sigmoid": {"family": "plakhov_almeida", "u_minus": u_minus,
                    "u_plus": 1.0}})
    out = tmp_path / "out"
    assert run_cli("validate", "--config", path, "--out", out,
                   "--seed", seed) == 3
    doc = json.loads((out / "validation.json").read_text())
    items = {item["check_id"]: item for item in doc["items"]}
    assert doc["failed"] == ["B4.2"]
    assert isinstance(items["B4.2"]["witness"], str)
    assert "not positive" in items["B4.2"]["witness"]
    assert items["B3.3"]["verdict"] == "not_checked"


def test_validate_judges_with_the_e0_predict_writes(tmp_path):
    # plakhov_almeida has no closed form: both commands draw a Monte Carlo
    # E0 of experiment.e0_mc_samples pairs from the same seed
    path = make_config(tmp_path, **{
        "schedule.s_floor": 4.0,
        "sigmoid": {"family": "plakhov_almeida", "u_minus": -0.5,
                    "u_plus": 1.0},
        "experiment.e0_mc_samples": 20_000})
    assert run_cli("predict", "--config", path, "--out",
                   tmp_path / "predict") == 0
    assert run_cli("validate", "--config", path, "--out",
                   tmp_path / "validate") == 0
    pred = json.loads((tmp_path / "predict" / "prediction.json").read_text())
    doc = json.loads((tmp_path / "validate" / "validation.json").read_text())
    items = {item["check_id"]: item for item in doc["items"]}
    e0 = f"E0 = {pred['e0']:.6g}"
    assert items["B3.3"]["detail"].endswith(f"with {e0} (monte_carlo)")
    assert items["B4.2"]["detail"] == (
        f"{e0} +/- {pred['e0_stderr']:.2g} (monte_carlo)")


@pytest.mark.parametrize("problem, radii", [
    (BASE_CONFIG["problem"], "(0.25, 0.5, 1.0, 2.0, 4.0, 8.0)"),
    ({"kind": "cubic1d", "a": 1.0, "c": 1.0}, "(0.25, 0.5, 1.0, 1.2)"),
])
def test_validate_details_render_plain_floats(tmp_path, problem, radii):
    path = make_config(tmp_path, problem=problem, **{
        "schedule.s_floor": 4.0, "init.x0": None})
    out = tmp_path / "out"
    assert run_cli("validate", "--config", path, "--out", out) == 0
    doc = json.loads((out / "validation.json").read_text())
    assert not [item for item in doc["items"]
                if "np.float64" in item["detail"]]
    items = {item["check_id"]: item for item in doc["items"]}
    assert items["B3.1c"]["detail"].endswith(f"x radii {radii}")


def test_validate_dict_witness_bytes(tmp_path):
    # W = 1/2 - 0.2/E0 with E0 = 1/2 is unstable; the witness is a dict
    path = make_config(tmp_path, **{
        "problem": {"kind": "linear", "dim": 1, "matrix": 0.2,
                    "noise": {"kind": "gaussian", "cov": 1.0}}})
    out = tmp_path / "out"
    assert run_cli("validate", "--config", path, "--out", out) == 3
    text = (out / "validation.json").read_text()
    assert ('      "witness": {\n'
            '        "real_parts": [\n'
            '          0.099999999999999978\n'
            '        ]\n'
            '      }\n') in text


def test_a_huge_problem_dim_exits_2_naming_it(tmp_path):
    # it used to end in numpy's _ArrayMemoryError traceback and exit 1
    path = make_config(tmp_path, **{"problem": {"kind": "linear",
                                                "dim": 10**6}})
    code, err = cli_stderr("predict", "--config", path, "--out",
                           tmp_path / "o")
    assert code == 2
    assert err == [f"adaptix: error: problem.dim must be <= {MAX_DIM}, got "
                   "1000000: the Lyapunov solve holds dim^4 floats"]


@pytest.mark.parametrize("problem, name", [
    ({"kind": "tanh", "dim": MAX_DIM + 1}, "problem.dim"),
    ({"kind": "linear", "root": [0.0] * (MAX_DIM + 1)}, "problem.dim"),
    ({"kind": "linear", "noise": {"dim": 10**6}}, "problem.dim"),
    ({"kind": "linear", "dim": 2, "noise": {"dim": 10**6}},
     "problem.noise.dim"),
])
def test_a_dim_above_the_bound_is_refused_at_once(tmp_path, capsys, problem,
                                                  name):
    path = make_config(tmp_path, problem=problem)
    assert run_cli("predict", "--config", path, "--out", tmp_path / "o") == 2
    assert f"{name} must be <= {MAX_DIM}" in capsys.readouterr().err


def test_validate_overflow_fails_its_checks_and_writes_the_report(tmp_path):
    # a field entry near the largest float overflows the drift checks; the
    # failed checks' witnesses record the infinity and the NaN margin
    # (inf - inf) as strings
    path = make_config(tmp_path, **{
        "problem": {"kind": "linear", "dim": 2,
                    "matrix": [[1e307, 0.0], [0.0, 1.0]]},
        "experiment": None})
    out = tmp_path / "out"
    code, err = cli_stderr("validate", "--config", path, "--out", out)
    assert code == 3
    assert err == ["adaptix: assumption check(s) failed: B3.1d, B3.2"]
    doc = json.loads((out / "validation.json").read_text())
    items = {item["check_id"]: item for item in doc["items"]}
    assert doc["failed"] == ["B3.1d", "B3.2"]
    assert items["B3.1d"]["witness"]["v_after"] == "inf"
    assert items["B3.2"]["witness"]["margin"] == "nan"


# J/E0 overflows: 1e308 / 0.5 is past the largest float
OVERFLOWING_W = {"problem": {"kind": "linear", "dim": 2,
                             "matrix": [[1e308, 0.0], [0.0, 1.0]]},
                 "experiment.horizon": 10, "experiment.n_replicates": 4,
                 "experiment.checkpoints": None}


def test_validate_records_an_overflowing_w_as_a_failed_b33(tmp_path):
    path = make_config(tmp_path, **OVERFLOWING_W)
    out = tmp_path / "out"
    code, err = cli_stderr("validate", "--config", path, "--out", out)
    assert code == 3
    assert err == ["adaptix: assumption check(s) failed: B3.1d, B3.2, B3.3"]
    doc = json.loads((out / "validation.json").read_text())
    items = {item["check_id"]: item for item in doc["items"]}
    # B3.2's margin is inf - inf off the second axis
    assert doc["failed"] == ["B3.1d", "B3.2", "B3.3"]
    assert len(items) == 14
    assert items["B3.3"]["verdict"] == "fail"
    witness = "W = I/2 - J/E0 is not finite at E0 = 0.5"
    assert items["B3.3"]["witness"] == witness


@pytest.mark.parametrize("command", ["predict", "replicate"])
def test_an_overflowing_w_exits_5_with_one_line(tmp_path, command):
    path = make_config(tmp_path, **OVERFLOWING_W)
    code, err = cli_stderr(command, "--config", path, "--out", tmp_path / "o")
    assert code == 5
    assert err == ["adaptix: error: W = I/2 - J/E0 is not finite at E0 = 0.5"]


def test_a_tiny_e0_exits_5_with_one_line(tmp_path):
    # E0 = 5e-301 leaves W = -1.5 stable, but E0^2 underflows to 0, so
    # S_xi / E0^2 is infinite
    path = make_config(tmp_path, **{
        "problem.dim": 1, "problem.matrix": 1e-300,
        "sigmoid": {"family": "kesten", "u_plus": 1e-300}})
    out = tmp_path / "o"
    code, err = cli_stderr("predict", "--config", path, "--out", out)
    assert code == 5
    assert err == ["adaptix: error: S_xi / E0^2 is not finite at "
                   "E0 = 5e-301"]
    assert not (out / "prediction.json").exists()


@pytest.mark.parametrize(("kind", "key", "name"), [
    ("uniform_ball", "radius", "ball radius"),
    ("scaled_rademacher", "scale", "rademacher scale")])
def test_a_noise_size_whose_square_overflows_exits_2_naming_it(
        tmp_path, kind, key, name):
    # the covariance squares the size, which overflows from about 1.3e154
    path = make_config(tmp_path, **{
        "problem.dim": 1, "problem.matrix": 1.0,
        "problem.noise": {"kind": kind, "dim": 1, key: 1e308}})
    out = tmp_path / "o"
    code, err = cli_stderr("predict", "--config", path, "--out", out)
    assert code == 2
    assert err == [f"adaptix: error: {name} 1e+308 is too large: its square "
                   "overflows a float"]
    assert not out.exists()


def test_a_huge_gaussian_cov_exits_2_with_the_b42_line_alone(tmp_path):
    # xi_1 xi_2 overflows in the Monte Carlo E0; the gate still reads its sign
    path = make_config(tmp_path, **{
        "problem.dim": 1, "problem.matrix": 1.0,
        "problem.noise": {"kind": "gaussian", "cov": 1e308},
        "sigmoid": {"family": "plakhov_almeida", "u_minus": -3.0,
                    "u_plus": 1.0},
        "experiment.e0_mc_samples": 2000})
    assert cli_stderr("predict", "--config", path, "--out", tmp_path / "o") \
        == (2, ["adaptix: error: estimated E0 = -0.994 +/- 0.045 is not "
                "positive [assumption B4.2]"])


# 3c overflows in the cubic's Jacobian, and inf * 0 at the root is NaN
NAN_JACOBIAN = {"problem": {"kind": "cubic1d", "a": 1.7976931348623157e308,
                            "c": 1e308},
                "experiment": None}


def test_a_nan_cubic_jacobian_exits_5_with_the_w_line_alone(tmp_path):
    path = make_config(tmp_path, **NAN_JACOBIAN)
    assert cli_stderr("predict", "--config", path, "--out", tmp_path / "o") \
        == (5, ["adaptix: error: W = I/2 - J/E0 is not finite at E0 = 0.5"])


def test_validate_records_a_nan_jacobian_as_a_failed_b34(tmp_path):
    path = make_config(tmp_path, **NAN_JACOBIAN)
    out = tmp_path / "out"
    code, err = cli_stderr("validate", "--config", path, "--out", out)
    assert (code, err) == (
        3, ["adaptix: assumption check(s) failed: B3.1d, B3.3, B3.4"])
    items = {item["check_id"]: item for item in json.loads(
        (out / "validation.json").read_text())["items"]}
    assert items["B3.4"] == {
        "check_id": "B3.4", "verdict": "fail",
        "detail": "the Jacobian at the root is not finite",
        "witness": {"jacobian": [["nan"]]}}


# the sum of u over 2000 pairs passes the largest float; u^2 does once
# u_plus is past about 1.3e154
@pytest.mark.parametrize(("u_minus", "u_plus", "reason"), [
    (-1e300, 1.7976931348623157e308,
     "Monte Carlo E0 = inf is not finite: a sum over 2000 noise pairs "
     "overflows"),
    (-1.0, 1e160,
     "the stderr of Monte Carlo E0 = 5.015e+159 is not finite: a sum of "
     "squares over 2000 noise pairs overflows"),
], ids=["estimate", "stderr"])
def test_a_non_finite_monte_carlo_e0_is_refused_where_it_is_decided(
        tmp_path, u_minus, u_plus, reason):
    path = make_config(tmp_path, **{
        "problem.dim": 1, "problem.matrix": 1.0,
        "sigmoid": {"family": "plakhov_almeida", "u_minus": u_minus,
                    "u_plus": u_plus},
        "experiment.e0_mc_samples": 2000, "experiment.horizon": 10,
        "experiment.n_replicates": 4, "experiment.checkpoints": None})
    for command in ("predict", "replicate"):
        out = tmp_path / command
        assert cli_stderr(command, "--config", path, "--out", out) == (
            5, [f"adaptix: error: {reason}"])
        assert sorted(os.listdir(out)) == ["config.json"]
    out = tmp_path / "validate"
    assert cli_stderr("validate", "--config", path, "--out", out) == (
        3, ["adaptix: assumption check(s) failed: B4.2"])
    items = {item["check_id"]: item for item in json.loads(
        (out / "validation.json").read_text())["items"]}
    assert items["B4.2"]["witness"] == reason
    assert items["B3.3"]["verdict"] == "not_checked"


@pytest.mark.parametrize(("doc", "code", "line"), [
    # each worker's E0 Monte Carlo overflows xi_1 xi_2 as the parent's does
    ({"problem": {"kind": "linear", "dim": 1, "matrix": 2.0,
                  "noise": {"kind": "gaussian", "cov": 1e308}},
      "sigmoid": {"family": "plakhov_almeida", "u_minus": -1.0,
                  "u_plus": 3.0},
      "schedule": {}, "experiment": {"horizon": 20, "n_replicates": 4,
                                     "e0_mc_samples": 2000}},
     4, "4 of 4 replicates diverged; too few survivors for statistics"),
    # one of the generator's extreme documents that reach the pool
    ({"problem": {"kind": "tanh", "dim": 1, "matrix": [[1e200]],
                  "root": -5e-324,
                  "noise": {"kind": "gaussian", "dim": 1, "cov": 1e-8}},
      "sigmoid": {"family": "kesten", "u_plus": 0.001, "at_zero": "midpoint"},
      "schedule": {"family": "power", "gamma0": 1.0, "p": 1e154},
      "experiment": {"horizon": 142, "n_replicates": 9, "master_seed": 0,
                     "couple_comparator": True,
                     "comparator_noise": "independent",
                     "e0_mc_samples": 2000}},
     5, "error: comparator iterate z is not finite in 9 of 9 surviving "
        "replicates, first at checkpoint t=10"),
], ids=["e0-overflow", "tanh-nan"])
def test_pool_workers_inherit_the_floating_point_policy(tmp_path, doc, code,
                                                        line):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert cli_stderr("replicate", "--config", path, "--out", tmp_path / "o",
                      "--workers", 2) == (code, [f"adaptix: {line}"])


def test_a_non_finite_artifact_value_names_its_file_and_column(tmp_path):
    # a constant gate of 1e308 overflows the counter to inf at t = 3
    path = make_config(tmp_path, **{
        "sigmoid": {"family": "constant", "c": 1e308},
        "experiment.horizon": 10, "experiment.checkpoints": None})
    code, err = cli_stderr("run", "--config", path, "--out", tmp_path / "o")
    assert code == 5
    assert err == ["adaptix: error: non-finite value inf in artifact "
                   "trajectory.csv, column s"]
    assert sorted(os.listdir(tmp_path / "o")) == ["config.json"]


def artifact_bytes(out) -> dict:
    return ({p.name: p.read_bytes() for p in sorted(out.iterdir())}
            if out.is_dir() else {})


def test_console_script_entry_point():
    # the script and python -m adaptix enter through the same function
    doc = json.loads(json.dumps(BASE_CONFIG))
    expected = outcome(doc, "predict")
    assert expected["exit"] == 0
    assert sorted(expected["artifacts"]) == ["config.json", "prediction.json"]
    for entry in PROCESS_ENTRIES.values():
        assert outcome(doc, "predict", entry=entry) == expected


def test_the_console_script_names_the_entry():
    tomllib = pytest.importorskip("tomllib")
    pyproject = os.path.join(os.path.dirname(__file__), os.pardir,
                             "pyproject.toml")
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"adaptix": "adaptix.__main__:console"}
    module, name = scripts["adaptix"].split(":")
    assert getattr(importlib.import_module(module), name) is \
        adaptix.__main__.console


#: Writes the three BLAS thread variables, as numpy is first imported, to
#: stderr as a JSON list; loaded by a fresh interpreter as sitecustomize.
BLAS_PROBE = """\
import json, os, sys

class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            sys.meta_path.remove(self)
            sys.stderr.write(json.dumps([os.environ.get(v) for v in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS")]) + "\\n")
        return None

sys.meta_path.insert(0, Probe())
"""


def blas_threads_at_numpy_import(tmp_path, argv, **preset):
    """The BLAS thread variables a fresh interpreter running ``argv`` has
    when it first imports numpy, with the three removed from its
    environment and then ``preset`` set."""
    (tmp_path / "sitecustomize.py").write_text(BLAS_PROBE)
    env = {k: v for k, v in os.environ.items()
           if k not in adaptix.__main__.BLAS_THREAD_VARIABLES}
    env.update(preset)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(tmp_path), env.get("PYTHONPATH")]))
    proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stderr.splitlines()[0])


@pytest.mark.parametrize("entry", sorted(PROCESS_ENTRIES))
@pytest.mark.parametrize("preset, seen", [
    ({}, ["1", "1", "1"]),
    ({"OPENBLAS_NUM_THREADS": "2"}, ["2", "1", "1"]),
    ({"OMP_NUM_THREADS": "3", "MKL_NUM_THREADS": ""}, ["1", "3", ""]),
])
def test_each_process_entry_defaults_blas_to_one_thread(tmp_path, entry,
                                                        preset, seen):
    # numpy is first imported by the entry itself, so --help sees it
    argv = PROCESS_ENTRIES[entry] + ["--help"]
    assert blas_threads_at_numpy_import(tmp_path, argv, **preset) == seen


def test_importing_adaptix_sets_no_blas_variable(tmp_path):
    argv = [sys.executable, "-c", "import adaptix, adaptix.__main__, "
            "adaptix.cli"]
    assert blas_threads_at_numpy_import(tmp_path, argv) == [None] * 3


def array_memory_error():
    """numpy's MemoryError for an array of 10**13 x 2 floats."""
    try:
        from numpy._core._exceptions import _ArrayMemoryError
    except ImportError:  # numpy < 2
        from numpy.core._exceptions import _ArrayMemoryError
    return _ArrayMemoryError((10**13, 2), np.dtype(np.float64))


#: Its reason line: "... Unable to allocate 146. TiB for an array with
#: shape (10000000000000, 2) and data type float64" in numpy 2.4.
NUMPY_OOM_LINE = f"adaptix: error: out of memory: {array_memory_error()}"


@pytest.mark.parametrize("error, line", [
    (array_memory_error, NUMPY_OOM_LINE),
    (MemoryError, "adaptix: error: out of memory"),
], ids=["numpy", "bare"])
def test_memory_that_runs_out_exits_5(tmp_path, capsys, monkeypatch, error,
                                      line):
    def noise_blocks(*args):
        raise error()

    monkeypatch.setattr(core, "_noise_blocks", noise_blocks)
    out = tmp_path / "out"
    assert run_cli("replicate", "--config", make_config(tmp_path), "--out",
                   out, "--workers", 1) == 5
    assert capsys.readouterr().err.splitlines() == [line]
    assert sorted(os.listdir(out)) == ["config.json", "prediction.json"]


def test_memory_that_runs_out_in_a_block_worker_exits_5(tmp_path):
    # a fresh interpreter on a host of two CPUs: only a forked block
    # worker raises, so the error reaches main pickled
    probe = ("import os, sys\n"
             "from adaptix import core\n"
             "from adaptix.cli import main\n"
             "from test_cli import array_memory_error\n"
             "parent = os.getpid()\n"
             "noise_blocks = core._noise_blocks\n"
             "def failing(*args):\n"
             "    if os.getpid() != parent:\n"
             "        raise array_memory_error()\n"
             "    return noise_blocks(*args)\n"
             "core._noise_blocks = failing\n"
             "os.sched_getaffinity = lambda pid: {0, 1}\n"
             "sys.exit(main(sys.argv[1:]))\n")
    out = tmp_path / "out"
    argv = ["replicate", "--config", str(make_config(tmp_path)), "--out",
            str(out), "--workers", "2"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.dirname(__file__),
                      os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", probe, *argv],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 5
    assert proc.stderr.splitlines() == [NUMPY_OOM_LINE]
    assert sorted(os.listdir(out)) == ["config.json", "prediction.json"]


def test_memory_that_runs_out_in_the_e0_worker_exits_5(tmp_path):
    # a fresh interpreter on a host of two CPUs: only the forked E0 worker
    # raises, in the Monte Carlo of a plakhov_almeida gate, so the error
    # reaches main pickled before any prediction is written
    probe = ("import os, sys\n"
             "from adaptix import schedules\n"
             "from adaptix.cli import main\n"
             "from test_cli import array_memory_error\n"
             "parent = os.getpid()\n"
             "monte_carlo = schedules.e0_monte_carlo\n"
             "def failing(*args):\n"
             "    if os.getpid() != parent:\n"
             "        raise array_memory_error()\n"
             "    return monte_carlo(*args)\n"
             "schedules.e0_monte_carlo = failing\n"
             "os.sched_getaffinity = lambda pid: {0, 1}\n"
             "sys.exit(main(sys.argv[1:]))\n")
    path = make_config(tmp_path, **{
        "sigmoid": {"family": "plakhov_almeida", "u_minus": -0.5,
                    "u_plus": 1.0},
        "experiment.e0_mc_samples": 2000})
    out = tmp_path / "out"
    argv = ["replicate", "--config", str(path), "--out", str(out),
            "--workers", "2"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.dirname(__file__),
                      os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", probe, *argv],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 5
    assert proc.stderr.splitlines() == [NUMPY_OOM_LINE]
    assert sorted(os.listdir(out)) == ["config.json"]


#: A lazy scipy import per command: a non-diagonal W's oracle imports
#: scipy.linalg, and replicate's normality test scipy.special.
FAILED_IMPORTS = {
    "predict": ("scipy.linalg",
                {"problem.matrix": [[1.5, 0.5], [0.0, 3.0]]},
                ["config.json"]),
    "replicate": ("scipy.special", {}, ["config.json", "prediction.json"]),
}


def failed_import_line(module):
    return (f"adaptix: error: cannot import {module}: import of {module} "
            "halted; None in sys.modules")


@pytest.mark.parametrize("command", sorted(FAILED_IMPORTS))
def test_a_module_that_cannot_be_imported_exits_5(tmp_path, capsys,
                                                  monkeypatch, command):
    module, edits, artifacts = FAILED_IMPORTS[command]
    monkeypatch.setitem(sys.modules, module, None)
    out = tmp_path / "out"
    assert run_cli(command, "--config", make_config(tmp_path, **edits),
                   "--out", out) == 5
    assert capsys.readouterr().err.splitlines() == [
        failed_import_line(module)]
    assert sorted(os.listdir(out)) == artifacts


@pytest.mark.parametrize("command", sorted(FAILED_IMPORTS))
def test_a_module_that_cannot_be_imported_exits_5_from_the_process_entry(
        tmp_path, command):
    # python -m adaptix, with the module blocked before adaptix starts
    module, edits, artifacts = FAILED_IMPORTS[command]
    site = tmp_path / "site"
    site.mkdir()
    (site / "sitecustomize.py").write_text(
        f"import sys\nsys.modules[{module!r}] = None\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(site), os.environ.get("PYTHONPATH")])))
    out = tmp_path / "out"
    proc = subprocess.run(
        PROCESS_ENTRIES["module"] + [
            command, "--config", str(make_config(tmp_path, **edits)),
            "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 5
    assert proc.stderr.splitlines() == [failed_import_line(module)]
    assert sorted(os.listdir(out)) == artifacts


@pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
# fd 2 closed before Python starts (sys.stderr is None) or after
@pytest.mark.parametrize("stream", ["full", "closed", "closed_late"])
@pytest.mark.parametrize("command, code, edits", [
    # the reason line of main's handler
    ("predict", 2, {"problem": None}),
    # the reason line of _finish
    ("replicate", 4, {"problem.dim": 1, "problem.matrix": [[1.0]],
                      "experiment.n_replicates": 20,
                      "tolerances.cov_tol": 1e-6,
                      "tolerances.normality_min_replicates": 2}),
])
def test_a_reason_line_that_cannot_be_written_keeps_the_exit_code(
        tmp_path, command, code, edits, stream, buffering):
    if stream == "full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    path = make_config(tmp_path, **edits)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if buffering == "unbuffered":
        env["PYTHONUNBUFFERED"] = "1"
    args = [command, "--config", str(path), "--out"]
    entry = [sys.executable, "-m", "adaptix"]
    normal = subprocess.run(entry + args + [str(tmp_path / "normal")],
                            env=env, capture_output=True, text=True,
                            timeout=120)
    assert normal.returncode == code
    assert len(normal.stderr.splitlines()) == 1
    out = tmp_path / "o"
    run = functools.partial(subprocess.run, args=entry + args + [str(out)],
                            env=env, stdout=subprocess.PIPE, timeout=120)
    if stream == "full":
        with open("/dev/full", "w") as full:
            proc = run(stderr=full)
    elif stream == "closed":
        proc = run(preexec_fn=lambda: os.close(2))
    else:
        proc = run(args=[sys.executable, "-c",
                         "import os, runpy; os.close(2); runpy.run_module("
                         "'adaptix', run_name='__main__', alter_sys=True)",
                         *args, str(out)])
    assert (proc.returncode, proc.stdout) == (code, b"")
    assert artifact_bytes(out) == artifact_bytes(tmp_path / "normal")


MODULES_PROBE = ("import json, sys\n"
                 "from adaptix.cli import main\n"
                 "code = main(sys.argv[1:])\n"
                 "print(json.dumps([code, sorted(sys.modules)]))\n")


def loaded_modules(tmp_path, command, path, workers=1):
    """Exit code and ``sys.modules`` of one command, ``replicate`` at
    ``--workers``."""
    argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
    if command == "replicate":
        argv += ["--workers", str(workers)]
    proc = subprocess.run([sys.executable, "-c", MODULES_PROBE, *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


POOL = ("concurrent.futures.process", "multiprocessing")


@pytest.mark.parametrize("command, workers, edits, codes, absent", [
    ("run", 1, {}, {0}, "scipy"),
    ("validate", 1, {}, {0, 3}, "scipy"),
    ("predict", 1, {}, {0}, "scipy.stats"),
    ("replicate", 1, {}, {0}, "scipy.stats"),
    # W is diagonal, so the oracle exponentiates in numpy; one worker forks
    # no pool
    ("predict", 1, {}, {0}, ("scipy",) + POOL),
    ("replicate", 1, {}, {0}, ("scipy.linalg",) + POOL),
    ("run", 1, {}, {0}, POOL),
    # the parent imports scipy while a worker runs the E0 Monte Carlo, but
    # only the scipy the command computes with
    ("replicate", 2, {}, {0}, ("scipy.linalg", "scipy.stats")),
    ("replicate", 2, MONTE_CARLO_E0, {0}, ("scipy.linalg", "scipy.stats")),
    # adaptix's own modules too; a diagonal W's oracle needs no
    # numpy.polynomial either
    ("run", 1, {}, {0}, ("adaptix.montecarlo", "adaptix.asymptotics",
                         "adaptix.report", "numpy.polynomial")),
    ("predict", 1, {}, {0}, ("adaptix.core", "adaptix.montecarlo",
                             "adaptix.report", "numpy.polynomial")),
    ("validate", 1, {}, {0, 3}, "adaptix.montecarlo"),
])
def test_commands_import_only_the_scipy_they_compute_with(tmp_path, command,
                                                          workers, edits,
                                                          codes, absent):
    # A fresh interpreter: this process has long since imported scipy.stats.
    if isinstance(absent, str):
        absent = (absent,)
    code, modules = loaded_modules(tmp_path, command,
                                   make_config(tmp_path, **edits), workers)
    assert code in codes
    assert [m for m in modules
            if m in absent or m.startswith(tuple(a + "." for a in absent))
            ] == []


@pytest.mark.parametrize("edits", [{}, MONTE_CARLO_E0],
                         ids=["exact-e0", "monte-carlo-e0"])
def test_two_workers_fork_without_a_process_pool(tmp_path, edits):
    # A fresh interpreter on a host of two CPUs, whatever this one has:
    # replicate forks the E0 worker and both blocks itself, and loads
    # neither the process pool nor multiprocessing.
    probe = ("import json, os, sys\n"
             "from adaptix.cli import main\n"
             "forks = []\n"
             "fork = os.fork\n"
             "def counted():\n"
             "    forks.append(os.getpid())\n"
             "    return fork()\n"
             "os.fork = counted\n"
             "os.sched_getaffinity = lambda pid: {0, 1}\n"
             "code = main(sys.argv[1:])\n"
             "print(json.dumps([code, len(forks), sorted(sys.modules)]))\n")
    argv = ["replicate", "--config", str(make_config(tmp_path, **edits)),
            "--out", str(tmp_path / "out"), "--workers", "2"]
    proc = subprocess.run([sys.executable, "-c", probe, *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, forks, modules = json.loads(proc.stdout.splitlines()[-1])
    assert (code, forks) == (0, 3)
    assert [m for m in modules
            if m in POOL or m.startswith(tuple(p + "." for p in POOL))] == []


def test_import_adaptix_loads_no_submodule_until_a_name_is_used():
    probe = ("import json, sys\n"
             "import adaptix\n"
             "loaded = [m for m in sys.modules if m.startswith('adaptix.')]\n"
             "names = {}\n"
             "exec('from adaptix import *', names)\n"
             "unbound = [n for n in adaptix.__all__ if n not in names]\n"
             "print(json.dumps([loaded, unbound]))\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], []]


@pytest.mark.parametrize("command, workers, edits", [
    ("predict", 1, {}),
    ("replicate", 2, MONTE_CARLO_E0),
])
def test_a_non_diagonal_w_loads_scipy_linalg(tmp_path, command, workers,
                                             edits):
    path = make_config(tmp_path, **{"problem.matrix": [[1.5, 0.2],
                                                       [0.0, 3.0]], **edits})
    code, modules = loaded_modules(tmp_path, command, path, workers)
    assert code == 0
    assert "scipy.linalg" in modules


# ---------------------------------------------------------------------------
# exit codes


NOISE_SIZE_KEY = {"gaussian": "cov", "uniform_ball": "radius",
                  "scaled_rademacher": "scale"}


@st.composite
def small_configs(draw):
    def number(lo, hi):
        return draw(st.floats(lo, hi).map(lambda v: round(v, 2)))

    kind = draw(st.sampled_from(["linear", "tanh", "cubic1d"]))
    dim = 1 if kind == "cubic1d" else draw(st.integers(1, 3))
    noise_kind = draw(st.sampled_from(sorted(NOISE_SIZE_KEY)))
    noise = {"kind": noise_kind, "dim": dim,
             NOISE_SIZE_KEY[noise_kind]: draw(st.sampled_from([0.0, 0.5, 1.0,
                                                               2.0]))}
    if kind == "cubic1d":
        problem = {"kind": kind, "a": number(0.1, 3.0), "c": number(0.1, 3.0),
                   "noise": noise}
    else:
        problem = {"kind": kind, "dim": dim, "noise": noise,
                   "matrix": [[number(-0.5, 3.0) if i == j else 0.0
                               for j in range(dim)] for i in range(dim)]}
    family = draw(st.sampled_from(["constant", "kesten", "plakhov_almeida",
                                   "smooth"]))
    u_plus = number(0.1, 2.0)
    sigmoid = {"family": family, "u_plus": u_plus}
    if family == "constant":
        sigmoid = {"family": family, "c": u_plus}
    elif family == "plakhov_almeida":
        sigmoid["u_minus"] = number(-6.0, -0.01)
    elif family == "smooth":
        sigmoid["u_minus"] = round(u_plus - number(0.0, 3.0), 2)
        sigmoid["beta"] = number(0.1, 2.0)
    schedule = draw(st.sampled_from([
        {"family": "reciprocal", "s_floor": 2.0},
        {"family": "reciprocal", "s_floor": 0.5},
        {"family": "power", "gamma0": 0.5, "p": 0.8},
        {"family": "power", "gamma0": 1.0, "p": 1.5},
        {"family": "constant", "gamma0": 0.3},
        {"family": "constant", "gamma0": 2.5},
    ]))
    experiment = {
        "horizon": draw(st.integers(1, 300)),
        "n_replicates": draw(st.integers(2, 20)),
        "master_seed": draw(st.integers(0, 3)),
        "couple_comparator": draw(st.booleans()),
        "comparator_noise": draw(st.sampled_from(["shared", "independent"])),
        "divergence_bound": draw(st.sampled_from([10.0, 1e12])),
        "e0_mc_samples": 2000,
    }
    return {"problem": problem, "sigmoid": sigmoid, "schedule": schedule,
            "experiment": experiment}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(doc=small_configs(),
       command=st.sampled_from(["predict", "run", "replicate", "validate"]))
def test_every_outcome_is_a_documented_exit_code(doc, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stderr(io.StringIO()):
            code = run_cli(command, "--config", path,
                           "--out", os.path.join(tmp, "out"))
    assert code in (0, 2, 3, 4, 5)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(doc=small_configs())
def test_config_echo_is_a_fixed_point(doc):
    try:
        first = dumps_json(canonical_config(parse_config(doc)))
    except (ConfigError, DimensionMismatchError):
        assume(False)
    second = dumps_json(canonical_config(parse_config(json.loads(first))))
    assert second == first
