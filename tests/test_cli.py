"""Command-line harness: config parsing, artifacts, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adaptix.asymptotics import MAX_DIM
from adaptix.cli import main
from adaptix.config import canonical_config, load_config, parse_config
from adaptix.core import run_trajectory
from adaptix.errors import (ConfigError, DimensionMismatchError,
                            DivergedTrajectoryError)
from adaptix.schedules import gamma_eval
from adaptix.serialize import dumps_json, write_csv

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


def test_predict_unstable_exits_3_and_omits_v(tmp_path):
    path = make_config(tmp_path, **{"problem.matrix": [[0.2, 0.0],
                                                       [0.0, 0.2]]})
    out = tmp_path / "out"
    assert run_cli("predict", "--config", path, "--out", out) == 3
    pred = json.loads((out / "prediction.json").read_text())
    assert pred["stable"] is False
    assert "V" not in pred
    assert "oracle_max_abs_diff" not in pred


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
    # columnar writer must give the bytes of a row-by-row rendering of the
    # same trajectory
    runs = []

    def recording_run_trajectory(*args, **kwargs):
        runs.append(run_trajectory(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr("adaptix.cli.run_trajectory", recording_run_trajectory)
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
    rows = [[int(traj.t[i]), float(traj.s[i]),
             float(gamma_eval(schedule, float(traj.s[i])))] + list(traj.x[i])
            for i in range(len(traj.t))]
    assert len(rows) == 12_502 and rows[-2][0] == 25_000
    assert rows[-1][0] == 25_001
    expected = tmp_path / "expected.csv"
    write_csv(expected, ["t", "s", "gamma", "x_0"], rows)
    assert (out / "trajectory.csv").read_bytes() == expected.read_bytes()


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


def test_replicate_unstable_exits_3(tmp_path):
    path = make_config(tmp_path, **{"problem.matrix": [[0.2, 0.0],
                                                       [0.0, 0.2]]})
    assert run_cli("replicate", "--config", path,
                   "--out", tmp_path / "o") == 3


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


@pytest.mark.parametrize(("name", "reason"), [
    ("missing.json", "cannot read config {!r}: No such file or directory"),
    ("a_directory", "cannot read config {!r}: Is a directory"),
    ("latin1.json", "config {!r} is not UTF-8: invalid continuation byte "
                    "at byte 13")], ids=["missing", "directory", "not-utf8"])
def test_unreadable_config_exits_2_with_one_line(tmp_path, name, reason):
    path = tmp_path / name
    if name == "a_directory":
        path.mkdir()
    elif name == "latin1.json":
        path.write_bytes('{"note": "caf\u00e9"}'.encode("latin-1"))
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


def test_workers_env_fallback(tmp_path, monkeypatch):
    path = make_config(tmp_path)
    serial = tmp_path / "serial"
    assert run_cli("replicate", "--config", path, "--out", serial,
                   "--workers", "1") == 0
    monkeypatch.setenv("ADAPTIX_WORKERS", "2")
    out = tmp_path / "env"
    assert run_cli("replicate", "--config", path, "--out", out) == 0
    assert (out / "checkpoints.csv").read_bytes() == \
           (serial / "checkpoints.csv").read_bytes()
    monkeypatch.setenv("ADAPTIX_WORKERS", "many")
    assert run_cli("replicate", "--config", path,
                   "--out", tmp_path / "bad") == 2


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
    # failed checks' witnesses record the infinities as strings
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
    assert items["B3.2"]["witness"]["margin"] == "-inf"


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
    assert err == ["adaptix: assumption check(s) failed: B3.1d, B3.3"]
    doc = json.loads((out / "validation.json").read_text())
    items = {item["check_id"]: item for item in doc["items"]}
    assert doc["failed"] == ["B3.1d", "B3.3"]
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


def test_a_non_finite_artifact_value_names_its_file_and_column(tmp_path):
    # a constant gate of 1e308 overflows the counter to inf at t = 3
    path = make_config(tmp_path, **{
        "sigmoid": {"family": "constant", "c": 1e308},
        "experiment.horizon": 10, "experiment.checkpoints": None})
    code, err = cli_stderr("run", "--config", path, "--out", tmp_path / "o")
    assert code == 5
    assert err == ["adaptix: error: non-finite value inf in artifact "
                   "trajectory.csv, column s"]


def test_console_script_entry_point(tmp_path):
    path = make_config(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "adaptix", "predict", "--config", str(path),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


MODULES_PROBE = ("import json, sys\n"
                 "from adaptix.cli import main\n"
                 "code = main(sys.argv[1:])\n"
                 "print(json.dumps([code, sorted(sys.modules)]))\n")


def loaded_modules(tmp_path, command, path):
    """Exit code and ``sys.modules`` of one command at ``--workers 1``."""
    argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
    if command == "replicate":
        argv += ["--workers", "1"]
    proc = subprocess.run([sys.executable, "-c", MODULES_PROBE, *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


POOL = ("concurrent.futures.process", "multiprocessing")


@pytest.mark.parametrize("command, codes, absent", [
    ("run", {0}, "scipy"),
    ("validate", {0, 3}, "scipy"),
    ("predict", {0}, "scipy.stats"),
    ("replicate", {0}, "scipy.stats"),
    # W is diagonal, so the oracle exponentiates in numpy; one worker forks
    # no pool
    ("predict", {0}, ("scipy",) + POOL),
    ("replicate", {0}, ("scipy.linalg",) + POOL),
    ("run", {0}, POOL),
])
def test_commands_import_only_the_scipy_they_compute_with(tmp_path, command,
                                                          codes, absent):
    # A fresh interpreter: this process has long since imported scipy.stats.
    if isinstance(absent, str):
        absent = (absent,)
    code, modules = loaded_modules(tmp_path, command, make_config(tmp_path))
    assert code in codes
    assert [m for m in modules
            if m in absent or m.startswith(tuple(a + "." for a in absent))
            ] == []


def test_a_non_diagonal_w_loads_scipy_linalg(tmp_path):
    path = make_config(tmp_path, **{"problem.matrix": [[1.5, 0.2],
                                                       [0.0, 3.0]]})
    code, modules = loaded_modules(tmp_path, "predict", path)
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
