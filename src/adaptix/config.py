"""Strict JSON run configuration.

Every key is checked: unknown keys are rejected with their dotted path,
wrong types and non-finite numbers name the offending path, and omitted
keys fall back to documented defaults. The keys and defaults of each
problem kind and of each schedule, gate and noise family are declared once,
next to the kind or family (``problems.PROBLEM_KINDS``,
``schedules.SCHEDULE_FAMILIES``, ``schedules.SIGMOID_FAMILIES``,
``noise.KINDS``); the keys of the experiment, tolerances and output
sections are declared once here (``EXPERIMENT_KEYS``, ``TOLERANCE_KEYS``,
``OUTPUT_KEYS``), with their defaults on the ``ExperimentPlan`` and
``RunConfig`` fields they set. Parsing and the echo both read those tables,
and the spec classes make every value check. ``canonical_config`` renders
the fully resolved configuration back to a plain dict (all defaults
explicit) so the echoed config.json is a faithful, replayable record of the
run.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

import numpy as np

from .core import InitialConditions
from .errors import ConfigError
from .montecarlo import DEFAULT_COV_TOL, DEFAULT_KS_SCALE, ExperimentPlan
from .noise import KINDS as NOISE_KINDS
from .noise import NoiseModel
from .problems import PROBLEM_KINDS, ProblemSpec, build_problem
from .schedules import (SCHEDULE_FAMILIES, SIGMOID_FAMILIES, SigmoidSpec,
                        StepSchedule)


def _dotted(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _check_object(data, path: str) -> None:
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'config'} must be an object")


def _check_keys(data: dict, path: str, allowed) -> None:
    _check_object(data, path)
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        names = ", ".join(_dotted(path, k) for k in unknown)
        raise ConfigError(f"unknown key(s): {names}")


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number, got {value!r}")
    # false for NaN and +-Infinity, which json accepts, and for ints too
    # large for a float
    if not -sys.float_info.max <= value <= sys.float_info.max:
        raise ConfigError(f"{path} must be finite, got {value!r}")
    return float(value)


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path} must be an integer, got {value!r}")
    return int(value)


def _boolean(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path} must be true or false, got {value!r}")
    return value


def _string(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path} must be a string, got {value!r}")
    return value


def _vector(value, path: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path} must be a non-empty list of numbers")
    return np.array([_number(v, f"{path}[{i}]") for i, v in enumerate(value)])


def _matrix(value, path: str) -> np.ndarray:
    if not isinstance(value, list) or not value \
            or not all(isinstance(row, list) for row in value):
        raise ConfigError(f"{path} must be a list of rows")
    rows = [_vector(row, f"{path}[{i}]") for i, row in enumerate(value)]
    if len({row.shape[0] for row in rows}) != 1:
        raise ConfigError(f"{path} rows have inconsistent lengths")
    return np.vstack(rows)


def _choice(data, path: str, tag: str, names, default=None) -> str:
    """The family or kind named under ``tag``, checked against ``names``."""
    _check_object(data, path)
    if default is None and tag not in data:
        raise ConfigError(f"missing required key: {_dotted(path, tag)}")
    name = _string(data.get(tag, default), _dotted(path, tag))
    if name not in names:
        raise ConfigError(f"{_dotted(path, tag)} must be one of "
                          f"{', '.join(names)}; got {name!r}")
    return name


def _parse_family(data, path: str, table: dict, default=None):
    """A schedule or gate family and the values of its declared keys.

    A key is read where given, else filled by the first given key its
    declaration names, else defaulted; a key declared None is required.
    Every given key is type-checked, also one that fills nothing.
    """
    family = _choice(data, path, "family", table, default)
    keys = table[family]
    fills = {key: d for key, d in keys.items() if isinstance(d, tuple)}
    _check_keys(data, path, ("family", *keys, *sum(fills.values(), ())))
    values = {}
    for key, declared in keys.items():
        names = (key, *fills.get(key, ()))
        read = _string if isinstance(declared, str) else _number
        given = [read(data[name], _dotted(path, name))
                 for name in names if name in data]
        if given:
            values[key] = given[0]
        elif declared is None or key in fills:
            raise ConfigError(
                f"missing required key: {_dotted(path, names[-1])}")
        else:
            values[key] = declared
    return family, values


def _parse_noise(data, path: str, default_dim: int) -> NoiseModel:
    """A noise model; only a gaussian ``cov`` may also be a list."""
    kind = _choice(data, path, "kind", NOISE_KINDS, "gaussian")
    (key, default), = NOISE_KINDS[kind].items()
    _check_keys(data, path, ("kind", "dim", key))
    dim = _integer(data.get("dim", default_dim), _dotted(path, "dim"))
    size, size_path = data.get(key, default), _dotted(path, key)
    if kind != "gaussian" or not isinstance(size, list):
        size = _number(size, size_path)
    elif size and isinstance(size[0], list):
        size = _matrix(size, size_path)
    else:
        size = _vector(size, size_path)
    return NoiseModel(kind=kind, dim=dim, **{key: size})


def _infer_dim(data: dict, path: str) -> int:
    if "dim" in data:
        return _integer(data["dim"], _dotted(path, "dim"))
    matrix = data.get("matrix")
    if isinstance(matrix, list):
        return len(matrix)
    root = data.get("root")
    if isinstance(root, list):
        return len(root)
    noise = data.get("noise")
    if isinstance(noise, dict):
        if isinstance(noise.get("dim"), int) and noise["dim"] >= 1:
            return noise["dim"]
        cov = noise.get("cov")
        if isinstance(cov, list):
            return len(cov)
    return 1


def _number_or_matrix(value, path: str):
    return (_matrix if isinstance(value, list) else _number)(value, path)


def _root(value, path: str):
    """A number, a list, or null for the origin."""
    if value is None:
        return None
    return (_vector if isinstance(value, list) else _number)(value, path)


def _parse_problem(data, path: str = "problem") -> ProblemSpec:
    """The keys ``data`` gives, passed to ``problems.build_problem``."""
    kind = _choice(data, path, "kind", PROBLEM_KINDS)
    keys = PROBLEM_KINDS[kind]
    _check_keys(data, path, ("kind", *keys))
    dim = _infer_dim(data, path)
    if dim < 1:
        raise ConfigError(f"{_dotted(path, 'dim')} must be >= 1, got {dim}")
    readers = {"noise": lambda value, at: _parse_noise(value, at, dim)}
    if keys["dim"] is None:
        readers.update(matrix=_number_or_matrix, root=_root,
                       lyap_matrix=_matrix)
    return build_problem(kind, dim, **{
        key: readers.get(key, _number)(data[key], _dotted(path, key))
        for key in keys if key != "dim" and key in data})


def _parse_sigmoid(data, path: str = "sigmoid") -> SigmoidSpec:
    family, values = _parse_family(data, path, SIGMOID_FAMILIES)
    return SigmoidSpec(family=family, **values)


def _parse_schedule(data, path: str = "schedule") -> StepSchedule:
    family, values = _parse_family(data, path, SCHEDULE_FAMILIES,
                                   "reciprocal")
    return StepSchedule(family=family, **values)


def _parse_init(data: dict, problem: ProblemSpec,
                path: str = "init") -> InitialConditions:
    _check_keys(data, path, ("x0", "s0", "s1"))
    x0 = data.get("x0")
    if x0 is None:
        x0 = problem.root + 1.0
    elif isinstance(x0, list):
        x0 = _vector(x0, _dotted(path, "x0"))
    else:
        x0 = np.full(problem.dim, _number(x0, _dotted(path, "x0")))
    counters = {key: _number(data[key], _dotted(path, key))
                for key in ("s0", "s1") if key in data}
    try:
        return InitialConditions(x0=x0, **counters)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _checkpoints(value, path: str) -> tuple:
    """A list of integer times; null stands for the default checkpoints."""
    if not isinstance(value, (list, type(None))):
        raise ConfigError(f"{path} must be a list")
    return tuple(_integer(t, f"{path}[{i}]")
                 for i, t in enumerate(value or ()))


@dataclass(frozen=True, eq=False)
class RunConfig:
    plan: ExperimentPlan
    cov_tol: float = DEFAULT_COV_TOL
    ks_scale: float = DEFAULT_KS_SCALE
    max_diverged_fraction: float = 0.01
    normality_min_replicates: int = 500
    out_dir: str = "."
    emit_trajectory: bool = True
    emit_summary: bool = True
    emit_prediction: bool = True

    def __post_init__(self):
        for key in ("cov_tol", "ks_scale"):
            if not getattr(self, key) > 0:
                raise ConfigError(f"tolerances.{key} must be > 0, "
                                  f"got {getattr(self, key)}")
        if not self.max_diverged_fraction >= 0:
            raise ConfigError("tolerances.max_diverged_fraction must be "
                              f">= 0, got {self.max_diverged_fraction}")


# Each key of the experiment, tolerances and output sections, in config.json
# order, with the ExperimentPlan or RunConfig field it sets and the reader of
# its value. An omitted key leaves the field at its dataclass default.
EXPERIMENT_KEYS = {
    "horizon": ("horizon", _integer),
    "n_replicates": ("n_replicates", _integer),
    "master_seed": ("master_seed", _integer),
    "checkpoints": ("checkpoints", _checkpoints),
    "couple_comparator": ("couple_comparator", _boolean),
    "comparator_noise": ("comparator_noise", _string),
    "divergence_bound": ("divergence_bound", _number),
    "e0_mc_samples": ("e0_mc_samples", _integer),
}
TOLERANCE_KEYS = {
    "cov_tol": ("cov_tol", _number),
    "ks_scale": ("ks_scale", _number),
    "max_diverged_fraction": ("max_diverged_fraction", _number),
    "normality_min_replicates": ("normality_min_replicates", _integer),
}
OUTPUT_KEYS = {
    "dir": ("out_dir", _string),
    "trajectory": ("emit_trajectory", _boolean),
    "summary": ("emit_summary", _boolean),
    "prediction": ("emit_prediction", _boolean),
}


def _parse_section(data, path: str, table: dict) -> dict:
    """The fields set by the keys ``data`` gives, read as ``table`` says."""
    _check_keys(data, path, table)
    return {field: read(data[key], _dotted(path, key))
            for key, (field, read) in table.items() if key in data}


def parse_config(data: dict) -> RunConfig:
    _check_keys(data, "", ("problem", "sigmoid", "schedule", "init",
                           "experiment", "tolerances", "output"))
    for key in ("problem", "sigmoid", "schedule"):
        if key not in data:
            raise ConfigError(f"missing required key: {key}")
    problem = _parse_problem(data["problem"])
    sigmoid = _parse_sigmoid(data["sigmoid"])
    schedule = _parse_schedule(data["schedule"])
    init = _parse_init(data.get("init", {}), problem)
    plan = ExperimentPlan(
        problem=problem, schedule=schedule, sigmoid=sigmoid, init=init,
        **_parse_section(data.get("experiment", {}), "experiment",
                         EXPERIMENT_KEYS))
    return RunConfig(
        plan=plan,
        **_parse_section(data.get("tolerances", {}), "tolerances",
                         TOLERANCE_KEYS),
        **_parse_section(data.get("output", {}), "output", OUTPUT_KEYS))


def _reject_duplicates(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise ConfigError(f"duplicate key in config: {key}")
        seen[key] = value
    return seen


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh, object_pairs_hook=_reject_duplicates)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    return parse_config(data)


def _declared(spec, tag: str, keys) -> dict:
    """``spec`` under its ``tag`` and declared keys, arrays as nested lists."""
    return {tag: getattr(spec, tag),
            **{key: np.asarray(getattr(spec, key)).tolist() for key in keys}}


def _echo(obj, table: dict) -> dict:
    """The fields ``table`` names under their keys, a tuple as a list."""
    echo = {}
    for key, (field, _) in table.items():
        value = getattr(obj, field)
        echo[key] = list(value) if isinstance(value, tuple) else value
    return echo


def _problem_echo(problem: ProblemSpec) -> dict:
    """The problem's declared keys; a value of None (no B3.2 margin) is
    left out."""
    keys = PROBLEM_KINDS[problem.kind]
    echo = {"kind": problem.kind}
    for key in keys:
        value = getattr(problem, key)
        if isinstance(value, NoiseModel):
            value = _declared(value, "kind", ("dim", *NOISE_KINDS[value.kind]))
        elif isinstance(value, np.ndarray):
            value = value.tolist() if keys["dim"] is None else value.item()
        if value is not None:
            echo[key] = value
    return echo


def canonical_config(cfg: RunConfig) -> dict:
    """Fully resolved configuration with every default made explicit."""
    plan = cfg.plan
    sigmoid, schedule = plan.sigmoid, plan.schedule
    return {
        "problem": _problem_echo(plan.problem),
        "sigmoid": _declared(sigmoid, "family",
                             SIGMOID_FAMILIES[sigmoid.family]),
        "schedule": _declared(schedule, "family",
                              SCHEDULE_FAMILIES[schedule.family]),
        "init": {"x0": plan.init.x0.tolist(), "s0": plan.init.s0,
                 "s1": plan.init.s1},
        "experiment": _echo(plan, EXPERIMENT_KEYS),
        "tolerances": _echo(cfg, TOLERANCE_KEYS),
        "output": _echo(cfg, OUTPUT_KEYS),
    }
