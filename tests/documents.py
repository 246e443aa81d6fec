"""Seeded configuration documents and in-process runs of the CLI on them.

One generator serves two tests. ``document(rng, draw)`` builds a config
document over every problem kind, noise kind, gate and schedule family,
``at_zero`` value and comparator mode, with ``init``, ``divergence_bound``
and the tolerances drawn too; every magnitude comes from ``draw(rng)``.

* ``extreme`` draws from the edges of the float range, for the property
  test of the exit-code contract (tests/test_exit_contract.py);
* ``tame`` draws rounded values of order one, for the golden corpus
  (tests/golden.json, replayed by tests/test_golden.py and written by
  tests/regen_golden.py).

The generator uses ``random.Random``, whose draws do not change between
Python versions for a given seed, so a seed names the same documents.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile

from adaptix.cli import main

COMMANDS = ("predict", "run", "replicate", "validate")

#: The magnitudes of an extreme document: subnormal, tiny, order one, huge,
#: squares that overflow and the largest float.
MAGNITUDES = (5e-324, 1e-300, 1e-160, 1e-8, 1e-3, 0.5, 1.0, 3.0, 1e8,
              1e154, 1e200, 1e308, sys.float_info.max)

NOISE_SIZE_KEY = {"gaussian": "cov", "uniform_ball": "radius",
                  "scaled_rademacher": "scale"}


def extreme(rng: random.Random) -> float:
    return rng.choice(MAGNITUDES)


def tame(rng: random.Random) -> float:
    return round(rng.uniform(0.1, 3.0), 2)


def document(rng: random.Random, draw) -> dict:
    """One config document; each magnitude is ``draw(rng)``.

    A key that must be positive is negated or zero now and then, so that
    some documents exit 2; a key of either sign is negated half the time.
    Horizons, replicate counts and Monte Carlo sizes stay small.
    """
    def size():
        pick = rng.random()
        if pick < 0.01:
            return 0.0
        return -draw(rng) if pick < 0.02 else draw(rng)

    def signed():
        value = draw(rng)
        return -value if rng.random() < 0.5 else value

    def maybe(probability):
        return rng.random() < probability

    kind = rng.choice(("linear", "tanh", "cubic1d"))
    dim = 1 if kind == "cubic1d" else rng.randint(1, 3)
    noise_kind = rng.choice(sorted(NOISE_SIZE_KEY))
    noise = {"kind": noise_kind, "dim": dim,
             NOISE_SIZE_KEY[noise_kind]: size()}
    if noise_kind == "gaussian":
        # a zero covariance makes V singular, which replicate refuses
        pick = rng.random()
        if pick < 0.3:
            noise["cov"] = 0.0
        elif pick < 0.5:
            noise["cov"] = [size() for _ in range(dim)]
    if kind == "cubic1d":
        problem = {"kind": kind, "a": size(), "c": size(), "noise": noise}
    else:
        problem = {"kind": kind, "dim": dim, "noise": noise}
        if maybe(0.25):
            problem["matrix"] = size()
        else:
            off = maybe(0.25)
            problem["matrix"] = [
                [size() if i == j else (signed() if off else 0.0)
                 for j in range(dim)] for i in range(dim)]
        if maybe(0.15):
            problem["lyap_matrix"] = [[size() if i == j else 0.0
                                       for j in range(dim)]
                                      for i in range(dim)]
        for key in ("b32_radius", "b32_beta0"):
            if maybe(0.25):
                problem[key] = size()
    if maybe(0.3):
        problem["root"] = signed()

    family = rng.choice(("constant", "kesten", "plakhov_almeida", "smooth"))
    if family == "constant":
        sigmoid = {"family": family, "c": size()}
    elif family == "smooth":
        sigmoid = {"family": family, "u_minus": signed(), "u_plus": size(),
                   "beta": size()}
    else:
        sigmoid = {"family": family, "u_plus": size()}
        if family == "plakhov_almeida":
            sigmoid["u_minus"] = -size()
        if maybe(0.75):
            sigmoid["at_zero"] = rng.choice(("left", "right", "midpoint"))

    schedule = rng.choice((
        {},
        {"family": "reciprocal", "s_floor": size()},
        {"family": "power", "gamma0": size(), "p": size()},
        {"family": "constant", "gamma0": size()},
    ))

    init = {}
    if maybe(0.5):
        init["x0"] = signed()
    for key in ("s0", "s1"):
        if maybe(0.3):
            init[key] = size()

    horizon = rng.randint(1, 150)
    experiment = {
        "horizon": horizon,
        "n_replicates": rng.randint(2, 12),
        "master_seed": rng.randint(0, 9),
        "couple_comparator": maybe(0.5),
        "comparator_noise": rng.choice(("shared", "independent")),
        "e0_mc_samples": 2000,
    }
    if maybe(0.3):
        experiment["divergence_bound"] = size()
    if maybe(0.3):
        experiment["checkpoints"] = sorted(
            rng.sample(range(1, horizon + 1), min(horizon, 3)))

    doc = {"problem": problem, "sigmoid": sigmoid, "schedule": schedule,
           "init": init, "experiment": experiment}
    if maybe(0.3):
        doc["tolerances"] = {"normality_min_replicates": 2,
                             "cov_tol": size(), "ks_scale": size()}
    return doc


def documents(seed: int, count: int, draw) -> list:
    rng = random.Random(seed)
    return [document(rng, draw) for _ in range(count)]


def outcome(doc: dict, command: str, workers: int = 1) -> dict:
    """One in-process run of ``command`` on ``doc``: the exit code, the
    stderr lines and the SHA-256 of every artifact written. ``workers``
    goes to ``replicate``, the one command that takes it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        out = os.path.join(tmp, "out")
        argv = [command, "--config", path, "--out", out]
        if command == "replicate":
            argv += ["--workers", str(workers)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
        artifacts = {}
        if os.path.isdir(out):
            for name in sorted(os.listdir(out)):
                with open(os.path.join(out, name), "rb") as fh:
                    artifacts[name] = hashlib.sha256(fh.read()).hexdigest()
    return {"exit": code, "stderr": err.getvalue().splitlines(),
            "artifacts": artifacts}
