"""Artifact bytes against the benchmark's recorded digests.

``bench/reference.json`` holds the SHA-256 of every artifact each benchmark
workload writes, per CLI seed. Replaying a few of those commands here makes
a byte drift fail the test suite, not only the benchmark. ``run`` takes the
one-replicate float lane, not the batch loop that ``replicate`` takes, so it
is replayed on every recorded seed. So is ``predict`` on ``wide_coupled``:
its Monte Carlo E0 runs the ball sampler and the plakhov_almeida gate on a
fresh stream at each seed. The file is only read.
"""

import hashlib
import json
from pathlib import Path

import pytest

from adaptix.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEED = 3

CASES = [
    ("single_long", "predict", "predict", []),
    ("ensemble", "predict", "predict", []),
    ("wide_coupled", "predict", "predict", []),
    ("single_long", "main", "run", []),
    ("ensemble", "main", "replicate", ["--workers", "1"]),
    # the ball sampler, the Monte Carlo E0 and the coupled comparator, in
    # one process and split over two
    ("wide_coupled", "main", "replicate", ["--workers", "1"]),
    ("wide_coupled", "main", "replicate", ["--workers", "2"]),
]


def _case_id(case):
    workload, _, command, extra = case
    workers = extra[1] if extra else "1"
    return f"{command}-{workload}" + ("" if workers == "1"
                                      else f"-workers{workers}")


def assert_matches_reference(tmp_path, workload, label, command, seed,
                             extra=()):
    reference = json.loads((BENCH / "reference.json").read_text())
    expected = reference["digests"][workload][str(seed)][label]
    config = BENCH / "configs" / f"{workload}.json"
    out = tmp_path / "out"
    code = main([command, "--config", str(config), "--out", str(out),
                 "--seed", str(seed), *extra])
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.iterdir())}
    assert code == expected["exit"]
    assert digests == expected["sha256"]


@pytest.mark.parametrize("workload, label, command, extra", CASES,
                         ids=[_case_id(c) for c in CASES])
def test_artifacts_match_the_bench_reference(tmp_path, workload, label,
                                             command, extra):
    assert_matches_reference(tmp_path, workload, label, command, SEED, extra)


@pytest.mark.parametrize("seed", [s for s in range(16) if s != SEED])
def test_run_matches_the_bench_reference_on_every_seed(tmp_path, seed):
    # seed 3 is the run-single_long case above
    assert_matches_reference(tmp_path, "single_long", "main", "run", seed)


@pytest.mark.parametrize("seed", [s for s in range(16) if s != SEED])
def test_wide_coupled_predict_matches_the_bench_reference_on_every_seed(
        tmp_path, seed):
    # seed 3 is the predict-wide_coupled case above
    assert_matches_reference(tmp_path, "wide_coupled", "predict", "predict",
                             seed)
