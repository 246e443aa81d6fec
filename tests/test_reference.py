"""Artifact bytes against the benchmark's recorded digests.

``bench/reference.json`` holds the SHA-256 of every artifact each benchmark
workload writes, per CLI seed. Replaying a few of those commands here makes
a byte drift fail the test suite, not only the benchmark. The file is only
read.
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
]


@pytest.mark.parametrize("workload, label, command, extra", CASES,
                         ids=[f"{c[2]}-{c[0]}" for c in CASES])
def test_artifacts_match_the_bench_reference(tmp_path, workload, label,
                                             command, extra):
    reference = json.loads((BENCH / "reference.json").read_text())
    expected = reference["digests"][workload][str(SEED)][label]
    config = BENCH / "configs" / f"{workload}.json"
    out = tmp_path / "out"
    code = main([command, "--config", str(config), "--out", str(out),
                 "--seed", str(SEED), *extra])
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.iterdir())}
    assert code == expected["exit"]
    assert digests == expected["sha256"]
