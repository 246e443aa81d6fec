"""Bytes of ``adaptix validate`` on the benchmark configs.

``bench/reference.json`` records no ``validate`` run, so the SHA-256 of its
artifacts at CLI seed 3 is pinned here: a byte drift in the checklist (its
E0 route, a detail string, a witness) fails the suite. single_long and
ensemble share their problem, schedule and gate, so their validation.json
bytes agree.
"""

import hashlib
from pathlib import Path

import pytest

from adaptix.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "bench" / "configs"
SEED = 3

DIGESTS = {
    "single_long": {
        "config.json": "eadad79a9e75e0ceae018bd21965e28596ac3df3ab06a3e17150"
                       "f7917647b62c",
        "validation.json": "fb10268598d6f98064149a03033fd8c5d41d92dbe270a5a5"
                           "7f635323bfb12ac0",
    },
    "ensemble": {
        "config.json": "5c9408bd8869b623951b895c6e15a23c6224e3a28ad009123781"
                       "bb8c149ccaa7",
        "validation.json": "fb10268598d6f98064149a03033fd8c5d41d92dbe270a5a5"
                           "7f635323bfb12ac0",
    },
    "wide_coupled": {
        "config.json": "f42a00e0a688877d171fee9d82ae9f6d1a36fabd53880509d91d"
                       "654c1ac4651d",
        "validation.json": "d774cbbab52c4b821f0ee5a0bae001590d913b793584503d"
                           "e1337719785bf6ee",
    },
}


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_validate_artifacts_keep_their_bytes(tmp_path, workload):
    out = tmp_path / "out"
    code = main(["validate", "--config", str(CONFIGS / f"{workload}.json"),
                 "--out", str(out), "--seed", str(SEED)])
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.iterdir())}
    assert code == 0
    assert digests == DIGESTS[workload]
