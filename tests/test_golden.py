"""The golden corpus: exit codes, reason lines and artifact bytes of every
command on the generator's tame documents.

tests/golden.json holds each document with its runs, as written by
tests/regen_golden.py. A change that moves any recorded outcome
regenerates the file and names each changed entry with its cause.
"""

import json
import os

import pytest
from documents import NOISE_SIZE_KEY, documents, outcome, tame

with open(os.path.join(os.path.dirname(__file__), "golden.json")) as fh:
    GOLDEN = json.load(fh)

ENTRIES = GOLDEN["documents"]


def test_the_corpus_is_the_generators_documents():
    configs = [entry["config"] for entry in ENTRIES]
    assert documents(GOLDEN["seed"], len(configs), tame) == configs


def test_the_corpus_covers_every_family_and_exit_code():
    configs = [entry["config"] for entry in ENTRIES]
    seen = {
        "kind": {c["problem"]["kind"] for c in configs},
        "noise": {c["problem"]["noise"]["kind"] for c in configs},
        "gate": {c["sigmoid"]["family"] for c in configs},
        "at_zero": {c["sigmoid"].get("at_zero") for c in configs},
        "schedule": {c["schedule"].get("family") for c in configs},
        "comparator": {(c["experiment"]["couple_comparator"],
                        c["experiment"]["comparator_noise"])
                       for c in configs},
        "init": set().union(*(c["init"] for c in configs)),
        "exit": {run["exit"] for entry in ENTRIES for run in entry["runs"]},
    }
    assert seen == {
        "kind": {"linear", "tanh", "cubic1d"},
        "noise": set(NOISE_SIZE_KEY),
        "gate": {"constant", "kesten", "plakhov_almeida", "smooth"},
        "at_zero": {None, "left", "right", "midpoint"},
        "schedule": {None, "reciprocal", "power", "constant"},
        "comparator": {(coupled, noise) for coupled in (False, True)
                       for noise in ("shared", "independent")},
        "init": {"x0", "s0", "s1"},
        "exit": {0, 2, 3, 4, 5},
    }
    assert any("divergence_bound" in c["experiment"] for c in configs)


def test_two_workers_record_what_one_records():
    pairs = 0
    for entry in ENTRIES:
        runs = {(run["command"], run["workers"]): run for run in entry["runs"]}
        if ("replicate", 2) in runs:
            pairs += 1
            assert runs["replicate", 2] == dict(runs["replicate", 1],
                                                workers=2)
    assert pairs >= 5


def test_replicate_writes_the_prediction_that_predict_writes():
    pairs = 0
    for entry in ENTRIES:
        written = {(run["command"], run["workers"]):
                   run["artifacts"]["prediction.json"]
                   for run in entry["runs"]
                   if "prediction.json" in run["artifacts"]}
        for workers in (1, 2):
            if ("predict", 1) in written and ("replicate", workers) in written:
                pairs += 1
                assert written["replicate", workers] == written["predict", 1]
    assert pairs >= 40      # 47 in this corpus


@pytest.mark.parametrize("index", range(len(ENTRIES)))
def test_the_cli_replays_the_golden_corpus(index):
    entry = ENTRIES[index]
    for run in entry["runs"]:
        result = outcome(entry["config"], run["command"], run["workers"])
        assert {"command": run["command"], "workers": run["workers"],
                "exit": result["exit"],
                "stderr": (result["stderr"] or [None])[0],
                "artifacts": result["artifacts"]} == run
