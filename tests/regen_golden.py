"""Write the golden corpus that tests/test_golden.py replays.

    PYTHONPATH=src python tests/regen_golden.py [--out tests/golden.json]

The corpus is the first ``COUNT`` tame documents of ``SEED`` from
tests/documents.py, every one kept whatever its outcome. Each document
runs ``predict``, ``run``, ``replicate --workers 1`` and ``validate``
in-process. ``replicate --workers 2`` runs too on every
``WORKERS_2_EVERY``-th document and on every document whose gate and noise
have no closed-form E0, where the forked E0 worker runs the E0 Monte
Carlo. A run is recorded as its exit code, its first stderr line (null when
there is none) and the SHA-256 of each artifact it wrote.

A change that moves bits regenerates the file and names each changed entry
with its cause; ``git diff`` on the file shows which.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from documents import COMMANDS, documents, outcome, tame

SEED = 22
COUNT = 60
WORKERS_2_EVERY = 10


def record(doc: dict, command: str, workers: int) -> dict:
    result = outcome(doc, command, workers)
    return {"command": command, "workers": workers, "exit": result["exit"],
            "stderr": (result["stderr"] or [None])[0],
            "artifacts": result["artifacts"]}


def monte_carlo_e0(doc: dict) -> bool:
    """Whether the document's gate and noise have no closed-form E0: a
    constant gate has one, and so has a kesten gate with continuous noise
    (see ``adaptix.schedules.e0_exact``)."""
    family = doc["sigmoid"]["family"]
    continuous = doc["problem"]["noise"]["kind"] != "scaled_rademacher"
    return not (family == "constant" or (family == "kesten" and continuous))


def corpus() -> dict:
    entries = []
    for i, doc in enumerate(documents(SEED, COUNT, tame)):
        runs = [(command, 1) for command in COMMANDS]
        if i % WORKERS_2_EVERY == 0 or monte_carlo_e0(doc):
            runs.append(("replicate", 2))
        entries.append({"config": doc,
                        "runs": [record(doc, *run) for run in runs]})
    return {"seed": SEED, "documents": entries}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "golden.json"))
    args = parser.parse_args(argv)
    with open(args.out, "w") as fh:
        json.dump(corpus(), fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
