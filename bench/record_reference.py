#!/usr/bin/env python3
"""Write bench/reference.json: the artifact digests run.py checks against.

    python3 bench/record_reference.py [workload ...]

Runs ``adaptix predict`` and the workload command once for each of the
``CLI_SEEDS`` seeds and records its exit code and the SHA-256 of every
artifact. Regenerate it only when a change is meant to alter artifact bytes.
A run that prints a traceback or exits with a code other than 0 (success)
or 4 (statistical gate failed, with every artifact written) is not
recorded, so run.py reports that seed as failed.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import (CLI_SEEDS, REFERENCE, ROOT, WORKLOADS, cli_argv,
                 probe_environment, run_child)


def main(names) -> int:
    ref = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {
        "digests": {}}
    work = Path(tempfile.mkdtemp(prefix=".bench-", dir=ROOT))
    bad = 0
    try:
        probe_environment(work)
        for name in names:
            workload = WORKLOADS[name]
            table = ref["digests"].setdefault(name, {})
            for seed in range(CLI_SEEDS):
                entry = {}
                for role, command in (("predict", "predict"),
                                      ("main", workload.command)):
                    out = work / "out"
                    run = run_child([sys.executable, "-m", "adaptix"]
                                    + cli_argv(workload, command, seed, out),
                                    f"{name}-{seed}-{role}", out, work, None)
                    print(f"{name} seed {seed} {role}: exit {run.exit_code} "
                          f"{run.wall_s:.2f} s {run.problems or ''}",
                          flush=True)
                    if run.exit_code in (0, 4) and \
                            "traceback on stderr" not in run.problems:
                        entry[role] = {"exit": run.exit_code,
                                       "sha256": run.digests}
                if len(entry) == 2:
                    table[str(seed)] = entry
                else:
                    bad += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or sorted(WORKLOADS)))
