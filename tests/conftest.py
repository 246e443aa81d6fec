"""One BLAS and OpenMP thread per test process, as ``bench/run.py`` sets
for its children: the suite's matrices are a few rows across, where a
thread pool costs more CPU time than it saves. Set here, before any test
module imports numpy; a value already in the environment is kept."""

import os

for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(name, "1")
