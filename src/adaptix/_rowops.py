"""Row-local array kernels used by every simulation path.

The batch engine vectorises across replicates, so a replicate's values must
never depend on which other replicates share the batch. These helpers keep
every reduction along the (small, fixed) state dimension with a fixed
accumulation order and use only elementwise broadcasting along the batch
axis. BLAS-backed matmul is deliberately avoided here: its blocking can
change rounding with the batch size, which would break bit-identical
worker-count invariance.
"""

from __future__ import annotations

import numpy as np


def apply_rows(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Matrix-vector product per row: ``out[..., i] = sum_j m[i, j] x[..., j]``.

    Accumulates over columns in fixed ascending order.
    """
    out = np.zeros(x.shape[:-1] + (m.shape[0],), dtype=np.float64)
    for j in range(m.shape[1]):
        out += x[..., j, None] * m[:, j]
    return out


def dot_rows(a: np.ndarray, b: np.ndarray):
    """Per-row inner product over the last axis."""
    return (a * b).sum(axis=-1)


def norm_rows(a: np.ndarray):
    """Per-row Euclidean norm over the last axis."""
    return np.sqrt(np.sum(a * a, axis=-1))
