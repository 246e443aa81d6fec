"""Row-local array kernels used by every simulation path.

The batch engine vectorises across replicates, so a replicate's values must
never depend on which other replicates share the batch. These helpers keep
every reduction along the (small, fixed) state dimension with a fixed
accumulation order and use only elementwise broadcasting along the batch
axis. BLAS-backed matmul is deliberately avoided here: its blocking can
change rounding with the batch size, which would break bit-identical
worker-count invariance.

Column order. A batch has thousands of rows and only a few columns, and
numpy runs a reduction or a broadcast along a short last axis as one inner
loop per row, at some 20-28 ns a row. So a 2-D batch is evaluated a whole
column at a time (one numpy call, about 1 us, per column), in exactly the
order of the row-wise form:

* a mat-vec fills an ``(out_dim, rows)`` buffer of zeros with
  ``acc += x.T[j] * m[:, j, None]`` for ascending ``j``, the same products
  and sums, operands in the same order, as ``out += x[..., j, None] *
  m[:, j]``. It matches or beats the row-wise loop at every 2-D size, so
  every ``x`` takes it, reshaped to 2-D when it has another rank;
* a row sum of fewer than ``_PAIRWISE_COLUMNS`` columns, at any rank and
  row count, starts from ``p[..., 0] + 0.0`` and adds the columns in
  ascending order. That is what ``np.add.reduce`` does on a row of fewer
  than 8 elements, whatever the memory order (the ``+ 0.0`` is its zero
  start, which turns a -0.0 first term into +0.0).

A sum of 8 or more columns keeps the row-wise form. There ``np.add.reduce``
sums a contiguous row pairwise, with eight partial sums, but the rows of an
F-ordered array one column at a time; so it reduces a C-contiguous copy,
and a replicate's sum does not depend on the memory order of its batch.

A single state held as a tuple of Python floats (the one-replicate lane of
``core._simulate``) takes the same operations on floats: ``apply_rows`` and
``dot_rows`` accumulate from a zero start in the orders above. For a sum
that is ``np.add.reduce``'s order only below ``_PAIRWISE_COLUMNS`` columns,
so the lane runs only there.

Only the payload of a NaN (its sign bit) may differ between the two forms:
numpy's own loops pass on the first or the second operand's NaN depending
on where an element falls in a vector loop, so it was never row-local.
"""

from __future__ import annotations

from operator import mul

import numpy as np

#: Row length from which ``np.add.reduce`` sums a contiguous row pairwise.
_PAIRWISE_COLUMNS = 8
#: Rows per pass when a long row-local evaluation is split so that its rows
#: and temporaries stay in a 2 MiB L2 cache; splitting changes no bit.
_ROW_CHUNK = 8192


def _dot_left(a, b):
    """Inner product of two float tuples: ``a[j] * b[j]`` added left to
    right from a zero start, rounding once per term (``sum`` compensates
    the round-off from Python 3.12 on, which numpy's sums do not)."""
    acc = 0.0
    for t in map(mul, a, b):
        acc += t
    return acc


def _column_sum(p: np.ndarray):
    """Sum over the last axis, in ``np.add.reduce``'s order on C rows."""
    columns = p.shape[-1]
    if not 0 < columns < _PAIRWISE_COLUMNS:
        return np.add.reduce(np.ascontiguousarray(p), axis=-1)
    acc = p[..., 0] + 0.0
    for j in range(1, columns):
        acc += p[..., j]
    return acc


def _column_matvec(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``out[r, i] = sum_j m[i, j] x[r, j]`` for a 2-D ``x``, a column of
    ``x`` at a time; ascending ``j`` from a zero start. The result is the
    transpose of an ``(out_dim, rows)`` buffer."""
    acc = np.zeros((m.shape[0], x.shape[0]))
    xt = x.T
    for j in range(m.shape[1]):
        acc += xt[j] * m[:, j, None]
    return acc.T


def apply_rows(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Matrix-vector product per row: ``out[..., i] = sum_j m[i, j] x[..., j]``.

    Accumulates over columns in fixed ascending order. A tuple ``x`` of
    floats, with ``m`` a tuple of row tuples, gives a tuple: each entry
    from a zero start, adding ``x[j] * m[i][j]`` for ascending ``j``.
    """
    if type(x) is tuple:
        return tuple([_dot_left(x, row) for row in m])
    out = _column_matvec(m, x.reshape(-1, x.shape[-1]))
    return out.reshape(x.shape[:-1] + (m.shape[0],))


def dot_rows(a: np.ndarray, b: np.ndarray):
    """Per-row inner product over the last axis. Two tuples of floats give
    a float, summed left to right from a zero start: ``np.add.reduce``'s
    order on a row of fewer than ``_PAIRWISE_COLUMNS``."""
    if type(a) is tuple:
        return _dot_left(a, b)
    return _column_sum(a * b)


def norm_rows(a: np.ndarray):
    """Per-row Euclidean norm over the last axis."""
    return np.sqrt(_column_sum(a * a))
