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
  every ``x`` takes it, reshaped to 2-D when it has another rank. Every
  matrix it multiplies by is a ``ColumnSpans``, its one holder: the
  problem's A, the comparator's alpha and a gaussian noise factor are held
  once, any other array for the one call. The holder keeps a read-only
  copy with its rows as floats, its full columns and its spans: the rows
  of each column from its first to its last non-zero coefficient. The
  mat-vec adds each column only over its span, and skips a column of
  zeros. That needs a finite ``x``: each skipped product is then a signed
  zero, and adding one to a sum that started from +0.0 changes no bit,
  where an inf or NaN times 0.0 is a NaN the sum must take. So at every
  row count a finite batch adds the spans of a matrix that has them, and
  any other batch adds every full column;
* a row sum of fewer than ``_PAIRWISE_COLUMNS`` columns, at any rank and
  row count, starts from ``p[..., 0] + 0.0`` and adds the columns in
  ascending order. That is what ``np.add.reduce`` does on a row of fewer
  than 8 elements, whatever the memory order (the ``+ 0.0`` is its zero
  start, which turns a -0.0 first term into +0.0).

A sum of 8 or more columns keeps the row-wise form. There ``np.add.reduce``
sums a contiguous row pairwise, with eight partial sums, but the rows of an
F-ordered array one column at a time; so it reduces a C-contiguous copy,
and a replicate's sum does not depend on the memory order of its batch.

The one-replicate lane of ``core._simulate`` holds x and y as tuples of
floats (y's are numpy's after a tanh or cubic field): ``apply_rows``, on
the holder's rows, and ``dot_rows`` sum them from a zero start in the
orders above, ``np.add.reduce``'s only below ``_PAIRWISE_COLUMNS``.

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


def _column_sum(p: np.ndarray):
    """Sum over the last axis, in ``np.add.reduce``'s order on C rows."""
    columns = p.shape[-1]
    if not 0 < columns < _PAIRWISE_COLUMNS:
        return np.add.reduce(np.ascontiguousarray(p), axis=-1)
    acc = p[..., 0] + 0.0
    for j in range(1, columns):
        acc += p[..., j]
    return acc


class ColumnSpans:
    """A matrix held read-only in the forms the row kernels multiply by.

    The matrix is a copy of the one given, so no form can go stale:

    * ``rows``, its rows as tuples of floats, for ``apply_rows``'s float
      form;
    * ``columns``, a ``(column, row slice, coefficients)`` term for every
      column over all its rows, for ``_column_matvec``;
    * ``spans``, the same terms for the non-zero columns only, each over
      the rows from its first to its last non-zero coefficient, zeros
      between them included.

    A span mat-vec reads every entry of ``x`` once to check that it is
    finite, and skips the products of the zeros outside the spans. So
    ``spans`` is None where that skips no more products a row than the
    check reads entries, as for a dense matrix or a 2 x 2 diagonal.
    """

    __slots__ = ("matrix", "rows", "columns", "spans")

    def __init__(self, m):
        m = np.array(m, dtype=np.float64)
        m.setflags(write=False)
        out_dim, in_dim = m.shape
        self.matrix = m
        self.rows = tuple(map(tuple, m.tolist()))
        self.columns = tuple((j, slice(0, out_dim), m[:, j, None])
                             for j in range(in_dim))
        spans = []
        saved = out_dim * in_dim - in_dim
        for j in range(in_dim):
            rows = np.flatnonzero(m[:, j])
            if rows.size:
                lo, hi = int(rows[0]), int(rows[-1]) + 1
                spans.append((j, slice(lo, hi), m[lo:hi, j, None]))
                saved -= hi - lo
        self.spans = tuple(spans) if saved > 0 else None


def _column_matvec(m: ColumnSpans, x: np.ndarray) -> np.ndarray:
    """``out[r, i] = sum_j m[i, j] x[r, j]`` for a 2-D ``x``, a column of
    ``x`` at a time; ascending ``j`` from a zero start. The result is the
    transpose of an ``(out_dim, rows)`` buffer.

    Each column is added over its span, at any row count, when ``m`` has
    spans and ``x`` is finite: there every skipped product ``x[r, j] *
    0.0`` is a signed zero, which leaves a sum that started from +0.0 as
    it was. An inf or NaN times 0.0 is NaN, so any other ``x`` takes
    every full column.
    """
    xt = x.T
    acc = np.zeros((m.matrix.shape[0], x.shape[0]))
    use_spans = m.spans is not None and np.isfinite(x).all()
    for j, rows, coef in (m.spans if use_spans else m.columns):
        part = acc[rows]
        part += xt[j] * coef
    return acc.T


def apply_rows(m, x: np.ndarray) -> np.ndarray:
    """Matrix-vector product per row: ``out[..., i] = sum_j m[i, j] x[..., j]``.

    Accumulates over columns in fixed ascending order, skipping zeros
    where that is exact; ``m`` is a ``ColumnSpans``, or an array that is
    held for this call. A tuple ``x`` of floats gives a tuple: each entry
    from a zero start, adding ``x[j] * m[i, j]`` for ascending ``j``.
    """
    if type(m) is not ColumnSpans:
        m = ColumnSpans(m)
    if type(x) is tuple:
        out = []
        for row in m.rows:
            acc = 0.0
            for t in map(mul, x, row):
                acc += t
            out.append(acc)
        return tuple(out)
    out = _column_matvec(m, x.reshape(-1, x.shape[-1]))
    return out.reshape(x.shape[:-1] + out.shape[1:])


def dot_rows(a: np.ndarray, b: np.ndarray):
    """Per-row inner product over the last axis. Two tuples of floats give
    a float, summed left to right from a zero start: ``np.add.reduce``'s
    order on a row of fewer than ``_PAIRWISE_COLUMNS``, rounding once per
    term (``sum`` compensates the round-off from Python 3.12 on, which
    numpy's sums do not)."""
    if type(a) is tuple:
        acc = 0.0
        for t in map(mul, a, b):
            acc += t
        return acc
    return _column_sum(a * b)


def norm_rows(a: np.ndarray):
    """Per-row Euclidean norm over the last axis."""
    return np.sqrt(_column_sum(a * a))
