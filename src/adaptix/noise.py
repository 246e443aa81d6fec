"""Noise models driving the stochastic iteration.

Three families, all mean zero and symmetric under sign flip:

* ``gaussian`` -- N(0, cov) for any symmetric PSD ``cov`` (a zero matrix
  gives deterministic zero noise, handy in tests);
* ``uniform_ball`` -- uniform on the solid ball of a given radius, with
  covariance radius^2 / (dim + 2) * I;
* ``scaled_rademacher`` -- independent +/-scale components. Its support is
  discrete, so it does not put mass on balls around the origin; it is
  flagged non-conforming and meant for unit tests only.

``sample_block`` is the one sampling entry point. Engine code always draws
noise in blocks with a fixed size (see ``adaptix.core.NOISE_CHUNK``): for
the ball model a block draws all its normals first and the radius uniforms
second, so the stream layout depends on the block size, which is why that
size is a frozen constant rather than a knob.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._rowops import _ROW_CHUNK, ColumnSpans, _column_matvec, norm_rows
from .errors import ConfigError, DimensionMismatchError

#: Config keys of each noise kind besides ``kind`` and ``dim``, with defaults.
KINDS = {
    "gaussian": {"cov": 1.0},
    "uniform_ball": {"radius": 1.0},
    "scaled_rademacher": {"scale": 1.0},
}


def _square(value: float, name: str) -> float:
    """``value**2``; a square that overflows a float, from about 1.3e154,
    raises ConfigError naming ``name``."""
    try:
        return value**2
    except OverflowError:
        raise ConfigError(f"{name} {value!r} is too large: its square "
                          "overflows a float") from None


@dataclass(frozen=True, eq=False)
class NoiseModel:
    """A noise law; construction makes every check on its parameters.

    ``cov`` is the target covariance, always a (dim, dim) matrix once
    built. A gaussian takes it as a variance (times I), a diagonal or a
    matrix; the other kinds derive it from their radius or scale.
    """
    kind: str
    dim: int
    cov: np.ndarray | None = None
    radius: float | None = None  # uniform_ball only
    scale: float | None = None   # scaled_rademacher only

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown noise kind {self.kind!r}")
        if self.dim < 1:
            raise ConfigError(f"noise dim must be >= 1, got {self.dim}")
        if self.kind == "uniform_ball":
            if self.radius <= 0:
                raise ConfigError(
                    f"ball radius must be > 0, got {self.radius}")
            cov = (_square(self.radius, "ball radius") / (self.dim + 2)
                   * np.eye(self.dim))
        elif self.kind == "scaled_rademacher":
            if self.scale <= 0:
                raise ConfigError(
                    f"rademacher scale must be > 0, got {self.scale}")
            cov = _square(self.scale, "rademacher scale") * np.eye(self.dim)
        else:
            cov = np.asarray(self.cov, dtype=np.float64)
            if cov.ndim == 0:
                cov = cov * np.eye(self.dim)
            elif cov.ndim == 1:
                cov = np.diag(cov)
        if cov.shape != (self.dim, self.dim):
            raise DimensionMismatchError(
                f"cov shape {cov.shape} does not match dim {self.dim}")
        if np.any(np.diag(cov) < 0):
            raise ConfigError("covariance diagonal must be nonnegative")
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise ConfigError("noise covariance must be symmetric")
        object.__setattr__(self, "cov", cov)
        if self.kind == "gaussian":
            self._factor_spans  # PSD check at construction, not first draw

    @cached_property
    def _factor_spans(self) -> ColumnSpans:
        """Lower-triangular-ish factor F with F F^T = cov, held with its
        column spans for ``sample_block``'s mat-vec.

        Cholesky when the covariance is positive definite; an eigh-based
        square root for merely PSD matrices: on the zero matrix a factor of
        signed zeros, whose mat-vec rows are +0.0.
        """
        try:
            return ColumnSpans(np.linalg.cholesky(self.cov))
        except np.linalg.LinAlgError:
            vals, vecs = np.linalg.eigh(self.cov)
            if vals.min() < -1e-10 * max(1.0, vals.max()):
                raise ConfigError("gaussian covariance is not PSD") from None
            return ColumnSpans(vecs * np.sqrt(np.clip(vals, 0.0, None)))

    @cached_property
    def _factor_is_identity(self) -> bool:
        """Whether the factor F is the identity: ``cov`` 1.0 or I, whose
        Cholesky factor is exactly I."""
        return bool(np.array_equal(self._factor_spans.matrix,
                                   np.eye(self.dim)))

    @property
    def is_continuous(self) -> bool:
        """Whether the law has a density on R^dim."""
        if self.kind == "gaussian":
            return bool(np.linalg.matrix_rank(self.cov) == self.dim)
        return self.kind == "uniform_ball"

    @property
    def conforming(self) -> bool:
        """Positive probability on every ball around the origin."""
        return self.kind != "scaled_rademacher"

    def sample_block(self, rng: np.random.Generator, count: int,
                     out: np.ndarray | None = None) -> np.ndarray:
        """Draw ``count`` noise vectors as a (count, dim) block.

        ``out``, a C-contiguous float64 (count, dim) array, receives the
        block and is returned; without it the block is a new array. Either
        way the draws and the bits are the same.
        """
        n = self.dim
        if out is None:
            out = np.empty((count, n))
        elif (out.shape != (count, n) or out.dtype != np.float64
              or not out.flags.c_contiguous):
            raise ValueError(
                f"out must be a C-contiguous float64 array of shape "
                f"{(count, n)}, got {out.dtype} {out.shape}")
        if self.kind == "gaussian":
            rng.standard_normal(out=out)
            if self._factor_is_identity:
                # The mat-vec's bits on finite normals: each z_j * 0.0 is a
                # signed zero, and a sum from +0.0 differs from its one
                # term z_i * 1.0 only in turning -0.0 into +0.0, as this does.
                out += 0.0
                return out
            # Row-local affine map; see _rowops for why not a matmul. The
            # map reads the normals into a buffer of its own.
            out[...] = _column_matvec(self._factor_spans, out)
            return out
        if self.kind == "uniform_ball":
            rng.standard_normal(out=out)
            r = rng.random(count)
            # (r**(1/n) * radius) / |g|, the bits of radius * r**(1/n) / |g|
            r **= 1.0 / n
            r *= self.radius
            for lo in range(0, count, _ROW_CHUNK):
                g = out[lo:lo + _ROW_CHUNK]
                nrm = norm_rows(g)
                nrm[nrm == 0.0] = 1.0
                part = r[lo:lo + _ROW_CHUNK]
                part /= nrm
                g *= part[:, None]
            return out
        np.multiply(2.0, rng.integers(0, 2, size=(count, n)), out=out)
        out -= 1.0
        out *= self.scale
        return out


def gaussian_noise(cov) -> NoiseModel:
    """Gaussian model from a scalar variance, diagonal, or full matrix."""
    cov = np.asarray(cov, dtype=np.float64)
    return NoiseModel(kind="gaussian", dim=cov.shape[0] if cov.ndim else 1,
                      cov=cov)


def uniform_ball_noise(dim: int, radius: float) -> NoiseModel:
    return NoiseModel(kind="uniform_ball", dim=dim, radius=float(radius))


def scaled_rademacher_noise(dim: int, scale: float) -> NoiseModel:
    return NoiseModel(kind="scaled_rademacher", dim=dim, scale=float(scale))
