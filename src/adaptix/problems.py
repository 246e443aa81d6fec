"""Built-in root-finding problems.

A problem bundles the mean field phi (with a known root x* and Jacobian
there), the noise model, and a quadratic Lyapunov certificate
V(x) = (x - x*)^T P (x - x*), P = I unless given, used by the drift checks.

Built-ins:

* ``linear``   phi(x) = A (x - x*)
* ``tanh``     phi(x) = A tanh(x - x*), componentwise tanh (bounded field)
* ``cubic1d``  phi(x) = a (x - x*) + c (x - x*)^3, scalar, a, c > 0

The assumption checklist that a problem is validated against lives in
:mod:`adaptix.report`, which only ``validate`` loads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import sub

import numpy as np

from ._rowops import ColumnSpans, apply_rows, norm_rows
from .errors import ConfigError, DimensionMismatchError
from .noise import NoiseModel, gaussian_noise

#: Largest problem dimension. The Kronecker solve holds a dim^2 x dim^2
#: system of floats: 128 MiB at 64, and 16 times that at twice the dim.
MAX_DIM = 64

#: Config keys of each problem kind, in config.json order, with defaults:
#: None is the matrix's row count for ``dim``, standard gaussian noise for
#: ``noise`` and the identity for ``lyap_matrix``. A kind that declares its
#: dim is scalar: every key but its noise is a number.
_MATRIX_KEYS = {"dim": None, "matrix": 1.0, "root": 0.0, "noise": None,
                "lyap_matrix": None, "b32_radius": 2.0, "b32_beta0": 0.5}
PROBLEM_KINDS = {
    "linear": _MATRIX_KEYS,
    "tanh": _MATRIX_KEYS,
    "cubic1d": {"dim": 1, "a": 1.0, "c": 1.0, "root": 0.0, "noise": None},
}


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    kind: str
    dim: int
    root: np.ndarray
    noise: NoiseModel
    matrix: np.ndarray | None = None      # A, for linear / tanh
    a: float | None = None                # the cubic's coefficients
    c: float | None = None
    lyap_matrix: np.ndarray | None = None  # P; None is the identity
    b32_radius: float | None = None
    b32_beta0: float | None = None
    # ``root`` as a tuple of floats, for field_eval's float form, which
    # need not subtract it where every entry is a zero of either sign
    root_floats: tuple = field(default=(), init=False, repr=False)
    root_is_zero: bool = field(default=False, init=False, repr=False)
    # ``matrix`` held in the forms field_eval multiplies by
    matrix_spans: ColumnSpans | None = field(default=None, init=False,
                                             repr=False)

    def __post_init__(self):
        if self.kind not in PROBLEM_KINDS:
            raise ConfigError(f"unknown problem kind {self.kind!r}")
        root = np.asarray(self.root, dtype=np.float64).reshape(-1)
        if root.shape != (self.dim,):
            raise DimensionMismatchError(
                f"root shape {root.shape} does not match dim {self.dim}")
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "root_floats", tuple(root.tolist()))
        object.__setattr__(self, "root_is_zero", not root.any())
        if self.noise.dim != self.dim:
            raise DimensionMismatchError(
                f"noise dim {self.noise.dim} does not match problem dim {self.dim}")
        if self.kind == "cubic1d":
            if self.a is None or self.c is None:
                raise ConfigError("cubic1d needs coefficients a and c")
            if self.a <= 0 or self.c <= 0:
                raise ConfigError(
                    f"cubic1d needs a > 0 and c > 0, got a={self.a}, "
                    f"c={self.c}")
        else:
            if self.matrix is None:
                raise ConfigError(f"{self.kind} problem needs a matrix A")
            m = np.atleast_2d(np.asarray(self.matrix, dtype=np.float64))
            if m.shape != (self.dim, self.dim):
                raise DimensionMismatchError(
                    f"matrix shape {m.shape} does not match dim {self.dim}")
            # ``matrix`` is the held copy, read-only, so that no in-place
            # write can leave its spans or rows behind
            spans = ColumnSpans(m)
            object.__setattr__(self, "matrix", spans.matrix)
            object.__setattr__(self, "matrix_spans", spans)
        p = np.atleast_2d(np.asarray(
            np.eye(self.dim) if self.lyap_matrix is None else self.lyap_matrix,
            dtype=np.float64))
        if p.shape != (self.dim, self.dim):
            raise DimensionMismatchError(
                f"lyap matrix shape {p.shape} does not match dim {self.dim}")
        if not np.allclose(p, p.T, atol=1e-12):
            raise ConfigError("lyap matrix must be symmetric")
        try:
            np.linalg.cholesky(p)
        except np.linalg.LinAlgError:
            raise ConfigError("lyap matrix must be positive definite") from None
        object.__setattr__(self, "lyap_matrix", p)
        residual = float(norm_rows(field_eval(self, self.root)))
        if residual > 1e-12:
            raise ConfigError(f"field at the declared root has norm {residual:.3e}")

    @property
    def jacobian_at_root(self) -> np.ndarray:
        return jacobian_eval(self, self.root)


def field_eval(problem: ProblemSpec, x) -> np.ndarray:
    """Mean field phi(x); vectorised over leading axes of ``x``.

    For a linear problem a tuple ``x`` of floats gives a tuple, through
    ``apply_rows``'s float form. A root of zeros is not subtracted there:
    ``x - (+-0.0)`` is ``x`` but for turning -0.0 into +0.0, and the
    mat-vec's +0.0 start erases that (+0.0 plus a zero of either sign is
    +0.0), so the bits are the array form's. tanh and the cubic always go
    through numpy, whose ``tanh`` and ``**3`` do not match Python's bit
    for bit.
    """
    if type(x) is tuple and problem.kind == "linear":
        if len(x) != problem.dim:
            raise DimensionMismatchError(
                f"x has dimension {len(x)}, problem has {problem.dim}")
        if not problem.root_is_zero:
            x = tuple(map(sub, x, problem.root_floats))
        return apply_rows(problem.matrix_spans, x)
    arr = np.asarray(x, dtype=np.float64)
    if arr.shape[-1] != problem.dim:
        raise DimensionMismatchError(
            f"x has dimension {arr.shape[-1]}, problem has {problem.dim}")
    centered = arr - problem.root
    if problem.kind == "linear":
        return apply_rows(problem.matrix_spans, centered)
    if problem.kind == "tanh":
        return apply_rows(problem.matrix_spans,
                          np.tanh(centered, out=centered))
    return problem.a * centered + problem.c * centered**3


def jacobian_eval(problem: ProblemSpec, x) -> np.ndarray:
    """Analytic Jacobian phi'(x) at a single point."""
    arr = np.asarray(x, dtype=np.float64).reshape(-1)
    centered = arr - problem.root
    if problem.kind == "linear":
        return problem.matrix.copy()
    if problem.kind == "tanh":
        sech2 = 1.0 / np.cosh(centered) ** 2
        return problem.matrix * sech2[None, :]
    return np.array([[problem.a + 3.0 * problem.c * centered[0] ** 2]])


def check_dim(dim: int, name: str = "problem.dim") -> None:
    """Refuse a dim below 1 or above ``MAX_DIM``, before
    anything dim-sized is allocated."""
    if dim < 1:
        raise ConfigError(f"{name} must be >= 1, got {dim}")
    if dim > MAX_DIM:
        raise ConfigError(f"{name} must be <= {MAX_DIM}, got {dim}: the "
                          "Lyapunov solve holds dim^4 floats")


def build_problem(kind: str, dim: int | None = None,
                  **values) -> ProblemSpec:
    """A ``kind`` problem from ``values``, keyed as ``PROBLEM_KINDS[kind]``.

    A number for ``matrix`` means that multiple of I, and one for ``root``
    that value in every coordinate; a root of None is the origin. Without
    ``dim`` or a matrix list, the dim is a root list's length, then the
    noise model's dim, then 1, the order the config infers it in. The
    scalar cubic takes no Lyapunov matrix and carries V(x) = (x - x*)^2 / 2.
    """
    declared = PROBLEM_KINDS[kind]
    unknown = sorted(set(values) - set(declared))
    if unknown:
        raise TypeError(f"{kind} problem got unexpected keyword argument(s) "
                        f"{', '.join(unknown)}")
    fields = {**declared, **values}
    fields.setdefault("lyap_matrix", [[0.5]])
    declared_dim = fields.pop("dim")
    if dim is None:
        dim = declared_dim
    root = np.asarray(0.0 if fields["root"] is None else fields["root"],
                      dtype=np.float64)
    if dim is None and np.ndim(fields["matrix"]) == 0:
        # as config._infer_dim: a root list, then the noise model's dim
        noise = fields["noise"]
        dim = root.size if root.ndim else 1 if noise is None else noise.dim
    if dim is not None:
        check_dim(dim)
    if declared_dim not in (None, dim):
        raise ConfigError(f"{kind} is scalar only")
    if "matrix" in fields:
        m = np.asarray(fields["matrix"], dtype=np.float64)
        m = float(m) * np.eye(dim) if m.ndim == 0 else np.atleast_2d(m)
        if dim is None:
            check_dim(m.shape[0])
        elif dim != m.shape[0]:
            raise DimensionMismatchError(
                f"dim {dim} does not match the {m.shape[0]}-row matrix")
        fields["matrix"] = m
        dim = m.shape[0]
    if root.ndim == 0:
        fields["root"] = np.full(dim, root)
    if fields["noise"] is None:
        fields["noise"] = gaussian_noise(np.eye(dim))
    return ProblemSpec(kind=kind, dim=dim, **fields)


def linear_problem(**values) -> ProblemSpec:
    """Linear field A (x - x*); see :func:`build_problem` for the keys."""
    return build_problem("linear", **values)


def tanh_problem(**values) -> ProblemSpec:
    """Saturating field A tanh(x - x*); phi'(x*) = A."""
    return build_problem("tanh", **values)


def cubic_problem(**values) -> ProblemSpec:
    """Scalar cubic field a (x - x*) + c (x - x*)^3, with no B3.2 margin:
    its superlinear growth beats any margin at large radii."""
    return build_problem("cubic1d", **values)
