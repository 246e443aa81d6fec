"""Step-size schedules, sigmoid gates, and the expected gate increment E0.

The iteration's step size is gamma(s_t), where the counter s_t moves by
u(-y_t^T y_{t-1}) at each step: a bounded non-decreasing "gate" u rewards
sign disagreement between successive measurements. Schedules map counter
values to step sizes; gates decide how fast the counter grows. E0 is the
gate increment expected under pure noise, E[u(-xi_1^T xi_2)], the constant
that calibrates all asymptotic predictions.

Schedule families
-----------------
reciprocal   gamma(s) = 1 / max(s, s_floor)        (s_floor > 0, default 1)
power        gamma(s) = gamma0 / (1 + s)^p         (gamma0 > 0, p > 0)
constant     gamma(s) = gamma0                     (gamma0 > 0)

Gate families
-------------
constant          u = c > 0 everywhere (classic decreasing-step behaviour)
kesten            u = 0 left of the origin, u_plus right of it
plakhov_almeida   u = u_minus < 0 left, u_plus > 0 right (counter can back up)
smooth            logistic ramp from u_minus to u_plus with slope scale beta

For the two step families the value at exactly 0 follows the ``at_zero``
convention: "right" (default) takes the right limit, "left" the left limit,
"midpoint" their average.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .noise import NoiseModel
from ._rowops import _ROW_CHUNK, dot_rows
from .rng import E0_LANE, as_generator, substream

#: Config keys of each schedule family, in config.json order, with defaults.
SCHEDULE_FAMILIES = {
    "reciprocal": {"s_floor": 1.0},
    "power": {"gamma0": 1.0, "p": 1.0},
    "constant": {"gamma0": 1.0},
}
#: Config keys of each gate family, in config.json order, with defaults.
#: None marks a required key. A tuple names the keys whose value fills this
#: one when it is absent, the first given winning: ``c`` fills whichever
#: level of a constant gate is not given, and a lone ``u_plus`` fills
#: ``u_minus``. SigmoidSpec then rejects levels that disagree.
SIGMOID_FAMILIES = {
    "constant": {"u_minus": ("c", "u_plus"), "u_plus": ("c",),
                 "at_zero": "right"},
    "kesten": {"u_minus": 0.0, "u_plus": 1.0, "at_zero": "right"},
    "plakhov_almeida": {"u_minus": None, "u_plus": None, "at_zero": "right"},
    "smooth": {"u_minus": None, "u_plus": None, "beta": None},
}
AT_ZERO = ("left", "right", "midpoint")


@dataclass(frozen=True)
class StepSchedule:
    family: str
    gamma0: float = 1.0
    p: float = 1.0
    s_floor: float = 1.0

    def __post_init__(self):
        if self.family not in SCHEDULE_FAMILIES:
            raise ConfigError(f"unknown schedule family {self.family!r}")
        # ``not > 0`` refuses NaN too
        if self.family == "reciprocal" and not self.s_floor > 0:
            raise ConfigError(
                f"reciprocal schedule needs s_floor > 0, got {self.s_floor}")
        if self.family in ("power", "constant") and not self.gamma0 > 0:
            raise ConfigError(f"gamma0 must be > 0, got {self.gamma0}")
        if self.family == "power" and not self.p > 0:
            raise ConfigError(f"power schedule needs p > 0, got {self.p}")


def reciprocal_schedule(s_floor: float = 1.0) -> StepSchedule:
    return StepSchedule(family="reciprocal", s_floor=float(s_floor))


def power_schedule(gamma0: float, p: float) -> StepSchedule:
    return StepSchedule(family="power", gamma0=float(gamma0), p=float(p))


def constant_schedule(gamma0: float) -> StepSchedule:
    return StepSchedule(family="constant", gamma0=float(gamma0))


def gamma_eval(schedule: StepSchedule, s):
    """Step size gamma(s); accepts a scalar or an array of counter values.

    A Python float under a reciprocal or constant schedule is evaluated on
    floats, ``1.0 / max(s, s_floor)`` or ``gamma0``: the bits the array
    form gives, NaN for a NaN counter included. A power schedule always
    goes through ``np.power``, which does not match ``float ** p`` bit for
    bit.
    """
    if type(s) is float and schedule.family != "power":
        if s < 0:
            raise ValueError("counter values must be >= 0")
        if schedule.family == "reciprocal":
            # np.maximum(s, s_floor), NaN included: s_floor > NaN is False
            s_floor = schedule.s_floor
            return 1.0 / (s_floor if s_floor > s else s)
        return float(schedule.gamma0)
    arr = np.asarray(s, dtype=np.float64)
    if (arr < 0).any():
        raise ValueError("counter values must be >= 0")
    if schedule.family == "reciprocal":
        out = 1.0 / np.maximum(arr, schedule.s_floor)
    elif schedule.family == "power":
        with np.errstate(over="ignore"):  # gamma0 / inf is the exact 0
            out = schedule.gamma0 / np.power(1.0 + arr, schedule.p)
    else:
        out = np.full_like(arr, schedule.gamma0)
    return float(out) if arr.ndim == 0 else out


@dataclass(frozen=True)
class SigmoidSpec:
    family: str
    u_minus: float
    u_plus: float
    beta: float | None = None
    at_zero: str = "right"

    def __post_init__(self):
        if self.family not in SIGMOID_FAMILIES:
            raise ConfigError(f"unknown sigmoid family {self.family!r}")
        if self.at_zero not in AT_ZERO:
            raise ConfigError(f"at_zero must be one of {AT_ZERO}, got {self.at_zero!r}")
        # ``not > 0`` and ``not <=`` refuse NaN levels too
        if not self.u_plus > 0:
            raise ConfigError(
                f"u_plus must be > 0, got {self.u_plus}", assumption="B4.1")
        if not self.u_minus <= self.u_plus:
            raise ConfigError(
                f"u_minus={self.u_minus} must not exceed u_plus="
                f"{self.u_plus}; the gate must be non-decreasing",
                assumption="B4.1")
        if self.family == "constant" and self.u_minus != self.u_plus:
            raise ConfigError(
                "constant gate needs u_minus == u_plus", assumption="B4.1")
        if self.family == "kesten" and self.u_minus != 0.0:
            raise ConfigError(
                f"kesten gate fixes u_minus = 0, got {self.u_minus}",
                assumption="B4.1")
        if self.family == "plakhov_almeida" and not self.u_minus < 0.0:
            raise ConfigError(
                f"plakhov_almeida needs u_minus < 0, got {self.u_minus}",
                assumption="B4.1")
        if self.family == "smooth":
            if self.beta is None or not self.beta > 0:
                raise ConfigError(
                    f"smooth gate needs beta > 0, got {self.beta}",
                    assumption="B4.1")
        # held as floats, which sigmoid_eval's float form returns as they are
        object.__setattr__(self, "u_minus", float(self.u_minus))
        object.__setattr__(self, "u_plus", float(self.u_plus))

    @property
    def u_at_zero(self) -> float:
        """Gate value at argument 0 under the at_zero convention."""
        if self.family == "constant":
            return self.u_plus
        if self.family == "smooth":
            return self.u_minus + 0.5 * (self.u_plus - self.u_minus)
        if self.at_zero == "left":
            return self.u_minus
        if self.at_zero == "right":
            return self.u_plus
        return 0.5 * (self.u_minus + self.u_plus)


def constant_gate(c: float) -> SigmoidSpec:
    return SigmoidSpec(family="constant", u_minus=float(c), u_plus=float(c))


def kesten_gate(u_plus: float = 1.0, at_zero: str = "right") -> SigmoidSpec:
    return SigmoidSpec(family="kesten", u_minus=0.0, u_plus=float(u_plus),
                       at_zero=at_zero)


def plakhov_almeida_gate(u_minus: float, u_plus: float,
                         at_zero: str = "right") -> SigmoidSpec:
    return SigmoidSpec(family="plakhov_almeida", u_minus=float(u_minus),
                       u_plus=float(u_plus), at_zero=at_zero)


def smooth_gate(u_minus: float, u_plus: float, beta: float) -> SigmoidSpec:
    return SigmoidSpec(family="smooth", u_minus=float(u_minus),
                       u_plus=float(u_plus), beta=float(beta))


@functools.cache
def _expit():
    """scipy's logistic function, imported on the first smooth-gate call
    so that commands without a smooth gate load no scipy."""
    from scipy.special import expit
    return expit


def sigmoid_eval(sigmoid: SigmoidSpec, v):
    """Gate value u(v); accepts a scalar or an array.

    A Python float under a constant or step gate is compared on floats
    (``<``, ``>``, then the ``at_zero`` value), as the array form compares
    it; every level of a constant gate is c, so NaN gives c too. Where
    u(0) is the right limit the array form needs only ``< 0``. A smooth
    gate always goes through scipy's ``expit``.
    """
    if type(v) is float and sigmoid.family != "smooth":
        if v < 0.0:
            return sigmoid.u_minus
        if v > 0.0:
            return sigmoid.u_plus
        return sigmoid.u_at_zero
    arr = np.asarray(v, dtype=np.float64)
    if sigmoid.family == "smooth":
        with np.errstate(over="ignore"):  # expit(+-inf) is exactly 1 or 0
            scaled = arr / sigmoid.beta
        out = sigmoid.u_minus + (sigmoid.u_plus - sigmoid.u_minus) * _expit()(
            scaled)
    elif sigmoid.family == "constant" or sigmoid.at_zero == "right":
        # u(0) is the right limit: one comparison, and NaN, which is not
        # < 0, lands on u_plus as in the nested form
        out = np.where(arr < 0.0, sigmoid.u_minus, sigmoid.u_plus)
    else:
        out = np.where(
            arr < 0.0, sigmoid.u_minus,
            np.where(arr > 0.0, sigmoid.u_plus, sigmoid.u_at_zero))
    return float(out) if arr.ndim == 0 else out


@dataclass(frozen=True)
class E0Estimate:
    """Expected gate increment under pure noise, E[u(-xi_1^T xi_2)]."""
    value: float
    stderr: float
    method: str  # "exact" | "monte_carlo"
    n_samples: int = 0


def e0_exact(sigmoid: SigmoidSpec, noise: NoiseModel) -> E0Estimate | None:
    """Closed-form E0 where one exists, else None.

    * constant gate: E0 = c for any noise;
    * kesten gate with continuous noise: every built-in noise is
      sign-symmetric, so the inner product xi_1^T xi_2 is then symmetric
      about 0 with no atom there, and E0 = u_plus / 2.

    Every other gate and noise pair needs :func:`e0_monte_carlo`.
    """
    if sigmoid.family == "constant":
        return E0Estimate(value=sigmoid.u_plus, stderr=0.0, method="exact")
    if sigmoid.family == "kesten" and noise.is_continuous:
        return E0Estimate(value=0.5 * sigmoid.u_plus, stderr=0.0,
                          method="exact")
    return None


_E0_BLOCK = 100_000

#: Noise pairs behind a Monte Carlo E0 (config key experiment.e0_mc_samples).
DEFAULT_E0_MC_SAMPLES = 1_000_000


def e0_monte_carlo(sigmoid: SigmoidSpec, noise: NoiseModel,
                   n_samples: int = DEFAULT_E0_MC_SAMPLES,
                   seed=0) -> E0Estimate:
    """Monte Carlo E0 over ``n_samples`` independent noise pairs.

    Deterministic given ``seed`` (an int or a Generator).
    stderr is the sample standard deviation over sqrt(n_samples). A
    non-positive estimate raises a ConfigError citing B4.2: the increment
    must be positive for s_t/t to grow towards E0. An estimate or stderr
    that is not finite, because a sum overflows, raises NumericError.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    if sigmoid.family == "constant":
        # the integrand is identically c: the sample mean is exact and
        # summation round-off would only obscure that
        return E0Estimate(value=sigmoid.u_plus, stderr=0.0,
                          method="monte_carlo", n_samples=int(n_samples))
    rng = as_generator(seed)
    xi1 = np.empty((min(_E0_BLOCK, n_samples), noise.dim))
    xi2 = np.empty_like(xi1)
    vals = np.empty(xi1.shape[0])
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n_samples:
        count = min(_E0_BLOCK, n_samples - done)
        a = noise.sample_block(rng, count, out=xi1[:count])
        b = noise.sample_block(rng, count, out=xi2[:count])
        v = vals[:count]
        # row-local, so rows that stay in cache give the block's bits
        for lo in range(0, count, _ROW_CHUNK):
            hi = lo + _ROW_CHUNK
            v[lo:hi] = sigmoid_eval(sigmoid, -dot_rows(a[lo:hi], b[lo:hi]))
        total += float(np.sum(v))
        total_sq += float(np.sum(np.multiply(v, v, out=v)))
        done += count
    value = total / n_samples
    var = max(total_sq - n_samples * value * value, 0.0) / (n_samples - 1)
    stderr = math.sqrt(var / n_samples)
    if value <= 0.0:
        raise ConfigError(
            f"estimated E0 = {value:.6g} +/- {stderr:.2g} is not positive",
            assumption="B4.2")
    if not math.isfinite(value):
        raise NumericError(f"Monte Carlo E0 = {value} is not finite: a sum "
                           f"over {n_samples} noise pairs overflows")
    if not math.isfinite(stderr):
        raise NumericError(f"the stderr of Monte Carlo E0 = {value:.6g} is "
                           f"not finite: a sum of squares over {n_samples} "
                           "noise pairs overflows")
    return E0Estimate(value=value, stderr=stderr, method="monte_carlo",
                      n_samples=int(n_samples))


def e0_resolve(sigmoid: SigmoidSpec, noise: NoiseModel, n_samples: int,
               master_seed: int) -> E0Estimate:
    """The E0 every prediction and check uses.

    Closed form when :func:`e0_exact` has one, otherwise
    :func:`e0_monte_carlo` over ``n_samples`` pairs drawn from the
    (master_seed, E0 lane, 0) substream, which rejects a non-positive
    estimate (B4.2).
    """
    return e0_exact(sigmoid, noise) or e0_monte_carlo(
        sigmoid, noise, n_samples, substream(master_seed, E0_LANE, 0))
