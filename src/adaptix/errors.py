"""Exception types shared across the package."""


class AdaptixError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(AdaptixError):
    """Invalid configuration document or semantically inconsistent settings.

    ``assumption`` carries the identifier of the violated assumption
    (e.g. ``"B4.1"``) when the constraint corresponds to one of the
    documented validation checks.
    """

    def __init__(self, message, assumption=None):
        if assumption is not None:
            message = f"{message} [assumption {assumption}]"
        super().__init__(message)
        self.assumption = assumption


class DimensionMismatchError(AdaptixError):
    """Array arguments with incompatible shapes."""


class DivergedTrajectoryError(AdaptixError):
    """A trajectory crossed the divergence guard.

    ``t`` is the step at which the guard triggered; ``trajectory`` whatever
    was recorded before that; ``last`` the last finite state, at t - 1, as
    a one-row trajectory.
    """

    def __init__(self, message, t=None, trajectory=None, last=None):
        super().__init__(message)
        self.t = t
        self.trajectory = trajectory
        self.last = last


class StabilityError(AdaptixError):
    """An operation required a stable (Hurwitz) matrix and was given one
    with an eigenvalue real part >= 0."""


class TailBoundError(AdaptixError):
    """Quadrature horizon too short: the integrand tail has not decayed
    below the documented threshold. Increase ``t_max``."""


class NumericError(AdaptixError):
    """A numeric routine produced a result outside its guaranteed bounds."""
