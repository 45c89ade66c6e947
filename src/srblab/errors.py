"""Exception types shared across the package.

The command line front end maps these onto process exit codes: config
problems exit with 2, numerical failures with 3 and I/O errors with 4.
"""

from __future__ import annotations


class SrbLabError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(SrbLabError):
    """Malformed or inconsistent experiment configuration."""


class ArgumentError(SrbLabError, ValueError):
    """An argument violates a documented precondition."""


class MapParameterError(ConfigError, ArgumentError):
    """A map family or parameter that does not exist, or a value of the
    wrong type: a config error, or an argument error of ``make_map``."""


class DomainViolationError(SrbLabError):
    """A point lies outside the declared domain of a map."""


class NearCriticalError(SrbLabError):
    """A Jacobian was requested too close to the critical set.

    Parameters
    ----------
    distance : float
        Distance from the offending point to the critical set.
    """

    def __init__(self, distance: float, message: str | None = None):
        self.distance = distance
        super().__init__(message or f"point within {distance:.3e} of the critical set")


class ConstructionError(SrbLabError):
    """An induced map could not be constructed as requested."""


class VerificationError(SrbLabError):
    """Axiom verification could not be carried out."""


class UnverifiedTowerError(SrbLabError):
    """An operation requires a tower whose axioms have been verified."""


class ConvergenceError(SrbLabError):
    """An iterative solve stopped before reaching its tolerance.

    Parameters
    ----------
    residual : float
        Residual at the final iterate.
    """

    def __init__(self, residual: float, message: str | None = None):
        self.residual = residual
        super().__init__(message or f"iteration stopped with residual {residual:.3e}")


class InsufficientDataError(SrbLabError):
    """Not enough usable data points to carry out a fit or estimate."""


class CensoredOrbitError(SrbLabError):
    """An orbit left the tracked region before the requested horizon.

    Parameters
    ----------
    step : int
        Iterate index at which tracking was lost.
    """

    def __init__(self, step: int, message: str | None = None):
        self.step = step
        super().__init__(message or f"orbit censored at step {step}")
