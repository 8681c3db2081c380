"""Exception types shared across the package, and the one integer check."""

import numpy as np


class CorrboundError(Exception):
    """Base class for all package errors."""


class ConfigError(CorrboundError, ValueError):
    """Bad user configuration or argument (CLI exit code 1).

    Also a :class:`ValueError`, so a library caller that passes a bad
    argument can catch it as one.
    """


class ModelBuildError(CorrboundError):
    """Model construction failed or model lacks a required capability (exit 2)."""


class NumericalError(CorrboundError):
    """Numerical failure during a computation (exit 3)."""


class SingularMatrixError(NumericalError):
    """A matrix that must be inverted is singular or too ill-conditioned."""

    def __init__(self, message: str, rcond: float | None = None):
        if rcond is not None:
            message = f"{message} (reciprocal condition estimate {rcond:.3e})"
        super().__init__(message)
        self.rcond = rcond


class InvariantViolationError(NumericalError):
    """A quantity left its mathematically guaranteed region (e.g. lost PSD-ness)."""


def require_int(value, name: str, minimum: int | None = None,
                maximum: int | None = None) -> None:
    """Reject a ``value`` of ``name`` that is a bool, not an integer, or
    outside ``[minimum, maximum]``, with a :class:`ConfigError` naming
    ``name``."""
    if (not isinstance(value, (int, np.integer)) or isinstance(value, bool)
            or minimum is not None and value < minimum
            or maximum is not None and value > maximum):
        limits = ((">=", minimum), ("<=", maximum))
        bound = " and".join(f" {op} {limit}" for op, limit in limits if limit is not None)
        raise ConfigError(f"{name} must be an integer{bound}, got {value!r}")
