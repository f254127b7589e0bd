"""Exception types shared across the package."""

from __future__ import annotations

import math
import numbers
import operator

import numpy as np


class ConfigurationError(ValueError):
    """Invalid model, policy, or estimator configuration (bad shapes, rows
    that do not sum to one, out-of-range parameters, unknown environments)."""


def _real(value) -> bool:
    """Whether ``value`` is a real number; a bool is none."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _integer(name: str, value, minimum: int | None = None) -> int:
    """``value`` as a Python int (not a bool), at least ``minimum`` if
    given; else ConfigurationError naming ``name`` and the value."""
    try:
        if isinstance(value, bool):
            raise TypeError
        count = operator.index(value)
    except TypeError:
        raise ConfigurationError(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and count < minimum:
        bound = "non-negative" if minimum == 0 else f">= {minimum}"
        raise ConfigurationError(f"{name} must be {bound}, got {count}")
    return count


def _distinct(name: str, values) -> None:
    """ConfigurationError naming ``name`` and the first entry of ``values``
    that repeats an earlier one, if any does."""
    seen = set()
    for value in values:
        if value in seen:
            raise ConfigurationError(f"{name} must not repeat, got {value!r}")
        seen.add(value)


def _positive(name: str, value):
    """``value`` unchanged if it is a finite real > 0 (a bandwidth, a
    tolerance, a time constant); else ConfigurationError naming ``name``."""
    if not (_real(value) and 0.0 < value < np.inf):
        raise ConfigurationError(f"{name} must be finite and > 0, got {value!r}")
    return value


def _finite(name: str, value, minimum: float | None = None):
    """``value`` unchanged if it is a finite real, at least ``minimum`` if
    given (a reward law's numbers, a bandwidth exponent); else
    ConfigurationError naming ``name``."""
    if not (_real(value) and math.isfinite(value) and (minimum is None or value >= minimum)):
        bound = "" if minimum is None else f" >= {minimum:g}"
        raise ConfigurationError(f"{name} must be a finite real{bound}, got {value!r}")
    return value


def _level(name: str, value):
    """``value`` unchanged if it is a real in (0, 1) (an interval's alpha);
    else ConfigurationError naming ``name``."""
    if not (_real(value) and 0.0 < value < 1.0):
        raise ConfigurationError(f"{name} must lie in (0, 1), got {value!r}")
    return value


class OverlapViolationError(RuntimeError):
    """The behavior policy puts zero probability on an action the target
    policy can take, at a covariate actually visited by the data."""

    def __init__(self, t: int, x: int, a: int, env: str | None = None):
        self.t = int(t)
        self.x = int(x)
        self.a = int(a)
        self.env = env
        where = f" in environment {env!r}" if env else ""
        super().__init__(
            f"overlap violation{where} at step t={self.t}: behavior probability "
            f"is 0 for action a={self.a} at covariate x={self.x} while the "
            f"target probability is positive"
        )


class MixingFailureError(RuntimeError):
    """Power iteration failed to reach the requested fixed-point tolerance.

    Carries the last iterate and its residual so callers can inspect how far
    the chain was from stationarity.
    """

    def __init__(self, last_iterate: np.ndarray, residual: float, max_iter: int):
        self.last_iterate = np.asarray(last_iterate, dtype=float)
        self.residual = float(residual)
        self.max_iter = int(max_iter)
        super().__init__(
            f"stationary distribution did not converge after {self.max_iter} "
            f"iterations (L1 residual {self.residual:.3e})"
        )
