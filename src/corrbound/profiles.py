"""Correlation-lag bookkeeping for the noises of a dynamic system.

A profile holds four nonnegative lags:

* ``l1`` -- measurement noise auto-correlation,
* ``l2`` -- process noise auto-correlation,
* ``l3`` -- backward cross-correlation (measurement noise vs. past process noise),
* ``l4`` -- forward cross-correlation (measurement noise vs. future process noise).

The effective lags ``max(l2, 1)`` and ``max(l3, 1)`` control how many past
states the transition and measurement conditionals reach back to, and so the
size of the recursion window.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import ConfigError, require_int

# Block-grid sizes grow as (lag * state_dim)^2; larger lags are almost
# certainly a configuration mistake.
MAX_LAG = 8


@dataclass(frozen=True)
class CorrelationProfile:
    l1: int = 0
    l2: int = 0
    l3: int = 0
    l4: int = 0

    def __post_init__(self):
        for name in ("l1", "l2", "l3", "l4"):
            value = getattr(self, name)
            require_int(value, f"lag {name}", 0)
            if value > MAX_LAG:
                raise ConfigError(
                    f"lag {name}={value} exceeds the supported maximum {MAX_LAG}"
                )

    @cached_property
    def l2_eff(self) -> int:
        return max(self.l2, 1)

    @cached_property
    def l3_eff(self) -> int:
        return max(self.l3, 1)

    @cached_property
    def window(self) -> int:
        """Number of past states the recursion carries (grid size of the carry matrix)."""
        return max(self.l2_eff, self.l3_eff - 1)

    @property
    def uncorrelated(self) -> bool:
        return self.l1 == 0 and self.l2 == 0 and self.l3 == 0 and self.l4 == 0

    def as_dict(self) -> dict[str, int]:
        return {"l1": self.l1, "l2": self.l2, "l3": self.l3, "l4": self.l4}


def required_prior_window(profile: CorrelationProfile) -> int:
    """Number of leading states whose joint prior the recursion needs.

    Large enough that every conditioning lag of the first transition and
    measurement factors stays inside the window.  The carried matrix then
    fits too: ``window = max(l2', l3' - 1)`` is at most ``max(lags) + 1``.
    """
    return max(profile.as_dict().values()) + 1
