"""Sensor-count sweeps over the averaged position bound.

A count of ``m`` means ``m`` independent replicas of the model's single
sensor, each with its own measurement-noise process, so measurement
information scales linearly in ``m``.  The sweep samples the single-sensor
blocks once and states that rule in one place: it runs the recursion once
over a stack of carries, one member per sensor count, and its stepper
passes member ``m - 1`` the measurement blocks times ``m``.
"""

from __future__ import annotations

import numpy as np

from .blocks import ExpectationEstimator
from .errors import InvariantViolationError, require_int
from .models import SystemModel
from .recursion import run, step

DEFAULT_AVERAGE_WINDOW = 40


def sweep(model: SystemModel, m_max: int, horizon: int = DEFAULT_AVERAGE_WINDOW,
          component: int = 0, est: ExpectationEstimator | None = None) -> np.ndarray:
    """Average root bound of one state component versus sensor count.

    Returns a read-only array ``avg`` of ``m_max`` floats, with ``avg[m - 1]``
    the bound for ``m`` sensors.  The average runs over all recursion steps
    of the horizon.  The averaged bound must decrease strictly with the
    sensor count (information adds across independent sensors); a violation
    indicates a model whose sensor carries no information.  When several
    counts fail a check of the recursion, the earliest step raises, and
    within that step the smallest ``m``.
    """
    require_int(m_max, "m_max", 1)
    require_int(horizon, "horizon", 1)
    require_int(component, "component")
    if not 0 <= component < model.state_dim:
        raise ValueError(
            f"component {component} out of range for state dim {model.state_dim}"
        )
    # Member m - 1 of the stack is the recursion of m sensors.
    scale = np.arange(1, m_max + 1)[:, None, None]
    trace = run(model, est or ExpectationEstimator(), horizon,
                stepper=lambda profile, carry, b, c: step(profile, carry, b, scale * c))
    # One contiguous row per member, so each mean sums as a lone run's does.
    avg = trace.component_bound_sqrt(component).T.copy().mean(axis=1)

    for m in range(1, m_max):
        if not avg[m] < avg[m - 1]:
            raise InvariantViolationError(
                f"average bound failed to decrease from {m} to {m + 1} sensors "
                f"({float(avg[m - 1])!r} -> {float(avg[m])!r})"
            )
    avg.setflags(write=False)
    return avg


def min_sensors(avg: np.ndarray, target: float) -> int | None:
    """Smallest sensor count ``m`` with ``avg[m - 1] <= target``, for ``avg``
    as :func:`sweep` returns it; None if none has."""
    hits = np.flatnonzero(np.asarray(avg) <= target)
    return int(hits[0]) + 1 if hits.size else None
