"""Sensor-count sweeps over the averaged position bound.

A count of ``m`` means ``m`` independent replicas of the model's single
sensor, each with its own measurement-noise process, so measurement
information scales linearly in ``m``.  The sweep samples the single-sensor
blocks once and states that rule in one place: its stepper multiplies the
measurement blocks by ``m``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import BlockProvider, ExpectationEstimator
from .errors import InvariantViolationError
from .models import SystemModel
from .recursion import run, step

DEFAULT_AVERAGE_WINDOW = 40


@dataclass(frozen=True)
class SweepPoint:
    sensors: int
    avg_bound: float


@dataclass(frozen=True)
class SensorSweepResult:
    points: tuple[SweepPoint, ...]
    component: int
    horizon: int

    def avg_bounds(self) -> np.ndarray:
        return np.array([p.avg_bound for p in self.points])


def sweep(model: SystemModel, m_max: int, horizon: int = DEFAULT_AVERAGE_WINDOW,
          component: int = 0, est: ExpectationEstimator | None = None
          ) -> SensorSweepResult:
    """Average root bound of one state component versus sensor count.

    The average runs over all recursion steps of the horizon.  The averaged
    bound must decrease strictly with the sensor count (information adds
    across independent sensors); a violation indicates a model whose sensor
    carries no information.
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    if not 0 <= component < model.state_dim:
        raise ValueError(
            f"component {component} out of range for state dim {model.state_dim}"
        )
    est = est or ExpectationEstimator()
    provider = BlockProvider(model, est, model.start_time, model.start_time + horizon)

    points = []
    for m in range(1, m_max + 1):
        trace = run(model, est, horizon, provider=provider,
                    stepper=lambda profile, carry, b, c: step(profile, carry, b, m * c))
        series = trace.component_bound_sqrt(component)
        points.append(SweepPoint(sensors=m, avg_bound=float(series.mean())))

    for prev, nxt in zip(points, points[1:]):
        if not nxt.avg_bound < prev.avg_bound:
            raise InvariantViolationError(
                f"average bound failed to decrease from {prev.sensors} to "
                f"{nxt.sensors} sensors ({prev.avg_bound!r} -> {nxt.avg_bound!r})"
            )
    return SensorSweepResult(points=tuple(points), component=component, horizon=horizon)


def min_sensors(result: SensorSweepResult, target: float) -> int | None:
    """Smallest sensor count whose average bound meets ``target``; None if none does."""
    for point in result.points:
        if point.avg_bound <= target:
            return point.sensors
    return None
