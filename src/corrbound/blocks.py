"""Expected negative-log-density curvature blocks and their overlay on the
recursion frame.

Each factor's curvature is a dense square array made of ``state_dim``-sized
blocks, one block row and column per state the factor touches;
:func:`factor_frame` states which states those are.  Expectations are taken
over the joint trajectory distribution induced by the model sampler;
Monte-Carlo estimation partitions samples into fixed-size chunks with one
dedicated RNG substream per chunk so results are bit-identical regardless of
worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvariantViolationError, ModelBuildError
from .linalg import finite_difference_hessian, symmetrize
from .models import SystemModel, TrajectoryBatch
from .profiles import CorrelationProfile

ESTIMATOR_MODES = ("analytic", "monte_carlo", "finite_difference_mc")

# Substream namespaces for seed derivation.
_PURPOSE_SAMPLE = 1
_PURPOSE_RESAMPLE = 2

_MAX_RESAMPLE_ROUNDS = 100


@dataclass(frozen=True)
class ExpectationEstimator:
    """How expectations over trajectories are evaluated."""

    mode: str = "analytic"
    sample_count: int = 10_000
    seed: int = 0
    workers: int = 1
    chunk_size: int = 32_768

    def __post_init__(self):
        if self.mode not in ESTIMATOR_MODES:
            raise ConfigError(
                f"estimator mode {self.mode!r} not one of {ESTIMATOR_MODES}"
            )
        if self.sample_count < 1:
            raise ConfigError("estimator sample_count must be >= 1")
        if self.workers < 1:
            raise ConfigError("estimator workers must be >= 1")
        if self.chunk_size < 1:
            raise ConfigError("estimator chunk_size must be >= 1")


@dataclass
class McReport:
    """Bookkeeping from Monte-Carlo block estimation."""

    samples: int = 0
    resampled: int = 0

    def merge(self, other: "McReport") -> None:
        self.samples += other.samples
        self.resampled += other.resampled


def _chunk_sizes(total: int, chunk: int) -> list[int]:
    sizes = [chunk] * (total // chunk)
    if total % chunk:
        sizes.append(total % chunk)
    return sizes


def _chunk_rng(seed: int, purpose: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(purpose, *key))
    )


# ---------------------------------------------------------------------------
# Transition blocks
# ---------------------------------------------------------------------------


def transition_blocks(model: SystemModel, k: int, est: ExpectationEstimator) -> np.ndarray:
    """Expected curvature of the transition factor at time ``k``.

    Returns an ``(l2'+1) x (l2'+1)`` symmetric block grid.
    """
    _check_time(model, k)
    if est.mode == "analytic":
        if model.analytic_b is None:
            raise ModelBuildError(
                f"model '{model.name}' has no closed-form transition blocks"
            )
        return _validated(model.analytic_b(k), model.profile.l2_eff + 1, model.state_dim,
                          "transition blocks")
    if est.mode == "monte_carlo" and model.analytic_b is not None:
        # Per-sample curvature is constant for models that expose closed
        # forms, so the sample mean equals the closed form exactly.
        return _validated(model.analytic_b(k), model.profile.l2_eff + 1, model.state_dim,
                          "transition blocks")
    return _fd_mc_transition(model, k, est)


def _check_time(model: SystemModel, k: int) -> None:
    if k < model.start_time:
        raise ValueError(
            f"time index {k} precedes the first fully conditioned factor "
            f"(start_time={model.start_time})"
        )


def _validated(grid: np.ndarray, size: int, block_dim: int, what: str) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    _require_shape(grid, size, block_dim, what)
    _require_finite(grid, what)
    return grid


def _require_shape(grid: np.ndarray, size: int, block_dim: int, what: str) -> None:
    n = size * block_dim
    if grid.shape != (n, n):
        raise ModelBuildError(
            f"{what}: expected a {size}x{size} grid of {block_dim}-blocks "
            f"({n}x{n}), got shape {grid.shape}"
        )


def _require_finite(grid: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(grid)):
        raise InvariantViolationError(f"{what} contains non-finite entries")


def _transition_point_hessian(model: SystemModel, batch: TrajectoryBatch,
                              sample: int, k: int) -> np.ndarray:
    """Curvature of one transition factor at one sampled point, by central differences."""
    p = model.profile
    l2e = p.l2_eff
    r = model.state_dim
    x_next = batch.states[sample, k + 1]
    x_hist = np.stack([batch.states[sample, k - i] for i in range(l2e)])
    z_hist = (
        np.stack([batch.measurements[sample, k - j] for j in range(p.l4)])
        if p.l4 else np.zeros((0, model.meas_dim))
    )
    shift = batch.trans_shift[sample, k]

    # Stacked in the transition grid's slot order (oldest first, x[k+1] last).
    def f(stacked: np.ndarray) -> float:
        parts = stacked.reshape(l2e + 1, r)
        xs_hist = parts[:l2e][::-1]  # newest first
        return model.trans_logpdf(parts[l2e], xs_hist, z_hist, shift)

    stacked0 = np.concatenate([x_hist[::-1].reshape(-1), x_next])
    return -finite_difference_hessian(f, stacked0)


def _measurement_point_hessian(model: SystemModel, batch: TrajectoryBatch,
                               sample: int, k: int) -> np.ndarray:
    p = model.profile
    l3e = p.l3_eff
    r = model.state_dim
    z_next = batch.measurements[sample, k + 1]
    x_hist = np.stack([batch.states[sample, k + 1 - i] for i in range(l3e)])
    z_hist = (
        np.stack([batch.measurements[sample, k - j] for j in range(p.l1)])
        if p.l1 else np.zeros((0, model.meas_dim))
    )
    shift = batch.meas_shift[sample, k]

    def f(stacked: np.ndarray) -> float:
        parts = stacked.reshape(l3e, r)
        xs_hist = parts[::-1]  # newest first
        return model.meas_logpdf(z_next, xs_hist, z_hist, shift)

    stacked0 = x_hist[::-1].reshape(-1)
    return -finite_difference_hessian(f, stacked0)


def _fd_mc_grid(model: SystemModel, k: int, est: ExpectationEstimator,
                point_hessian, grid_size: int) -> np.ndarray:
    r = model.state_dim
    dim = grid_size * r
    total = np.zeros((dim, dim))
    done = 0
    for c, size in enumerate(_chunk_sizes(est.sample_count, est.chunk_size)):
        rng = _chunk_rng(est.seed, _PURPOSE_SAMPLE, k, c)
        batch = model.simulate(k + 1, size, rng)
        for s in range(size):
            h = point_hessian(model, batch, s, k)
            if not np.all(np.isfinite(h)):
                raise InvariantViolationError(
                    f"non-finite curvature sampled at time {k} "
                    f"(density singularity at a sampled point)"
                )
            total += h
        done += size
    return symmetrize(total / done)


def _fd_mc_transition(model: SystemModel, k: int, est: ExpectationEstimator) -> np.ndarray:
    return _fd_mc_grid(model, k, est, _transition_point_hessian,
                       model.profile.l2_eff + 1)


# ---------------------------------------------------------------------------
# Measurement blocks
# ---------------------------------------------------------------------------


def measurement_blocks(model: SystemModel, k: int, est: ExpectationEstimator) -> np.ndarray:
    """Expected curvature of the measurement factor at time ``k`` (``l3' x l3'``)."""
    grid, _, _ = measurement_blocks_detailed(model, k, est)
    return grid


def measurement_blocks_detailed(
    model: SystemModel, k: int, est: ExpectationEstimator
) -> tuple[np.ndarray, np.ndarray | None, McReport]:
    """As :func:`measurement_blocks`, plus entrywise standard errors and MC stats."""
    _check_time(model, k)
    l3e = model.profile.l3_eff
    report = McReport()
    if est.mode == "analytic":
        if model.analytic_c is None:
            raise ModelBuildError(
                f"model '{model.name}' has no closed-form measurement blocks"
            )
        grid = _validated(model.analytic_c(k), l3e, model.state_dim, "measurement blocks")
        return grid, None, report
    if est.mode == "monte_carlo":
        if model.meas_jacobian is not None:
            blocks, se, report = _sampled_measurement_info(model, [k], k + 1, est)
            return blocks[k], se[k], report
        if model.analytic_c is not None:
            grid = _validated(model.analytic_c(k), l3e, model.state_dim,
                              "measurement blocks")
            return grid, None, report
    grid = _fd_mc_grid(model, k, est, _measurement_point_hessian, l3e)
    report.samples = est.sample_count
    return grid, None, report


def _sampled_measurement_info(
    model: SystemModel, ks: list[int], horizon: int, est: ExpectationEstimator
) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray], McReport]:
    """Sample-mean measurement information at each requested time.

    Uses the measurement Jacobian at the sampled state, contracted through
    the measurement noise information (the term whose conditional expectation
    over the measurement equals the full curvature).  One trajectory batch
    serves every requested time index.
    """
    if model.profile.l3_eff != 1:
        raise ModelBuildError(
            "Jacobian-based measurement sampling supports single-state measurements only"
        )
    if model.meas_noise_information is None:
        raise ModelBuildError(
            f"model '{model.name}' provides a measurement Jacobian but no "
            "measurement noise information matrix"
        )
    r = model.state_dim
    noise_info = symmetrize(np.asarray(model.meas_noise_information, dtype=float))
    report = McReport(samples=est.sample_count)
    sums = {k: np.zeros((r, r)) for k in ks}

    sizes = _chunk_sizes(est.sample_count, est.chunk_size)

    def run_chunk(args):
        c, size = args
        rng = _chunk_rng(est.seed, _PURPOSE_SAMPLE, c)
        batch = model.simulate(horizon, size, rng)
        chunk_sums = {}
        chunk_m2 = {}
        resampled = 0
        for k in ks:
            states = batch.states[:, k + 1, :].copy()
            resampled += _resample_singular(model, states, k, est.seed, c)
            jac = model.meas_jacobian(states)
            per = (jac.transpose(0, 2, 1) @ noise_info) @ jac
            chunk_sums[k] = per.sum(axis=0)
            dev = per - chunk_sums[k] / size
            chunk_m2[k] = np.einsum("nab,nab->ab", dev, dev)
        return chunk_sums, chunk_m2, resampled

    tasks = list(enumerate(sizes))
    if est.workers > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=est.workers) as pool:
            results = list(pool.map(run_chunk, tasks))
    else:
        results = [run_chunk(t) for t in tasks]
    # Fixed reduction order: chunk index order, independent of worker count.
    for chunk_sums, _, resampled in results:
        report.resampled += resampled
        for k in ks:
            sums[k] += chunk_sums[k]

    n = est.sample_count
    blocks = {}
    ses = {}
    for k in ks:
        mean = sums[k] / n
        if n > 1:
            # Squared deviations about the overall mean, summed from each
            # chunk's deviations about its own mean; the one-pass
            # E[x^2] - E[x]^2 loses most digits when the spread is small.
            m2 = np.zeros((r, r))
            for size, (chunk_sums, chunk_m2, _) in zip(sizes, results):
                m2 += chunk_m2[k] + size * (chunk_sums[k] / size - mean) ** 2
            ses[k] = np.sqrt(m2 / (n - 1) / n)
        else:
            ses[k] = np.full((r, r), np.inf)
        blocks[k] = symmetrize(mean)
        _require_finite(blocks[k], "sampled measurement information")
    return blocks, ses, report


def _resample_singular(model: SystemModel, states: np.ndarray, k: int,
                       seed: int, chunk: int) -> int:
    """Replace states that sit on a measurement-function singularity.

    Replacement states come from fresh trajectories drawn on a dedicated
    substream; the number of replacements is returned and surfaced in the
    MC report.
    """
    if model.singular_states is None:
        return 0
    replaced = 0
    for attempt in range(_MAX_RESAMPLE_ROUNDS):
        mask = np.asarray(model.singular_states(states), dtype=bool)
        bad = int(mask.sum())
        if bad == 0:
            return replaced
        replaced += bad
        rng = _chunk_rng(seed, _PURPOSE_RESAMPLE, k, chunk, attempt)
        fresh = model.simulate(k + 1, bad, rng)
        states[mask] = fresh.states[:, k + 1, :]
    raise InvariantViolationError(
        f"resampling failed to leave the measurement singularity after "
        f"{_MAX_RESAMPLE_ROUNDS} rounds at time {k}"
    )


# ---------------------------------------------------------------------------
# Frame overlay
# ---------------------------------------------------------------------------


def factor_frame(b: np.ndarray, c: np.ndarray, profile: CorrelationProfile) -> np.ndarray:
    """Dense overlay of both time-``k`` factor grids on the recursion frame.

    This is the one statement of the slot layout.  With ``m = window``,
    ``l2' = max(l2, 1)`` and ``l3' = max(l3, 1)``, slots counted from 0:

    * the frame has ``m + 1`` slots; slot ``s`` is state ``x[k+1-m+s]``, so
      slots ``0 .. m-1`` are the carried states and slot ``m`` is ``x[k+1]``;
    * the transition grid ``b`` has ``l2' + 1`` slots; slot ``i`` is
      ``x[k-l2'+1+i]`` and lands on frame slot ``m - l2' + i``;
    * the measurement grid ``c`` has ``l3'`` slots; slot ``j`` is
      ``x[k+2-l3'+j]`` and lands on frame slot ``m + 1 - l3' + j``.

    Both grids end at ``x[k+1]``, so each fills the trailing corner of the
    frame, and frame slots before a grid's first slot get nothing from it.
    """
    m = profile.window
    r = b.shape[0] // (profile.l2_eff + 1)
    _require_shape(b, profile.l2_eff + 1, r, "transition blocks")
    _require_shape(c, profile.l3_eff, r, "measurement blocks")
    frame = np.zeros(((m + 1) * r, (m + 1) * r))
    b_at = (m - profile.l2_eff) * r
    c_at = (m + 1 - profile.l3_eff) * r
    frame[b_at:, b_at:] += b
    frame[c_at:, c_at:] += c
    if not np.isfinite(frame).all():
        # One check covers both grids; name the one that failed.
        _require_finite(b, "transition blocks")
        _require_finite(c, "measurement blocks")
        _require_finite(frame, "overlaid factor blocks")
    return frame


# ---------------------------------------------------------------------------
# Block provider
# ---------------------------------------------------------------------------


class BlockProvider:
    """Caches factor blocks over ``[start, stop)``; several runs may share one.

    Factor curvature is treated as time-invariant: transition blocks, and
    measurement blocks of models without a measurement Jacobian, are
    evaluated once at ``start``.  Sampled measurement blocks for the whole
    horizon come from a single trajectory batch.
    """

    def __init__(self, model: SystemModel, est: ExpectationEstimator,
                 start: int, stop: int):
        if stop <= start:
            raise ValueError("empty block range")
        self.model = model
        self.est = est
        self.start = start
        self.stop = stop
        self.report = McReport()
        self._b: np.ndarray | None = None
        self._c_cache: dict[int, np.ndarray] = {}
        self._c_se: dict[int, np.ndarray] = {}

        sampled_c = est.mode == "monte_carlo" and model.meas_jacobian is not None
        if sampled_c:
            ks = list(range(start, stop))
            blocks, ses, report = _sampled_measurement_info(model, ks, stop, est)
            self.report.merge(report)
            self._c_cache.update(blocks)
            self._c_se.update(ses)

    def blocks(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        return self.transition(k), self.measurement(k)

    def transition(self, k: int) -> np.ndarray:
        del k  # time-invariant
        if self._b is None:
            self._b = transition_blocks(self.model, self.start, self.est)
        return self._b

    def measurement(self, k: int) -> np.ndarray:
        if k in self._c_cache:
            return self._c_cache[k]
        key = self.start if self.model.meas_jacobian is None else k
        if key not in self._c_cache:
            grid, se, report = measurement_blocks_detailed(self.model, key, self.est)
            self.report.merge(report)
            self._c_cache[key] = grid
            if se is not None:
                self._c_se[key] = se
        return self._c_cache[key]

    def measurement_stderr(self, k: int) -> np.ndarray | None:
        return self._c_se.get(k)
