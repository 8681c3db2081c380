"""Expected negative-log-density curvature blocks and their overlay on the
recursion frame.

Each factor's curvature is a dense square array made of ``state_dim``-sized
blocks, one block row and column per state the factor touches;
:func:`factor_frame` states which states those are.  Expectations are taken
over the model sampler's trajectories, at each time over that time's states,
and a closed form is time-invariant (:class:`BlockProvider`).
Monte-Carlo estimation splits the samples into fixed units, each drawn from
an RNG substream of its own and reduced in unit order, so results are
bit-identical whatever the worker count.  Each unit is also one task of a
thread pool of at most ``workers`` threads, so the model callables run
concurrently on worker threads and must not share mutable scratch.  The
units' substreams are made in the calling thread before the pool starts,
so ``numpy.random`` is first imported there, and only by a run that
samples.  The sampled Jacobian path's unit is a block of ``BLOCK_SIZE``
samples.
Finite-difference Monte Carlo (FD-MC) draws chunks of ``CHUNK_SIZE``
samples, one ``simulate`` call each, and sums every FD-MC grid of a
provider from that one batch.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvariantViolationError, ModelBuildError, require_int
from .linalg import finite_difference_hessian, symmetrize
from .models import (
    SystemModel,
    TrajectoryBatch,
    _read_only,
    _require_finite,
    _require_shape,
)
from .profiles import CorrelationProfile

ESTIMATOR_MODES = ("monte_carlo", "finite_difference_mc")

# Substream namespaces for seed derivation.
_PURPOSE_SAMPLE = 1
_PURPOSE_RESAMPLE = 2

_MAX_RESAMPLE_ROUNDS = 100

# Samples per block of the sampled Jacobian path: its unit of RNG substreams
# and of worker tasks, so changing it changes every sampled result.  512 was
# the fastest size measured: example2's 50k-sample, 40-step `run` on one
# worker (x86-64, 2 vCPUs; the range of two medians of 9 runs) took
# 293-327 ms at 128, 256-273 ms at 256, 234-252 ms at 512, 240-263 ms at
# 1024 and 269-286 ms at 2048.
# While a 512-sample block's Jacobian is contracted about 2.7 MB is live
# (states 0.7 MB, Jacobians 1.3 MB, contraction scratch 0.66 MB), and
# 10k samples make 20 tasks.
BLOCK_SIZE = 512

# Samples per FD-MC chunk: its unit of RNG substreams.
CHUNK_SIZE = 32_768


@dataclass(frozen=True)
class ExpectationEstimator:
    """How expectations over trajectories are evaluated: the ``estimator``
    entries of a configuration file.  ``seed=None`` is no seed, which serves
    only a run that samples nothing (:class:`BlockProvider`).  Each field is
    checked here, and an error names its entry, ``estimator.<field>``."""

    mode: str = "monte_carlo"
    samples: int = 10_000
    seed: int | None = None
    workers: int = 1

    def __post_init__(self):
        if self.mode not in ESTIMATOR_MODES:
            raise ConfigError(f"estimator.mode {self.mode!r} not one of {ESTIMATOR_MODES}")
        for field, minimum in (("samples", 1), ("workers", 1)):
            require_int(getattr(self, field), f"estimator.{field}", minimum)
        if self.seed is not None:
            require_int(self.seed, "estimator.seed", 0)


@dataclass
class McReport:
    """Bookkeeping from Monte-Carlo block estimation."""

    samples: int = 0
    resampled: int = 0


def _split(total: int, size: int) -> list[int]:
    """Sizes of consecutive units of ``size`` samples, the last one short."""
    return [size] * (total // size) + ([total % size] if total % size else [])


def _substream(seed: int, purpose: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(purpose, *key))
    )


# ---------------------------------------------------------------------------
# Finite-difference blocks
# ---------------------------------------------------------------------------


def _factor_hessian(model: SystemModel, batch: TrajectoryBatch, k: int,
                    transition: bool) -> np.ndarray:
    """Sum over ``batch``'s samples of one time-``k`` factor's negative
    log-density Hessian in its slot states, by central differences over all
    samples at once.  The slots end at ``x[k+1]``, as in
    :func:`factor_frame`: ``l2' + 1`` of them for the transition, whose
    measurement history is ``l4`` deep, and ``l3'`` for the measurement,
    whose history is ``l1`` deep."""
    p = model.profile
    n, r = len(batch.states), model.state_dim
    if transition:
        field, slots, depth, shift = "trans_logpdf", p.l2_eff + 1, p.l4, batch.trans_shift[:, k]
    else:
        field, slots, depth, shift = "meas_logpdf", p.l3_eff, p.l1, batch.meas_shift[:, k]
    logpdf = getattr(model, field)
    z_next = batch.measurements[:, k + 1]
    z_hist = batch.measurements[:, k + 1 - depth:k + 1][:, ::-1]

    def f(stacked: np.ndarray) -> np.ndarray:
        xs = stacked.reshape(n, slots, r)[:, ::-1]  # newest first
        if transition:
            value = logpdf(xs[:, 0], xs[:, 1:], z_hist, shift)
        else:
            value = logpdf(z_next, xs, z_hist, shift)
        value = np.asarray(value)
        _require_layout(value, (n,), model, field, "(n,)")
        return value

    return -finite_difference_hessian(f, batch.states[:, k + 2 - slots:k + 2].reshape(n, -1))


def _fd_mc_grids(model: SystemModel, keys: list[tuple[int, bool]],
                 est: ExpectationEstimator) -> dict[tuple[int, bool], np.ndarray]:
    """FD-MC mean of each factor grid of ``keys``, ``(time, transition?)``
    pairs, from one draw of trajectories.

    Chunk ``c`` of ``CHUNK_SIZE`` samples (the last one short) is one
    ``simulate`` call up to the last key's time plus one, on the substream
    ``(start, c)`` with ``start`` the first key's time, and one task of the
    pool; every grid is summed from that batch, and the per-chunk sums are
    combined in chunk order.
    """
    sizes = _split(est.samples, CHUNK_SIZE)
    horizon = max(k for k, _ in keys) + 1
    rngs = [_substream(est.seed, _PURPOSE_SAMPLE, keys[0][0], c) for c in range(len(sizes))]

    def run_chunk(c: int) -> list[np.ndarray]:
        batch = _simulate(model, horizon, sizes[c], rngs[c])
        return [_factor_hessian(model, batch, k, transition) for k, transition in keys]

    grids = {}
    for key, parts in zip(keys, zip(*_map_units(run_chunk, len(sizes), est.workers))):
        grids[key] = _read_only(symmetrize(sum(parts) / est.samples))
        _require_finite(grids[key], f"curvature sampled at time {key[0]}")
    return grids


def _simulate(model: SystemModel, horizon: int, count: int,
              rng: np.random.Generator) -> TrajectoryBatch:
    """``model.simulate(horizon, count, rng)``, checked to hold ``count``
    trajectories over times ``0..horizon``, with every field an array."""
    batch = model.simulate(horizon, count, rng)
    if not isinstance(batch, TrajectoryBatch):
        raise ModelBuildError(f"model '{model.name}': simulate returned "
                              f"{type(batch).__name__}, expected a TrajectoryBatch")
    fields = {}
    for field, dim in (("states", "state_dim"), ("measurements", "meas_dim"),
                       ("trans_shift", "state_dim"), ("meas_shift", "meas_dim")):
        fields[field] = np.asarray(getattr(batch, field))
        _require_layout(fields[field], (count, horizon + 1, getattr(model, dim)), model,
                        f"simulate {field}", f"(count, horizon + 1, {dim})")
    return TrajectoryBatch(**fields)


def _map_units(run, count: int, workers: int) -> list:
    """``[run(0), ..., run(count - 1)]``, spread over a pool of at most
    ``workers`` threads, and no more than there are units or CPUs this
    process may run on.  The pool's module is imported only here, so a
    run on one thread never loads it."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(workers, count, cpus or 1)
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run, range(count)))
    return [run(u) for u in range(count)]


# ---------------------------------------------------------------------------
# Sampled measurement blocks
# ---------------------------------------------------------------------------


def _sampled_measurement_info(
    model: SystemModel, ks: range, horizon: int, est: ExpectationEstimator
) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray], McReport]:
    """Sample-mean measurement information at each time of ``ks``.

    Uses the measurement Jacobian at the sampled state, contracted through
    the measurement noise information (the term whose conditional expectation
    over the measurement equals the full curvature).  Block ``b`` of
    ``BLOCK_SIZE`` samples (the last one short) is drawn by one
    ``model.sample_states`` call on the substream ``(b,)`` and reduced as
    one task: its states at the consecutive times of ``ks`` form one
    ``(len(ks) * n, state_dim)`` view, which gets one ``singular_states`` and
    one ``meas_jacobian`` call.  The per-time partial sums of all blocks are
    then combined in block order.
    """
    if model.profile.l3_eff != 1:
        raise ModelBuildError(
            "Jacobian-based measurement sampling supports single-state measurements only"
        )
    for field, what in (("meas_noise_information", "measurement noise information matrix"),
                        ("sample_states", "state sampler (sample_states)")):
        if getattr(model, field) is None:
            raise ModelBuildError(
                f"model '{model.name}' provides a measurement Jacobian but no {what}")
    r = model.state_dim
    noise_info = model.meas_noise_information
    sizes = _split(est.samples, BLOCK_SIZE)
    rngs = [_substream(est.seed, _PURPOSE_SAMPLE, b) for b in range(len(sizes))]
    local = threading.local()

    def run_block(b: int):
        n = sizes[b]
        # Each thread draws all its blocks into one buffer.  Blocks that
        # allocated and freed their own states had malloc return the memory
        # to the OS and fault it in again: 64k minor page faults for 50k
        # samples on one worker, against 0.7k with the buffer kept.
        if not hasattr(local, "buffer"):
            local.buffer = np.empty((horizon + 1) * sizes[0] * r)
        out = local.buffer[:(horizon + 1) * n * r].reshape(horizon + 1, n, r)
        block = _sample_states(model, horizon, n, rngs[b], out)
        states = block[ks.start + 1:ks.stop + 1].reshape(-1, r)
        resampled = _resample_singular(model, states, ks, est.seed, b)
        jac = np.asarray(model.meas_jacobian(states))
        _require_layout(jac, (model.meas_dim, r, len(states)), model, "meas_jacobian",
                        "(meas_dim, state_dim, n)")
        return (n, *_contract(jac.reshape(model.meas_dim, r, len(ks), n), noise_info),
                resampled)

    partials = _map_units(run_block, len(sizes), est.workers)
    # Fixed reduction order: block order, independent of worker count.
    report = McReport(samples=est.samples,
                      resampled=sum(part[3] for part in partials))
    sums = np.zeros((len(ks), r, r))
    for _, part_sums, _, _ in partials:
        sums += part_sums

    n = est.samples
    mean = sums / n
    blocks = {}
    for k, grid in zip(ks, mean):
        blocks[k] = _read_only(symmetrize(grid))
        # Before the SE pass, whose deviations would turn inf into NaN.
        _require_finite(blocks[k], "sampled measurement information")
    if n > 1:
        # Squared deviations about the overall mean, summed from each
        # block's deviations about its own mean; the one-pass
        # E[x^2] - E[x]^2 loses most digits when the spread is small.
        m2 = np.zeros((len(ks), r, r))
        for size, part_sums, part_m2, _ in partials:
            m2 += part_m2 + size * (part_sums / size - mean) ** 2
        se = np.sqrt(m2 / (n - 1) / n)
    else:
        se = np.full((len(ks), r, r), np.inf)
    return blocks, dict(zip(ks, se)), report


def _contract(jac: np.ndarray, noise_info: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-time sums over one sample block of ``J' Lambda J``, and of its
    squared deviations about that block-time's own mean, each
    ``(times, state_dim, state_dim)``.

    ``jac`` is entry-major by time, ``(meas_dim, state_dim, times, n)``:
    ``jac[j, a, t]`` holds ``J[j, a]`` for every sample at time ``t``.  Only
    the block's live columns (any nonzero entry at any time; NaN and inf
    count) are contracted, one entry pair at a time over all times' samples
    at once.  A dead column's entries stay exact zeros; where a live column
    is all zeros at one time, its products there are zeros of either sign,
    which the caller's sums from +0.0 turn into +0.0.  The reductions are
    numpy sums, which do not depend on the BLAS thread count.
    """
    _, r, t, n = jac.shape
    sums = np.zeros((t, r, r))
    m2 = np.zeros((t, r, r))
    left = np.empty((len(jac), t, n))
    per = np.empty((t, n))
    term = np.empty((t, n))

    def dot(u, v, out):
        # out = sum_j u[j] * v[j], added in j order.
        np.multiply(u[0], v[0], out=out)
        for j in range(1, len(u)):
            out += np.multiply(u[j], v[j], out=term)
        return out

    live = np.flatnonzero((jac != 0).any(axis=(0, 2, 3)))
    # 0 * inf gives NaN here on purpose: the caller rejects non-finite means.
    with np.errstate(invalid="ignore"):
        for p, a in enumerate(live):
            for i in range(len(jac)):
                dot(noise_info[:, i], jac[:, a], left[i])  # (Lambda J)[i, a]
            for b in live[p:]:
                total = dot(left, jac[:, b], per).sum(axis=1)
                per -= (total / n)[:, None]
                sums[:, a, b] = sums[:, b, a] = total
                m2[:, a, b] = m2[:, b, a] = np.square(per, out=per).sum(axis=1)
    return sums, m2


def _sample_states(model: SystemModel, horizon: int, count: int,
                   rng: np.random.Generator, out: np.ndarray | None = None) -> np.ndarray:
    """``model.sample_states(horizon, count, rng, out)``, checked to be
    time-major."""
    states = np.asarray(model.sample_states(horizon, count, rng, out))
    _require_layout(states, (horizon + 1, count, model.state_dim), model, "sample_states",
                    "(horizon + 1, count, state_dim)")
    return states


def _require_layout(arr: np.ndarray, shape: tuple[int, ...], model: SystemModel,
                    field: str, layout: str) -> None:
    if arr.shape != shape:
        raise ModelBuildError(
            f"model '{model.name}': {field} returned shape {arr.shape}, "
            f"expected {layout} = {shape}"
        )


def _resample_singular(model: SystemModel, states: np.ndarray, ks: range,
                       seed: int, block: int) -> int:
    """Replace states that sit on a measurement-function singularity.

    ``states`` holds one sample block's states at each time of ``ks`` in
    turn, the same number of rows per time, and one ``singular_states`` call
    checks them all.  A time's flagged rows are replaced from fresh draws of
    ``model.sample_states`` on the substream ``(k, block, attempt)``,
    so no two blocks share replacements, and are checked again until none is
    left.  The number of replacements is returned and surfaced in the MC
    report.
    """
    if model.singular_states is None:
        return 0
    n = len(states) // len(ks)
    masks = np.asarray(model.singular_states(states), dtype=bool).reshape(len(ks), n)
    replaced = 0
    for i in np.flatnonzero(masks.any(axis=1)):
        k, rows, mask = ks[i], states[i * n:(i + 1) * n], masks[i]
        for attempt in range(_MAX_RESAMPLE_ROUNDS):
            bad = int(mask.sum())
            if bad == 0:
                break
            replaced += bad
            rng = _substream(seed, _PURPOSE_RESAMPLE, k, block, attempt)
            rows[mask] = _sample_states(model, k + 1, bad, rng)[k + 1]
            mask = np.asarray(model.singular_states(rows), dtype=bool)
        else:
            raise InvariantViolationError(
                f"resampling failed to leave the measurement singularity after "
                f"{_MAX_RESAMPLE_ROUNDS} rounds at time {k}"
            )
    return replaced


# ---------------------------------------------------------------------------
# Frame overlay
# ---------------------------------------------------------------------------


# An overflow of the overlay is named by the finiteness check, not warned.
@np.errstate(over="ignore")
def factor_frame(b: np.ndarray, c: np.ndarray, profile: CorrelationProfile) -> np.ndarray:
    """Dense overlay of both time-``k`` factor grids on the recursion frame.

    This is the one statement of the slot layout: every factor grid covers
    consecutive states, oldest first, and its last slot is ``x[k+1]``.  The
    transition grid ``b`` has ``l2' + 1`` slots, the measurement grid ``c``
    has ``l3'`` and the frame has ``window + 1``, the carried states and
    then ``x[k+1]``; with ``l2' = max(l2, 1)`` and ``l3' = max(l3, 1)``.  So
    each grid fills the frame's trailing corner of its own size.

    ``c`` may carry leading stack axes, one grid per member; the frame then
    has the same stack axes, ``(..., S, S)``, and every member shares ``b``.
    """
    r = b.shape[0] // (profile.l2_eff + 1)
    _require_shape(b, profile.l2_eff + 1, r, "transition blocks")
    stack = c.shape[:-2]
    _require_shape(c[(0,) * len(stack)] if stack else c, profile.l3_eff, r,
                   "measurement blocks")
    size = (profile.window + 1) * r
    frame = np.zeros((*stack, size, size))
    frame[..., -len(b):, -len(b):] += b
    n = c.shape[-1]
    frame[..., -n:, -n:] += c
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
    """Factor blocks over ``[start, stop)``, all computed on construction;
    several runs may share one.  This is the one place that picks a block's
    source, by one rule for each factor:

    1. The closed form, ``analytic_b`` or ``analytic_c``, if the model has
       one, unless the mode is ``finite_difference_mc``.  A closed form is
       the mean that sampling would estimate, and one grid serves every time.
    2. Any other source samples, and without a seed it is a
       :class:`ConfigError` that names the factor, raised before any draw.
       So a seedless run takes every factor in closed form or refuses.
    3. Under ``monte_carlo``, the measurement factor of a model with a
       ``meas_jacobian``: the sample mean of ``J' Lambda J`` at every time
       from one draw of states (the only blocks with standard errors).
    4. Otherwise a finite-difference Monte-Carlo (FD-MC) mean.  A factor
       with a closed form gets one grid, at ``start``, a cross-check of
       that closed form; a factor without one gets a grid at every time,
       since its curvature follows that time's state distribution.

    Every FD-MC grid of the provider comes from one draw of trajectories,
    up to ``start + 1``, or up to ``stop`` when a factor is sampled at every
    time.  ``report.samples`` counts every trajectory drawn, once per draw.
    The blocks are read-only arrays that own their data; a closed form is
    the model's own array, which every provider of the model shares.  When
    both factors are time invariant, ``pair`` is the one ``(b, c)`` tuple
    that ``blocks`` returns at every time, and :func:`corrbound.run` steps
    it only until the carry repeats; otherwise ``pair`` is None.
    """

    def __init__(self, model: SystemModel, est: ExpectationEstimator,
                 start: int, stop: int):
        if stop <= start:
            raise ValueError("empty block range")
        if start < model.start_time:
            raise ValueError(
                f"time index {start} precedes the first fully conditioned factor "
                f"(start_time={model.start_time})"
            )
        self.start, self.stop = start, stop
        self.report, self._c_se = McReport(), {}
        times = range(start, stop)
        # Each factor's grid, keyed by `transition`: one array for every time
        # or a dict by time.  fd_each: is an FD-MC factor sampled per time?
        grids, fd_each = {}, {}
        for transition, factor, closed in ((True, "transition", model.analytic_b),
                                           (False, "measurement", model.analytic_c)):
            if closed is not None and est.mode != "finite_difference_mc":
                grids[transition] = closed
            elif est.seed is None:
                raise ConfigError(f"estimator.seed: required, since the {factor} blocks of "
                                  f"model '{model.name}' are sampled under {est.mode}")
            elif not transition and est.mode == "monte_carlo" and model.meas_jacobian is not None:
                grids[False], self._c_se, self.report = _sampled_measurement_info(
                    model, times, stop, est)
            else:
                fd_each[transition] = closed is None
        if fd_each:
            drawn = _fd_mc_grids(model, [(k, t) for t, each in fd_each.items()
                                         for k in (times if each else [start])], est)
            self.report.samples += est.samples
            for t, each in fd_each.items():
                grids[t] = {k: drawn[k, t] for k in times} if each else drawn[start, t]

        # pair: the one (b, c) pair object of every time when both grids are
        # time-invariant, which tells a run that its blocks repeat.
        pair = grids[True], grids[False]
        if any(isinstance(g, dict) for g in pair):
            self.pair = None
            self._blocks = {k: tuple(g[k] if isinstance(g, dict) else g for g in pair)
                            for k in times}
        else:
            self.pair = pair

    def _require_time(self, k: int) -> None:
        if k not in range(self.start, self.stop):
            raise ValueError(f"time index {k} outside the provider's range "
                             f"[{self.start}, {self.stop})")

    def blocks(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        self._require_time(k)
        return self.pair or self._blocks[k]

    def measurement(self, k: int) -> np.ndarray:
        return self.blocks(k)[1]

    def measurement_stderr(self, k: int) -> np.ndarray | None:
        self._require_time(k)
        return self._c_se.get(k)
