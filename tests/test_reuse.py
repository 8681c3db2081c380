"""Reuse of steps whose inputs repeat.

On one block pair for every step, ``corrbound.run`` and
``corrbound.pcrb_augmented`` stop at the first carry that an earlier step
already had, byte for byte, and tile the cycle from there.  Every output
must be byte-identical to the plain loops in ``reference_steps``, which
compute every step.
"""

import numpy as np
import pytest

import corrbound as cb
from corrbound import baselines, recursion, selection
from corrbound.errors import InvariantViolationError
from conftest import random_linear_model
from reference_steps import pcrb_augmented_plain, run_plain

EXACT = cb.ExpectationEstimator()


def same_array(a: np.ndarray, b: np.ndarray) -> bool:
    return (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def assert_same_bytes(trace: cb.PCRBTrace, plain: cb.PCRBTrace) -> None:
    """``trace`` equals ``plain`` byte for byte.  ``plain`` holds one row per
    step, in order, so its stacks are read directly, not through the views
    under test."""
    assert len(trace) == len(plain.info)
    assert (trace.start, trace.mc_resampled) == (plain.start, plain.mc_resampled)
    for step, i in enumerate(trace.index.tolist(), 1):
        for name in ("info", "bound", "root"):
            a, b = getattr(trace, name)[i], getattr(plain, name)[step - 1]
            assert (a.dtype, a.shape) == (b.dtype, b.shape), (step, name)
            assert a.tobytes() == b.tobytes(), (step, name)
    assert_same_views(trace, plain)


def assert_same_views(trace: cb.PCRBTrace, plain: cb.PCRBTrace) -> None:
    """The trace's other views agree with the plain loop's stacks, and every
    stack is read-only."""
    n = len(plain.info)
    for step in range(1, n + 1):
        assert same_array(trace.info_at(step), plain.info[step - 1]), step
    for step in (0, -1, n + 1):
        with pytest.raises(IndexError, match=f"1..{n}"):
            trace.info_at(step)
    for component in range(plain.info.shape[-1]):
        assert same_array(trace.component_bound_sqrt(component),
                          plain.root[:, component]), component
    for a in (trace.info, trace.bound, trace.root):
        assert not a.flags.writeable


def test_example1_unified_matches_plain_loop(example1):
    assert_same_bytes(cb.run(example1, EXACT, 3000), run_plain(example1, EXACT, 3000))


@pytest.mark.parametrize("baseline", [cb.pcrb_ignore_correlation, cb.pcrb_prewhiten])
def test_example1_white_noise_baselines_match_plain_loop(example1, baseline, monkeypatch):
    reused = baseline(example1, 3000)
    monkeypatch.setattr(baselines, "run", run_plain)
    assert_same_bytes(reused, baseline(example1, 3000))


def test_augmented_matches_plain_loop(example1):
    assert_same_bytes(cb.pcrb_augmented(example1, 3000), pcrb_augmented_plain(example1, 3000))


@pytest.mark.parametrize("profile", [(2, 1, 3, 2), (2, 2, 3, 0), (1, 3, 2, 0), (3, 3, 1, 3)])
@pytest.mark.parametrize("seed", [3, 11])
def test_random_linear_models_match_plain_loop(profile, seed):
    prof = cb.CorrelationProfile(*profile)
    assert prof.window in (2, 3)
    model = random_linear_model(prof, 2, 2, seed=seed)
    assert_same_bytes(cb.run(model, EXACT, 500), run_plain(model, EXACT, 500))


@pytest.mark.parametrize("workers", [1, 2])
def test_example2_monte_carlo_matches_plain_loop(example2, workers):
    est = cb.ExpectationEstimator(mode="monte_carlo", samples=2000, seed=7,
                                  workers=workers)
    start = example2.start_time
    provider = cb.BlockProvider(example2, est, start, start + 40)
    assert_same_bytes(cb.run(example2, est, 40, provider=provider),
                      run_plain(example2, est, 40, provider=provider))


@pytest.mark.parametrize("m", [1, 3])
def test_scaled_measurement_stepper_matches_plain_loop(example1, m):
    def stepper(profile, carry, b, c):
        # The sweep's replica rule, as in ``selection.sweep``.
        return cb.step(profile, carry, b, m * c)

    assert_same_bytes(cb.run(example1, EXACT, 3000, stepper=stepper),
                      run_plain(example1, EXACT, 3000, stepper=stepper))


def test_sweep_matches_plain_loop(example1, monkeypatch):
    reused = selection.sweep(example1, 4, horizon=500)
    monkeypatch.setattr(selection, "run", run_plain)
    assert np.array_equal(reused, selection.sweep(example1, 4, horizon=500))


def test_sweep_computes_few_steps(example1, monkeypatch):
    calls = 0
    step = selection.step

    def counting(*args):
        nonlocal calls
        calls += 1
        return step(*args)

    monkeypatch.setattr(selection, "step", counting)
    result = selection.sweep(example1, 4, horizon=3000)
    assert len(result) == 4
    assert calls <= 4 * 64


class _ChangingBlocks:
    """example1's closed-form blocks, with one grid doubled from step 500
    and non-finite from step 800, long after the recursion has settled."""

    def __init__(self, model: cb.SystemModel, grid: int):
        start = model.start_time
        self._inner = cb.BlockProvider(model, EXACT, start, start + 800)
        self._start = start
        self._grid = grid
        self.report = self._inner.report

    def blocks(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        grids = list(self._inner.blocks(k))
        step = k - self._start + 1
        if step >= 500:
            grids[self._grid] = 2.0 * grids[self._grid]
        if step >= 800:
            grids[self._grid][0, 0] = np.nan
        return grids[0], grids[1]


@pytest.mark.parametrize("grid, name", [(0, "transition blocks"), (1, "measurement blocks")])
def test_blocks_that_change_after_the_fixed_point(example1, grid, name):
    plain = run_plain(example1, EXACT, 799, provider=_ChangingBlocks(example1, grid))
    # The change reaches the bound, so a stale stored step would show.
    assert plain.info_at(500).tobytes() != plain.info_at(499).tobytes()
    assert plain.info_at(499).tobytes() == plain.info_at(497).tobytes()
    reused = cb.run(example1, EXACT, 799, provider=_ChangingBlocks(example1, grid))
    assert_same_bytes(reused, plain)
    with pytest.raises(InvariantViolationError, match=name):
        cb.run(example1, EXACT, 800, provider=_ChangingBlocks(example1, grid))


class _WritableBlocks:
    """example1's closed-form blocks as writable arrays, the same pair of
    objects at every step, with one of them doubled in place from step 500."""

    def __init__(self, model: cb.SystemModel, grid: int):
        start = model.start_time
        inner = cb.BlockProvider(model, EXACT, start, start + 799)
        self._pair = tuple(g.copy() for g in inner.blocks(start))
        self._start = start
        self._grid = grid
        self.report = inner.report

    def blocks(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        if k - self._start + 1 == 500:
            self._pair[self._grid][...] *= 2.0
        return self._pair


@pytest.mark.parametrize("grid", [0, 1])
def test_writable_blocks_changed_in_place(example1, grid):
    # The same writable object is no promise of the same bytes, so only
    # read-only blocks that own their data are matched: every step here
    # calls the stepper.
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return cb.step(*args)

    plain = run_plain(example1, EXACT, 799, provider=_WritableBlocks(example1, grid))
    assert plain.info_at(500).tobytes() != plain.info_at(499).tobytes()
    assert_same_bytes(cb.run(example1, EXACT, 799, stepper=counting,
                             provider=_WritableBlocks(example1, grid)), plain)
    assert calls == 799


def _assert_read_only(trace: cb.PCRBTrace) -> None:
    for i in (trace.index[0], trace.index[-1]):
        for a in (trace.info[i], trace.bound[i], trace.root[i]):
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 0.0


def test_example1_computes_few_steps(example1):
    calls = 0

    def counting(profile, carry, b, c):
        nonlocal calls
        calls += 1
        return cb.step(profile, carry, b, c)

    trace = cb.run(example1, EXACT, 3000, stepper=counting)
    assert len(trace) == 3000
    assert calls <= 64
    _assert_read_only(trace)


def test_augmented_computes_few_steps(example1, monkeypatch):
    calls = 0

    def counting(fn):
        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(baselines, "psd_inverse", counting(baselines.psd_inverse))
    monkeypatch.setattr(baselines, "psd_factor", counting(baselines.psd_factor))
    monkeypatch.setattr(recursion, "psd_inverse", counting(recursion.psd_inverse))
    trace = cb.pcrb_augmented(example1, 3000)
    assert len(trace) == 3000
    # Five inversions build the augmented prior, each computed step makes
    # two factorizations, and the trace's bounds are one stacked inversion.
    assert calls <= 5 + 2 * 64 + 1
    _assert_read_only(trace)


def _counting_step():
    calls = []

    def counting(profile, carry, b, c):
        calls.append(None)
        return cb.step(profile, carry, b, c)

    return counting, calls


def test_settled_tail_is_tiled_not_stepped(example1):
    counting, calls = _counting_step()
    short = cb.run(example1, EXACT, 3000, stepper=counting)
    assert len(calls) == 43
    counting, calls = _counting_step()
    long = cb.run(example1, EXACT, 10**6, stepper=counting)
    assert len(calls) == 43
    assert len(long) == 10**6
    for name in ("info", "bound", "root"):
        assert same_array(getattr(long, name), getattr(short, name)), name
    # Past the 3000 steps, the index continues the cycle that the first
    # repeated carry began: step s >= cycle takes row cycle + (s - cycle) % period.
    stepped = len(short.info)
    cycle = int(short.index[stepped])
    period = stepped - cycle
    assert np.array_equal(long.index[:3000], short.index)
    steps = np.arange(3000, 10**6)
    assert np.array_equal(long.index[3000:], cycle + (steps - cycle) % period)


@pytest.mark.parametrize("horizon", [301, 300])
def test_augmented_period_two_tail(example1, horizon):
    trace = cb.pcrb_augmented(example1, horizon)
    tail = trace.index[-4:]
    assert tail[0] != tail[1] and np.array_equal(tail[:2], tail[2:])  # period 2
    assert_same_bytes(trace, pcrb_augmented_plain(example1, horizon))


def test_provider_short_of_the_horizon_raises_after_settling(example1):
    start = example1.start_time
    provider = cb.BlockProvider(example1, EXACT, start, start + 100)
    with pytest.raises(ValueError, match=rf"^time index {start + 100} outside the "
                                         rf"provider's range \[{start}, {start + 100}\)$"):
        cb.run(example1, EXACT, 3000, provider=provider)
