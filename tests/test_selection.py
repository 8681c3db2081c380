import dataclasses

import numpy as np
import pytest

import corrbound as cb
from corrbound import blocks, selection
from corrbound.errors import InvariantViolationError
from conftest import build_example1_stacked


def test_sweep_monotone_and_m1_matches_run(example1, analytic_est):
    avg = cb.sweep(example1, 6, horizon=20, component=0, est=analytic_est)
    assert avg.shape == (6,) and avg.dtype == float and not avg.flags.writeable
    assert np.all(np.diff(avg) < 0)
    trace = cb.run(example1, analytic_est, 20)
    expected = float(trace.component_bound_sqrt(0).mean())
    assert avg[0] == pytest.approx(expected, rel=1e-12)


def test_sweep_rejects_flat_family(analytic_est):
    # A sensor with zero gain adds no information, however many replicas.
    spec = cb.LinearConditionalSpec(
        profile=cb.CorrelationProfile(),
        state_coeffs=(np.array([[1.0]]),),
        process_cov=np.array([[1.0]]),
        meas_state_coeffs=(np.array([[0.0]]),),
        meas_cov=np.array([[1.0]]),
    )
    blind = cb.build_linear_model(spec, name="zero_gain")
    # The values print as floats, not as numpy scalars.
    with pytest.raises(InvariantViolationError,
                       match=r"from 1 to 2 sensors \([0-9.e+-]+ -> [0-9.e+-]+\)$"):
        cb.sweep(blind, 3, horizon=10, est=analytic_est)


def test_sweep_samples_once(example2, monkeypatch):
    calls = []

    def counted(horizon, count, rng, out=None):
        calls.append(count)
        return example2.sample_states(horizon, count, rng, out)

    def full_batch(horizon, count, rng):
        raise AssertionError("the Jacobian path draws states only")

    model = dataclasses.replace(example2, sample_states=counted, simulate=full_batch)
    monkeypatch.setattr(blocks, "BLOCK_SIZE", 1_000)
    est = cb.ExpectationEstimator(mode="monte_carlo", samples=2_000, seed=3)
    cb.run(model, est, 5)
    per_run = len(calls)
    assert per_run == 2  # one draw per sample block
    calls.clear()
    cb.sweep(model, 4, horizon=5, est=est)
    assert len(calls) == per_run


def test_min_sensors_threshold_queries():
    avg = np.array([10.0, 8.0, 6.0, 5.0])  # avg[m - 1] for m sensors
    assert cb.min_sensors(avg, 6.0) == 3
    assert cb.min_sensors(avg, 11.0) == 1
    assert cb.min_sensors(avg, 4.9) is None


def test_two_sensor_stack_matches_full_horizon_reference():
    stacked = build_example1_stacked(2)
    deviations = cb.verify_recursion(stacked, cb.ExpectationEstimator(), 12)
    assert max(deviations.values()) < 1e-8


def test_replica_and_stack_traces_agree(example1, analytic_est, monkeypatch):
    # Member m - 1 of the sweep's one stacked trace is the recursion of an
    # explicitly stacked m-sensor model.
    traces = []

    def recording_run(*args, **kwargs):
        traces.append(cb.run(*args, **kwargs))
        return traces[-1]

    monkeypatch.setattr(selection, "run", recording_run)
    cb.sweep(example1, 4, horizon=15, est=analytic_est)
    [t_rep] = traces
    for m in range(1, 5):
        t_stk = cb.run(build_example1_stacked(m), analytic_est, 15)
        for a, b in zip(t_rep.info[t_rep.index], t_stk.info[t_stk.index], strict=True):
            info = a[m - 1]
            assert np.max(np.abs(info - b)) / np.max(np.abs(info)) < 1e-12


def test_sweep_steps_once_per_time(example2, monkeypatch):
    # Every sensor count advances in the same step call: one per time, not
    # one per time and count.
    calls = 0
    step = selection.step

    def counting(*args):
        nonlocal calls
        calls += 1
        return step(*args)

    monkeypatch.setattr(selection, "step", counting)
    est = cb.ExpectationEstimator(mode="monte_carlo", samples=1_000, seed=5)
    avg = cb.sweep(example2, 8, horizon=5, est=est)
    assert avg.shape == (8,)
    assert calls == 5


def test_sweep_component_bounds(example1, analytic_est):
    for component in (5, -1):
        with pytest.raises(ValueError, match="out of range"):
            cb.sweep(example1, 2, horizon=5, component=component, est=analytic_est)
    with pytest.raises(ValueError):
        cb.sweep(example1, 0, horizon=5, est=analytic_est)
