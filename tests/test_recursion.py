import numpy as np
import pytest

import corrbound as cb
from corrbound.blocks import BlockProvider, measurement_blocks, transition_blocks
from corrbound.errors import InvariantViolationError, SingularMatrixError
from conftest import max_trace_deviation, random_linear_model
from reference_steps import (
    classical_step,
    step_autocorrelated_measurement,
    step_autocorrelated_measurement_state,
    step_autocorrelated_process,
    step_cross_correlated,
    step_process_lag2,
)

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def test_init_state_scalar():
    model = cb.simple_scalar_model()
    state = cb.init_state(model)
    assert state.k == 0
    assert np.allclose(state.carry, [[1.0]])


def test_init_state_matches_prior_reduction(example1):
    # Three prior states; the carry keeps the last one after marginalizing
    # the first two.
    state = cb.init_state(example1)
    assert state.k == 2
    joint = example1.prior.information()
    from corrbound.linalg import schur_complement_keep_last
    expected = schur_complement_keep_last(joint, 2)
    assert np.max(np.abs(state.carry - expected)) < 1e-10


def test_init_state_example2_shape(example2):
    state = cb.init_state(example2)
    assert state.carry.shape == (8, 8)  # two carried 4-state blocks
    eigs = np.linalg.eigvalsh(state.carry)
    assert eigs[0] > 0


def test_scalar_golden_ratio_sequence():
    model = cb.simple_scalar_model()
    trace = cb.run(model, cb.ExpectationEstimator(), 40)
    assert abs(trace.info_at(1)[0, 0] - 1.5) < 1e-14
    assert abs(trace.info_at(2)[0, 0] - 1.6) < 1e-14
    assert abs(trace.info_at(40)[0, 0] - GOLDEN) < 1e-10


def test_information_shrinks_without_measurements():
    # Zero measurement coefficient: no information arrives, the bound decays.
    spec = cb.LinearConditionalSpec(
        profile=cb.CorrelationProfile(),
        state_coeffs=(np.array([[1.0]]),),
        process_cov=np.array([[1.0]]),
        meas_state_coeffs=(np.array([[0.0]]),),
        meas_cov=np.array([[1.0]]),
    )
    model = cb.build_linear_model(spec, name="deaf")
    trace = cb.run(model, cb.ExpectationEstimator(), 10)
    values = [e.info[0, 0] for e in trace.entries]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_singular_step_reports_condition():
    model = cb.simple_scalar_model()
    est = cb.ExpectationEstimator()
    state = cb.init_state(model)
    state.carry[0, 0] = 0.0
    b = np.zeros((2, 2))  # no transition coupling
    c = measurement_blocks(model, 0, est)
    with pytest.raises(SingularMatrixError):
        cb.step(state, b, c)
    # Window 2: the carried block of the state leaving the window is zero.
    model = random_linear_model(cb.CorrelationProfile(0, 2, 0, 0), 2, 2, 31)
    state = cb.init_state(model)
    state.carry[:2, :] = 0.0
    state.carry[:, :2] = 0.0
    b = np.zeros((6, 6))
    c = measurement_blocks(model, model.start_time, est)
    with pytest.raises(SingularMatrixError) as exc:
        cb.step(state, b, c)
    assert "carry pivot" in str(exc.value) and exc.value.rcond is not None


@pytest.mark.parametrize("window", [1, 2])
def test_step_rejects_lost_psd(window):
    # A negative-definite measurement grid drives the new-state block of the
    # carry, and so J, below zero; at window 1 the carry is J itself.
    profile = cb.CorrelationProfile(0, window, 0, 0)
    model = random_linear_model(profile, 2, 2, 40 + window)
    est = cb.ExpectationEstimator()
    state = cb.init_state(model)
    assert state.profile.window == window
    b = transition_blocks(model, model.start_time, est)
    c = -1e3 * np.eye(2)
    with pytest.raises(InvariantViolationError, match="information submatrix lost"):
        cb.step(state, b, c)


def test_step_symmetry_exact(example1, analytic_est):
    state = cb.init_state(example1)
    provider = BlockProvider(example1, analytic_est, state.k, state.k + 10)
    for _ in range(10):
        b, c = provider.blocks(state.k)
        info, state = cb.step(state, b, c)
        assert np.array_equal(info, info.T)
        assert np.array_equal(state.carry, state.carry.T)


def test_trace_invariants(example1, analytic_est):
    trace = cb.run(example1, analytic_est, 15)
    assert len(trace) == 15
    for e in trace.entries:
        eigs = np.linalg.eigvalsh(e.info)
        assert eigs[0] > 0
        ident = e.bound @ e.info
        assert np.max(np.abs(ident - np.eye(2))) < 1e-8


def test_run_single_step(example1, analytic_est):
    trace = cb.run(example1, analytic_est, 1)
    assert len(trace) == 1
    with pytest.raises(ValueError):
        cb.run(example1, analytic_est, 0)


# ---------------------------------------------------------------------------
# Reductions and specialized paths
# ---------------------------------------------------------------------------


def test_uncorrelated_paths_coincide():
    est = cb.ExpectationEstimator()
    for seed in range(10):
        model = random_linear_model(cb.CorrelationProfile(), 2, 2, 500 + seed)
        unified = cb.run(model, est, 20)
        special = cb.run(model, est, 20, stepper=step_autocorrelated_measurement_state)
        assert max_trace_deviation(unified, special) < 1e-12

        b = transition_blocks(model, 0, est)
        c = measurement_blocks(model, 0, est)
        j = np.linalg.inv(model.prior.covariances[0])
        for entry in unified.entries:
            j = classical_step(j, b, c)
            scale = max(np.max(np.abs(entry.info)), 1.0)
            assert np.max(np.abs(j - entry.info)) / scale < 1e-12


@pytest.mark.parametrize("lag", [0, 1, 2, 3])
def test_cross_correlated_path_matches_unified(lag):
    est = cb.ExpectationEstimator()
    model = random_linear_model(cb.CorrelationProfile(0, 0, lag, 0), 2, 2, 600 + lag)
    unified = cb.run(model, est, 20)
    special = cb.run(model, est, 20, stepper=step_cross_correlated)
    assert max_trace_deviation(unified, special) < 1e-12


@pytest.mark.parametrize("lag", [0, 1, 2])
def test_autocorrelated_process_path_matches_unified(lag):
    est = cb.ExpectationEstimator()
    model = random_linear_model(cb.CorrelationProfile(0, lag, 0, 0), 2, 2, 700 + lag)
    unified = cb.run(model, est, 20)
    special = cb.run(model, est, 20, stepper=step_autocorrelated_process)
    assert max_trace_deviation(unified, special) < 1e-12


@pytest.mark.parametrize("lag", [0, 1, 2])
def test_autocorrelated_measurement_path_matches_unified(lag):
    est = cb.ExpectationEstimator()
    model = random_linear_model(cb.CorrelationProfile(lag, 0, 0, 0), 2, 2, 800 + lag)
    unified = cb.run(model, est, 20)
    special = cb.run(model, est, 20, stepper=step_autocorrelated_measurement_state)
    assert max_trace_deviation(unified, special) < 1e-12


def test_measurement_only_step_raw_form():
    # No coupling between steps: the new information is exactly d22.
    r = 2
    out = step_autocorrelated_measurement(np.eye(r), np.eye(r), np.zeros((r, r)),
                                          np.diag([3.0, 4.0]))
    assert np.allclose(out, np.diag([3.0, 4.0]))


def test_simplified_two_lag_path_matches_general(example2):
    est = cb.ExpectationEstimator(mode="monte_carlo", sample_count=5_000, seed=4)
    general = cb.run(example2, est, 12, stepper=step_autocorrelated_process)
    simplified = cb.run(example2, est, 12, stepper=step_process_lag2)
    unified = cb.run(example2, est, 12)
    assert max_trace_deviation(general, simplified) < 1e-12
    assert max_trace_deviation(general, unified) < 1e-12


def test_measurement_quality_monotonicity(example2):
    from corrbound.examples import scale_measurement_noise
    from corrbound.linalg import psd_dominates
    est = cb.ExpectationEstimator(mode="monte_carlo", sample_count=10_000, seed=3)
    base = cb.run(example2, est, 12)
    sharp = cb.run(scale_measurement_noise(example2, 0.5), est, 12)
    for good, ref in zip(sharp.entries, base.entries):
        assert psd_dominates(good.info, ref.info, tol=1e-10)
