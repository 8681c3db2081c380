import re

import numpy as np
import pytest

import corrbound as cb
from corrbound.blocks import BlockProvider
from corrbound.errors import InvariantViolationError, SingularMatrixError
from corrbound.linalg import check_psd
from corrbound.recursion import PSD_REL_TOL
from conftest import (
    blocks_at,
    max_trace_deviation,
    psd_dominates,
    random_linear_model,
    scale_measurement_noise,
    simple_scalar_model,
)
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
    model = simple_scalar_model()
    assert model.start_time == 0
    assert np.allclose(cb.init_state(model), [[1.0]])


def test_init_state_matches_prior_reduction(example1):
    # Three prior states; the carry keeps the last one after marginalizing
    # the first two.
    carry = cb.init_state(example1)
    assert example1.start_time == 2
    joint = example1.prior.information()
    from corrbound.linalg import schur_complement_keep_last
    expected = schur_complement_keep_last(joint, 2)
    assert np.max(np.abs(carry - expected)) < 1e-10


def test_init_state_takes_mixed_scale_prior_blocks():
    # Leading prior blocks of very different scales: their joint solve has a
    # reciprocal condition near 1e-14, but the prior's blocks are
    # independent, so the carry is the last block's information alone.
    cov = [1e-7 * np.eye(2), 1e7 * np.eye(2), np.diag([100.0, 10.0])]
    model = cb.build_example1(prior=cb.GaussianPrior(np.zeros((3, 2)), cov))
    assert np.allclose(cb.init_state(model), np.diag([0.01, 0.1]), rtol=1e-14, atol=0)
    deviations = cb.verify_recursion(model, cb.ExpectationEstimator(), 12)
    assert max(deviations.values()) < 1e-8


def test_init_state_example2_shape(example2):
    carry = cb.init_state(example2)
    assert carry.shape == (8, 8)  # two carried 4-state blocks
    eigs = np.linalg.eigvalsh(carry)
    assert eigs[0] > 0


def test_scalar_golden_ratio_sequence():
    model = simple_scalar_model()
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
    values = [info[0, 0] for info in trace.info[trace.index]]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_singular_step_reports_condition():
    model = simple_scalar_model()
    est = cb.ExpectationEstimator()
    carry = cb.init_state(model)
    carry[0, 0] = 0.0
    b = np.zeros((2, 2))  # no transition coupling
    _, c = blocks_at(model, 0, est)
    with pytest.raises(SingularMatrixError):
        cb.step(model.profile, carry, b, c)
    # Window 2: the carried block of the state leaving the window is zero.
    model = random_linear_model(cb.CorrelationProfile(0, 2, 0, 0), 2, 2, 31)
    carry = cb.init_state(model)
    carry[:2, :] = 0.0
    carry[:, :2] = 0.0
    b = np.zeros((6, 6))
    _, c = blocks_at(model, model.start_time, est)
    with pytest.raises(SingularMatrixError) as exc:
        cb.step(model.profile, carry, b, c)
    assert "carry pivot" in str(exc.value) and exc.value.rcond is not None


@pytest.mark.parametrize("window", [1, 2])
def test_step_rejects_lost_psd(window):
    # A negative-definite measurement grid drives the new-state block of the
    # carry, and so J, below zero; at window 1 the carry is J itself.
    profile = cb.CorrelationProfile(0, window, 0, 0)
    model = random_linear_model(profile, 2, 2, 40 + window)
    est = cb.ExpectationEstimator()
    carry = cb.init_state(model)
    assert model.profile.window == window
    b, _ = blocks_at(model, model.start_time, est)
    c = -1e3 * np.eye(2)
    with pytest.raises(InvariantViolationError, match="information submatrix lost"):
        cb.step(model.profile, carry, b, c)


@pytest.mark.parametrize("window", [2, 3])
@pytest.mark.parametrize("direction", ["new", "oldest", "spread"])
def test_lost_carry_psd_is_caught_by_j(window, direction):
    # The measurement grid of profile (0, w, w, 0) covers exactly the new
    # carry's states, so c - s u u' moves the carry C by the same rank-one
    # term.  With s between 1 / (u' C^-1 u) and 1 / (u1' A^-1 u1), where A is
    # the information pivot and u1 its part of u, C gets a negative
    # eigenvalue while A stays positive definite; J's check must catch it.
    profile = cb.CorrelationProfile(0, window, window, 0)
    model = random_linear_model(profile, 2, 2, 60 + window)
    carry0 = cb.init_state(model)
    assert model.profile.window == window
    b, c = blocks_at(model, model.start_time, cb.ExpectationEstimator())
    carry = cb.step(model.profile, carry0, b, c)[0]
    pivot = carry[:-2, :-2]
    u = np.zeros(carry.shape[0])
    if direction == "new":
        u[-2] = 1.0
    elif direction == "oldest":
        u[0] = 1.0
    else:
        u = np.random.default_rng(window).normal(size=u.size)
    u1 = u[:-2]
    low = 1.0 / (u @ np.linalg.solve(carry, u))
    s = 2.0 * low
    if u1.any():
        s = 0.5 * (low + 1.0 / (u1 @ np.linalg.solve(pivot, u1)))

    with pytest.raises(InvariantViolationError, match="carry matrix lost"):
        check_psd(carry - s * np.outer(u, u), rel_tol=PSD_REL_TOL, context="carry matrix")
    np.linalg.cholesky(pivot - s * np.outer(u1, u1))
    with pytest.raises(InvariantViolationError, match="information submatrix lost"):
        cb.step(model.profile, carry0, b, c - s * np.outer(u, u))


def test_step_symmetry_exact(example1, analytic_est):
    carry = cb.init_state(example1)
    start = example1.start_time
    provider = BlockProvider(example1, analytic_est, start, start + 10)
    for k in range(start, start + 10):
        carry, info = cb.step(example1.profile, carry, *provider.blocks(k))
        assert np.array_equal(info, info.T)
        assert np.array_equal(carry, carry.T)


def test_trace_invariants(example1, analytic_est):
    trace = cb.run(example1, analytic_est, 15)
    assert len(trace) == 15
    for info, bound in zip(trace.info[trace.index], trace.bound[trace.index]):
        eigs = np.linalg.eigvalsh(info)
        assert eigs[0] > 0
        ident = bound @ info
        assert np.max(np.abs(ident - np.eye(2))) < 1e-8


def test_run_single_step(example1, analytic_est):
    trace = cb.run(example1, analytic_est, 1)
    assert len(trace) == 1
    with pytest.raises(ValueError):
        cb.run(example1, analytic_est, 0)


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_failing_first_step_raises_its_own_error(request, name):
    # example1's blocks are one pair (the tiled loop), example2's one per
    # time (every step computed); with no earlier step, nothing else raises.
    model = request.getfixturevalue(name)

    def failing(*args):
        raise RuntimeError("first step fails")

    with pytest.raises(RuntimeError, match="^first step fails$"):
        cb.run(model, cb.ExpectationEstimator(samples=64, seed=3), 5, stepper=failing)


def test_run_names_a_provider_that_falls_short(example1, analytic_est):
    start = example1.start_time
    provider = BlockProvider(example1, analytic_est, start, start + 5)
    miss = rf"time index {start + 5} outside the provider's range \[{start}, {start + 5}\)"
    with pytest.raises(ValueError, match=miss):
        cb.run(example1, analytic_est, 8, provider=provider)
    with pytest.raises(ValueError, match=miss):
        provider.measurement(start + 5)


@pytest.mark.parametrize("offset", [-1, 5, 0.5, 4.5])
@pytest.mark.parametrize("name", ["example1", "example2"])
def test_provider_rejects_a_time_outside_its_range(request, name, offset):
    # example1's blocks are one pair for every time, example2's sampled
    # measurement blocks one per time; a non-integer time is in neither.
    model = request.getfixturevalue(name)
    start = model.start_time
    provider = BlockProvider(model, cb.ExpectationEstimator(samples=64, seed=3),
                             start, start + 5)
    assert (provider.pair is None) == (name == "example2")
    miss = (rf"^time index {re.escape(str(start + offset))} outside the provider's "
            rf"range \[{start}, {start + 5}\)$")
    with pytest.raises(ValueError, match=miss):
        provider.blocks(start + offset)
    with pytest.raises(ValueError, match=miss):
        provider.measurement(start + offset)
    with pytest.raises(ValueError, match=miss):
        provider.measurement_stderr(start + offset)


@pytest.mark.parametrize("start, stop, message", [
    (3, 3, "^empty block range$"),
    (4, 3, "^empty block range$"),
    (1, 3, r"^time index 1 precedes the first fully conditioned factor \(start_time=2\)$"),
], ids=["empty", "reversed", "before_start_time"])
def test_provider_rejects_a_bad_range(example1, analytic_est, start, stop, message):
    with pytest.raises(ValueError, match=message):
        BlockProvider(example1, analytic_est, start, stop)


# Entry point -> (call with the count, argument name, least valid value).
# example1's prior window ends at time 2.
STEP_COUNT_ENTRY_POINTS = {
    "run": (lambda m, v: cb.run(m, cb.ExpectationEstimator(), v), "horizon", 1),
    "sweep.m_max": (lambda m, v: cb.sweep(m, v, horizon=5), "m_max", 1),
    "sweep.horizon": (lambda m, v: cb.sweep(m, 2, horizon=v), "horizon", 1),
    "sweep.component": (lambda m, v: cb.sweep(m, 2, horizon=5, component=v), "component", 0),
    "pcrb_augmented": (lambda m, v: cb.pcrb_augmented(m, v), "horizon", 1),
    "verify_recursion": (lambda m, v: cb.verify_recursion(m, cb.ExpectationEstimator(), v),
                         "k_max", 3),
    "information_sequence": (
        lambda m, v: cb.information_sequence(m, cb.ExpectationEstimator(), v), "k_max", 2),
    "build_joint": (lambda m, v: cb.build_joint(m, cb.ExpectationEstimator(), v), "k", 2),
}


@pytest.mark.parametrize("bad", ["bool", "float", "whole_float", "below"])
@pytest.mark.parametrize("entry", sorted(STEP_COUNT_ENTRY_POINTS))
def test_step_counts_are_checked_alike(example1, entry, bad):
    call, name, least = STEP_COUNT_ENTRY_POINTS[entry]
    value = {"bool": True, "float": 2.5, "whole_float": float(least + 3),
             "below": least - 1}[bad]
    with pytest.raises(ValueError, match=rf"^{name}\b"):
        call(example1, value)
    call(example1, least)  # the least valid value runs


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

        b, c = blocks_at(model, 0, est)
        j = np.linalg.inv(model.prior.covariances[0])
        for info in unified.info[unified.index]:
            j = classical_step(j, b, c)
            scale = max(np.max(np.abs(info)), 1.0)
            assert np.max(np.abs(j - info)) / scale < 1e-12


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
    est = cb.ExpectationEstimator(mode="monte_carlo", samples=5_000, seed=4)
    general = cb.run(example2, est, 12, stepper=step_autocorrelated_process)
    simplified = cb.run(example2, est, 12, stepper=step_process_lag2)
    unified = cb.run(example2, est, 12)
    assert max_trace_deviation(general, simplified) < 1e-12
    assert max_trace_deviation(general, unified) < 1e-12


def test_measurement_quality_monotonicity(example2):
    est = cb.ExpectationEstimator(mode="monte_carlo", samples=10_000, seed=3)
    base = cb.run(example2, est, 12)
    sharp = cb.run(scale_measurement_noise(example2, 0.5), est, 12)
    for good, ref in zip(sharp.info[sharp.index], base.info[base.index]):
        assert psd_dominates(good, ref, tol=1e-10)


@pytest.mark.parametrize("step", [0, -1, 41])
def test_info_at_rejects_steps_outside_trace(step):
    trace = cb.run(simple_scalar_model(), cb.ExpectationEstimator(), 40)
    assert np.shares_memory(trace.info_at(40), trace.info[trace.index[-1]])
    with pytest.raises(IndexError, match=r"1\.\.40"):
        trace.info_at(step)
