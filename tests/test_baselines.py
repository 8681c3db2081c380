import dataclasses

import numpy as np
import pytest

import corrbound as cb
from corrbound.errors import ModelBuildError
from corrbound.examples import kinematic_matrices
from conftest import max_trace_deviation, random_linear_model, simple_scalar_model
from reference_steps import classical_step

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def test_ar_approximation_covariances(example1):
    _, q = kinematic_matrices()
    r = np.diag([400.0, 25.0])
    ar = example1.ar_model
    factor = 1.0 + 0.2**4
    assert np.allclose(ar.process_white_cov, factor * q)
    assert np.allclose(ar.meas_white_cov, factor * (q + r))
    assert ar.process_coeff == pytest.approx(0.2)


def test_marginal_covariances(example1):
    _, q = kinematic_matrices()
    r = np.diag([400.0, 25.0])
    li = example1.linear
    assert np.allclose(li.process_marginal, 1.04 * q)
    assert np.allclose(li.measurement_marginal, 1.04 * r + 1.04 * q)
    assert np.allclose(li.cross_lag1, 1.04 * q)


def test_ignore_correlation_on_scalar_model():
    model = simple_scalar_model()
    trace = cb.pcrb_ignore_correlation(model, 40)
    assert abs(trace.info_at(40)[0, 0] - GOLDEN) < 1e-10


def test_ignore_correlation_requires_linear_view(example2):
    with pytest.raises(ModelBuildError):
        cb.pcrb_ignore_correlation(example2, 5)


def test_independent_model_all_equal():
    est = cb.ExpectationEstimator()
    model = random_linear_model(cb.CorrelationProfile(), 2, 2, 42)
    unified = cb.run(model, est, 25)
    ignore = cb.pcrb_ignore_correlation(model, 25)
    assert max_trace_deviation(unified, ignore) < 1e-12
    prewhite = cb.pcrb_prewhiten(model, 25)
    assert max_trace_deviation(prewhite, ignore) < 1e-12


def test_baseline_traces_share_the_model_time_axis(example1):
    # Every baseline starts from the model's last prior state, as the
    # unified recursion does, so step s reaches the same time on all four.
    baselines = (cb.pcrb_ignore_correlation, cb.pcrb_augmented, cb.pcrb_prewhiten)
    traces = [cb.run(example1, cb.ExpectationEstimator(), 5)]
    traces += [baseline(example1, 5) for baseline in baselines]
    start = example1.start_time
    for trace in traces:
        assert [trace.start + s for s in range(1, len(trace) + 1)] == list(range(start + 1, start + 6))


def _classical_reference(f, q, h, r, prior_cov, horizon):
    """Information sequence of the classical white-noise recursion, with its
    blocks written out from ``(f, q, h, r)`` by plain inverses."""
    q_inv = np.linalg.inv(q)
    b = np.block([[f.T @ q_inv @ f, -f.T @ q_inv], [-q_inv @ f, q_inv]])
    c = h.T @ np.linalg.inv(r) @ h
    j = np.linalg.inv(prior_cov)
    out = []
    for _ in range(horizon):
        j = classical_step(j, b, c)
        out.append(j)
    return out


@pytest.mark.parametrize("which", ["example1", "random_white"])
def test_white_noise_baselines_match_classical_recursion(example1, which):
    model = example1 if which == "example1" else \
        random_linear_model(cb.CorrelationProfile(), 2, 2, 77)
    li = model.linear
    f, q, h, r = li.transition, li.process_marginal, li.measurement, li.measurement_marginal
    prior_cov = model.prior.covariances[-1]
    expected = {"ignore": _classical_reference(f, q, h, r, prior_cov, 300)}
    if li.cross_lag1 is None:
        expected["prewhiten"] = expected["ignore"]
    else:
        gain = li.cross_lag1 @ np.linalg.inv(q)
        expected["prewhiten"] = _classical_reference(
            f, q, gain @ f, r - gain @ li.cross_lag1.T, prior_cov, 300)
    traces = {"ignore": cb.pcrb_ignore_correlation(model, 300),
              "prewhiten": cb.pcrb_prewhiten(model, 300)}
    for name, trace in traces.items():
        assert len(trace) == 300
        for info, j in zip(trace.info[trace.index], expected[name]):
            scale = max(float(np.max(np.abs(j))), 1.0)
            assert np.max(np.abs(info - j)) / scale < 1e-12, name


def test_augmented_reduces_to_ignore_without_ma():
    model = cb.build_example1(ma_coeff=0.0)
    augmented = cb.pcrb_augmented(model, 30)
    ignore = cb.pcrb_ignore_correlation(model, 30)
    assert max_trace_deviation(augmented, ignore) < 1e-12


def test_prewhiten_removes_cross_term(example1):
    # The decorrelated measurement noise is uncorrelated with the process
    # noise in sample statistics.
    batch = example1.simulate(14, 100_000, np.random.default_rng(9))
    x, z = batch.states, batch.measurements
    f, _ = kinematic_matrices()
    k = 11
    w_prev = x[:, k] - x[:, k - 1] @ f.T  # omega[k-1] = x[k] - f x[k-1]
    vprime = (z[:, k] - x[:, k]) - w_prev  # nu[k] = z[k] - x[k], as h = I
    n = vprime.shape[0]
    cross = vprime.T @ w_prev / n - np.outer(vprime.mean(0), w_prev.mean(0))
    se = np.sqrt(
        np.var(vprime, axis=0)[:, None] * np.var(w_prev, axis=0)[None, :] / n
    )
    assert np.all(np.abs(cross) < 3.0 * se)


def test_prewhiten_produces_distinct_psd_trace(example1):
    est = cb.ExpectationEstimator()
    unified = cb.run(example1, est, 40)
    prewhite = cb.pcrb_prewhiten(example1, 40)
    for info in prewhite.info[prewhite.index]:
        assert np.linalg.eigvalsh(info)[0] > 0
    gap = abs(
        prewhite.component_bound_sqrt(0)[-1] - unified.component_bound_sqrt(0)[-1]
    ) / unified.component_bound_sqrt(0)[-1]
    assert gap > 0.01


def test_prewhiten_rejects_non_unit_gain_cross(example1):
    li = example1.linear
    twisted = dataclasses.replace(li, cross_lag1=0.5 * li.cross_lag1)
    model = dataclasses.replace(example1, linear=twisted)
    with pytest.raises(ModelBuildError):
        cb.pcrb_prewhiten(model, 5)


def test_augmented_requires_ar_view():
    model = simple_scalar_model()
    with pytest.raises(ModelBuildError):
        cb.pcrb_augmented(model, 5)


@pytest.mark.parametrize("baseline", [cb.pcrb_ignore_correlation, cb.pcrb_augmented,
                                      cb.pcrb_prewhiten], ids=lambda f: f.__name__)
def test_baselines_reject_empty_horizon(example1, baseline):
    with pytest.raises(ValueError, match="horizon must be an integer >= 1"):
        baseline(example1, 0)


def test_all_baselines_converge_and_differ(example1):
    est = cb.ExpectationEstimator()
    unified = cb.run(example1, est, 40)
    traces = {
        "unified": unified,
        "ignore": cb.pcrb_ignore_correlation(example1, 40),
        "augmented": cb.pcrb_augmented(example1, 40),
        "prewhitened": cb.pcrb_prewhiten(example1, 40),
    }
    for name, trace in traces.items():
        last, prev = trace.info_at(len(trace)), trace.info_at(len(trace) - 1)
        rel_step = np.linalg.norm(last - prev) / np.linalg.norm(last)
        assert rel_step < 1e-6, name
    reference = unified.component_bound_sqrt(0)[-1]
    for name in ("ignore", "augmented", "prewhitened"):
        gap = abs(traces[name].component_bound_sqrt(0)[-1] - reference) / reference
        assert gap > 0.01, name
    # Dropping correlation entirely moves the bound by more than 5%.
    ignore_gap = abs(traces["ignore"].component_bound_sqrt(0)[-1] - reference) / reference
    assert ignore_gap > 0.05
