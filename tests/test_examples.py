import numpy as np
import pytest

import corrbound as cb
from corrbound.blocks import (
    _PURPOSE_RESAMPLE,
    _chunk_rng,
    measurement_blocks,
    transition_blocks,
)
from corrbound.examples import (
    kinematic_matrices,
    planar_cv_matrices,
    range_azimuth,
    range_azimuth_jacobian,
)
from corrbound.linalg import psd_inverse, symmetrize
from reference_steps import CaseTag, block, select_case


def test_kinematic_process_covariance_values():
    _, q = kinematic_matrices()
    assert np.allclose(q, np.array([[80.0 / 3.0, 20.0], [20.0, 20.0]]))


def test_example1_profile_and_case(example1):
    assert example1.profile == cb.CorrelationProfile(1, 1, 2, 1)
    assert select_case(example1.profile) is CaseTag.EQUAL


def test_example1_analytic_blocks(example1, analytic_est):
    f, q = kinematic_matrices()
    r = np.diag([400.0, 25.0])
    q_inv = psd_inverse(q)
    r_inv = psd_inverse(r)
    f_minus = f - 0.2 * np.eye(2)   # [[0.8, 2], [0, 0.8]]
    g_plus = f + 0.2 * np.eye(2)    # [[1.2, 2], [0, 1.2]]
    assert np.allclose(f_minus, np.array([[0.8, 2.0], [0.0, 0.8]]))
    assert np.allclose(g_plus, np.array([[1.2, 2.0], [0.0, 1.2]]))

    b = transition_blocks(example1, 2, analytic_est)
    assert np.allclose(block(b, 1, 1, 2), f_minus.T @ q_inv @ f_minus)
    assert np.allclose(block(b, 1, 2, 2), -f_minus.T @ q_inv)
    assert np.allclose(block(b, 2, 2, 2), q_inv)

    c = measurement_blocks(example1, 2, analytic_est)
    assert np.allclose(block(c, 1, 1, 2), g_plus.T @ r_inv @ g_plus)
    assert np.allclose(block(c, 1, 2, 2), -g_plus.T @ r_inv @ (2.0 * np.eye(2)))
    assert np.allclose(block(c, 2, 2, 2), 4.0 * r_inv)


def test_example1_sampler_moving_average_variance(example1):
    batch = example1.simulate(12, 100_000, np.random.default_rng(5))
    _, q = kinematic_matrices()
    omega = batch.extras["process_noise"][:, 8]
    cov = np.cov(omega.T)
    expected = 1.04 * q
    assert np.max(np.abs(cov - expected)) / np.max(np.abs(expected)) < 0.02


def test_example1_sampler_consistent_with_conditionals(example1):
    # The conditional means must reproduce the simulated next state up to
    # the white seed: check that the transition residual has the seed's
    # covariance (regression of x[k+1] on its conditional mean).
    batch = example1.simulate(12, 50_000, np.random.default_rng(6))
    f, q = kinematic_matrices()
    a = 0.2
    k = 6
    mean = (
        batch.states[:, k] @ (f - a * np.eye(2)).T
        + batch.measurements[:, k] @ (a * np.eye(2)).T
        + batch.trans_shift[:, k]
    )
    resid = batch.states[:, k + 1] - mean
    cov = np.cov(resid.T)
    assert np.max(np.abs(cov - q)) / np.max(np.abs(q)) < 0.03
    assert np.max(np.abs(resid.mean(axis=0))) < 0.1


def test_example2_measurement_covariance(example2):
    expected = np.diag([50.0**2, 0.01**2])
    assert np.allclose(psd_inverse(example2.meas_noise_information), expected)


def test_example2_profile(example2):
    assert example2.profile == cb.CorrelationProfile(0, 2, 0, 0)
    assert select_case(example2.profile) is CaseTag.LESS
    assert example2.profile.l2_eff == 2


def test_example2_analytic_transition_blocks(example2, analytic_est):
    f, q = planar_cv_matrices()
    q_inv = psd_inverse(q)
    eye = np.eye(4)
    b = transition_blocks(example2, 2, analytic_est)
    assert np.allclose(block(b, 1, 3, 4), f.T @ q_inv)
    assert np.allclose(block(b, 3, 3, 4), q_inv)
    assert np.allclose(block(b, 2, 2, 4), (eye + f).T @ q_inv @ (eye + f))
    assert np.allclose(block(b, 1, 2, 4), -f.T @ q_inv @ (eye + f))


def sample_major_example2_simulator(prior: cb.GaussianPrior):
    """The default example2 sampler written sample-major, one step at a time."""
    f, q = planar_cv_matrices()
    chol_q = np.linalg.cholesky(symmetrize(q))
    chol_s2 = np.linalg.cholesky(np.diag([50.0 ** 2, 0.01 ** 2]))
    w = prior.window_len

    def simulate(horizon, count, rng):
        length = horizon + 1
        window = prior.sample(count, rng)
        ws = rng.standard_normal((count, length + 1, 4)) @ chol_q.T  # ws[j], j >= -1

        def w_seed(j):
            return ws[:, j + 1] if j >= -1 else np.zeros((count, 4))

        states = np.zeros((count, length, 4))
        states[:, : min(w, length)] = window[:, :length]
        for k in range(w - 1, length - 1):
            states[:, k + 1] = (
                states[:, k] @ f.T + w_seed(k) + w_seed(k - 1) + w_seed(k - 2)
            )
        vnoise = rng.standard_normal((count, length, 2)) @ chol_s2.T
        meas = range_azimuth(states) + vnoise
        trans_shift = np.zeros((count, length, 4))
        for k in range(length):
            trans_shift[:, k] = -w_seed(k - 3)
        meas_shift = np.zeros((count, length, 2))
        return cb.TrajectoryBatch(states, meas, trans_shift, meas_shift)

    return simulate


@pytest.mark.parametrize("horizon, count, substream", [
    (1, 5, (0,)),  # horizon below the three-state prior window
    (2, 3, (1,)),
    (40, 1, (2,)),
    (12, 257, (3,)),
    (6, 3, (_PURPOSE_RESAMPLE, 5, 1, 0)),  # a redraw: simulate(k + 1, bad, rng)
])
def test_example2_sampler_matches_sample_major_reference(example2, horizon, count, substream):
    reference = sample_major_example2_simulator(example2.prior)
    rng = lambda: _chunk_rng(11, *substream)  # noqa: E731
    got = example2.simulate(horizon, count, rng())
    want = reference(horizon, count, rng())
    for name in ("states", "measurements", "trans_shift", "meas_shift"):
        assert getattr(got, name).shape == getattr(want, name).shape
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_range_azimuth_jacobian_at_diagonal_point():
    state = np.array([[1000.0, 0.0, 1000.0, 0.0]])
    jac = range_azimuth_jacobian(state)[0]
    expected = np.array([
        [1.0 / np.sqrt(2.0), 0.0, 1.0 / np.sqrt(2.0), 0.0],
        [-1.0 / 2000.0, 0.0, 1.0 / 2000.0, 0.0],
    ])
    assert np.allclose(jac, expected, atol=1e-12)


def test_range_azimuth_jacobian_matches_finite_differences():
    rng = np.random.default_rng(7)
    states = rng.normal(loc=(5000.0, 0.0, 3000.0, 0.0), scale=500.0, size=(5, 4))
    jac = range_azimuth_jacobian(states)
    eps = 1e-3
    for s in range(5):
        for col in range(4):
            up = states[s].copy()
            dn = states[s].copy()
            up[col] += eps
            dn[col] -= eps
            fd = (range_azimuth(up[None, :])[0] - range_azimuth(dn[None, :])[0]) / (2 * eps)
            assert np.allclose(jac[s, :, col], fd, atol=1e-7)


def test_example2_single_point_measurement_curvature(example2):
    # Deterministic single sample at a known geometry: the sampled curvature
    # is exactly (Jacobian)' (noise information) (Jacobian).
    state = np.array([[1000.0, 0.0, 1000.0, 0.0]])
    jac = range_azimuth_jacobian(state)[0]
    sigma2_inv = np.asarray(example2.meas_noise_information)
    expected = jac.T @ sigma2_inv @ jac
    import dataclasses
    frozen = dataclasses.replace(
        example2,
        simulate=lambda horizon, count, rng: cb.TrajectoryBatch(
            states=np.repeat(state[:, None, :], horizon + 1, axis=1),
            measurements=np.zeros((1, horizon + 1, 2)),
            trans_shift=np.zeros((1, horizon + 1, 4)),
            meas_shift=np.zeros((1, horizon + 1, 2)),
        ),
    )
    est = cb.ExpectationEstimator(mode="monte_carlo", sample_count=1, seed=0)
    c = measurement_blocks(frozen, 2, est)
    assert np.allclose(c, expected, atol=1e-15)


def test_example2_trace_psd_with_moderate_samples(example2):
    est = cb.ExpectationEstimator(mode="monte_carlo", sample_count=10_000, seed=11)
    trace = cb.run(example2, est, 40)
    for e in trace.entries:
        assert np.linalg.eigvalsh(e.info)[0] > 0


def test_stacked_sensors_scale_measurement_information(example1, analytic_est):
    stacked = cb.build_example1_stacked(3)
    # The sweep's replica rule: three sensors carry three times the
    # single-sensor measurement information and the same transition blocks.
    c3 = measurement_blocks(stacked, 2, analytic_est)
    assert np.allclose(3 * measurement_blocks(example1, 2, analytic_est), c3, atol=1e-12)
    b1 = transition_blocks(example1, 2, analytic_est)
    b3 = transition_blocks(stacked, 2, analytic_est)
    assert np.allclose(b3, b1, atol=1e-12)
