import tracemalloc

import numpy as np
import pytest

import corrbound as cb
from corrbound.blocks import (
    _PURPOSE_RESAMPLE,
    _PURPOSE_SAMPLE,
    BLOCK_SIZE,
    _substream,
)
from corrbound.examples import (
    kinematic_matrices,
    planar_cv_matrices,
    range_azimuth,
    range_azimuth_jacobian,
)
from corrbound.linalg import psd_inverse, symmetrize
from conftest import blocks_at, build_example1_stacked
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

    b, c = blocks_at(example1, 2, analytic_est)
    assert np.allclose(block(b, 1, 1, 2), f_minus.T @ q_inv @ f_minus)
    assert np.allclose(block(b, 1, 2, 2), -f_minus.T @ q_inv)
    assert np.allclose(block(b, 2, 2, 2), q_inv)

    assert np.allclose(block(c, 1, 1, 2), g_plus.T @ r_inv @ g_plus)
    assert np.allclose(block(c, 1, 2, 2), -g_plus.T @ r_inv @ (2.0 * np.eye(2)))
    assert np.allclose(block(c, 2, 2, 2), 4.0 * r_inv)


def test_example1_sampler_moving_average_variance(example1):
    batch = example1.simulate(12, 100_000, np.random.default_rng(5))
    f, q = kinematic_matrices()
    omega = batch.states[:, 9] - batch.states[:, 8] @ f.T  # omega[8]
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


def test_example2_analytic_transition_blocks(example2):
    f, q = planar_cv_matrices()
    q_inv = psd_inverse(q)
    eye = np.eye(4)
    b = example2.analytic_b
    assert np.allclose(block(b, 1, 3, 4), f.T @ q_inv)
    assert np.allclose(block(b, 3, 3, 4), q_inv)
    assert np.allclose(block(b, 2, 2, 4), (eye + f).T @ q_inv @ (eye + f))
    assert np.allclose(block(b, 1, 2, 4), -f.T @ q_inv @ (eye + f))


def sample_major_example2_states(prior: cb.GaussianPrior):
    """The default example2 state sampler written sample-major, one step at
    a time, from the same draws: the prior window, then the white seeds
    drawn time-major."""
    f, q = planar_cv_matrices()
    chol_q = np.linalg.cholesky(symmetrize(q))
    w = prior.window_len

    def sample(horizon, count, rng):
        length = horizon + 1
        window = prior.sample(count, rng)
        normal = rng.standard_normal((length + 1, count, 4)).transpose(1, 0, 2)
        ws = normal @ chol_q.T  # ws[:, j + 1] holds ws[j], j >= -1

        def w_seed(j):
            return ws[:, j + 1] if j >= -1 else np.zeros((count, 4))

        states = np.zeros((count, length, 4))
        states[:, : min(w, length)] = window[:, :length]
        for k in range(w - 1, length - 1):
            # x[k + 1] = F x[k] + w[k], the process noise summed first.
            states[:, k + 1] = (
                states[:, k] @ f.T + (w_seed(k) + w_seed(k - 1) + w_seed(k - 2))
            )
        return states

    return sample


@pytest.mark.parametrize("horizon, count, substream", [
    (1, 5, (0,)),  # horizon below the three-state prior window
    (2, 3, (1,)),
    (40, 1, (2,)),
    (12, 257, (3,)),
    (6, 3, (_PURPOSE_RESAMPLE, 5, 1, 0)),  # a redraw: sample_states(k + 1, bad, rng)
    (0, 4, (4,)),  # the first prior state alone
    (40, 1000, (_PURPOSE_SAMPLE, 0)),
    # Around multiples of the sampled path's block, which draws a block at a
    # time, and two large draws.
    (5, 2 * BLOCK_SIZE - 1, (5,)),
    (5, 2 * BLOCK_SIZE, (6,)),
    (5, 2 * BLOCK_SIZE + 1, (7,)),
    (5, 2 * BLOCK_SIZE + 2, (8,)),
    (3, 4 * BLOCK_SIZE + 1, (9,)),
    (40, 17232, (_PURPOSE_SAMPLE, 0, 1)),
    (40, 32768, (_PURPOSE_SAMPLE, 0, 0)),
])
def test_example2_sampler_matches_sample_major_reference(example2, horizon, count, substream):
    # The Jacobian path's sampler: the reference's states, byte for byte, as
    # one time-major array, written into ``out`` when one is given.
    reference = sample_major_example2_states(example2.prior)
    rng = lambda: _substream(11, *substream)  # noqa: E731
    want = reference(horizon, count, rng())
    states = example2.sample_states(horizon, count, rng())
    assert states.shape == (horizon + 1, count, 4) and states.flags.c_contiguous
    assert states.transpose(1, 0, 2).tobytes() == want.tobytes()
    out = np.full((horizon + 1, count, 4), np.nan)
    assert example2.sample_states(horizon, count, rng(), out) is out
    assert out.tobytes() == states.tobytes()


def test_example2_state_sampler_peak_memory(example2):
    # The sampled curvature draws one block of samples at a time into a
    # buffer it keeps: 32768 samples over 40 steps peaked at 3.8 MB of
    # allocations on one worker (numpy 2.4), where one array of all their
    # states alone takes 45 MB.
    est = cb.ExpectationEstimator(mode="monte_carlo", samples=32768, seed=0)
    tracemalloc.start()
    try:
        cb.BlockProvider(example2, est, example2.start_time, example2.start_time + 40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 15_000_000


def test_range_azimuth_jacobian_at_diagonal_point():
    state = np.array([[1000.0, 0.0, 1000.0, 0.0]])
    jac = range_azimuth_jacobian(state)[..., 0]
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
            assert np.allclose(jac[:, col, s], fd, atol=1e-7)


def test_example2_single_point_measurement_curvature(example2):
    # Deterministic single sample at a known geometry: the sampled curvature
    # is exactly (Jacobian)' (noise information) (Jacobian).
    state = np.array([[1000.0, 0.0, 1000.0, 0.0]])
    jac = range_azimuth_jacobian(state)[..., 0]
    sigma2_inv = np.asarray(example2.meas_noise_information)
    expected = jac.T @ sigma2_inv @ jac
    import dataclasses
    frozen = dataclasses.replace(
        example2,
        sample_states=lambda horizon, count, rng, out=None: np.repeat(
            state[None, :, :], horizon + 1, axis=0),
    )
    est = cb.ExpectationEstimator(mode="monte_carlo", samples=1, seed=0)
    _, c = blocks_at(frozen, 2, est)
    assert np.allclose(c, expected, atol=1e-15)


def test_example2_trace_psd_with_moderate_samples(example2):
    est = cb.ExpectationEstimator(mode="monte_carlo", samples=10_000, seed=11)
    trace = cb.run(example2, est, 40)
    for info in trace.info[trace.index]:
        assert np.linalg.eigvalsh(info)[0] > 0


def test_stacked_sensors_scale_measurement_information(example1, analytic_est):
    stacked = build_example1_stacked(3)
    # The sweep's replica rule: three sensors carry three times the
    # single-sensor measurement information and the same transition blocks.
    b3, c3 = blocks_at(stacked, 2, analytic_est)
    b1, c1 = blocks_at(example1, 2, analytic_est)
    assert np.allclose(3 * c1, c3, atol=1e-12)
    assert np.allclose(b3, b1, atol=1e-12)
