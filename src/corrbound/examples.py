"""Built-in tracking models with temporally correlated noise.

Two scenarios ship with the package:

* a two-state kinematic model with moving-average process noise, moving-
  average measurement noise, and a process-to-measurement cross term
  (both noises one-step MA, measurement noise additionally carrying the
  previous process noise sample);
* a four-state constant-velocity model with two-step moving-average process
  noise and nonlinear range/azimuth measurements.

Both expose closed-form transition curvature; the nonlinear scenario
estimates its measurement curvature by Monte Carlo over the measurement
Jacobian.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .linalg import psd_inverse, symmetrize
from .models import (
    ArApproximation,
    GaussianPrior,
    LinearConditionalSpec,
    LinearModelInfo,
    SystemModel,
    TrajectoryBatch,
    _gaussian_logpdf,
    _linear_factor,
    build_linear_model,
    default_prior,
)
from .profiles import CorrelationProfile

# Squared distance from the coordinate origin below which the azimuth
# Jacobian is treated as singular and the sample redrawn.
AZIMUTH_SINGULAR_RADIUS_SQ = 1e-12

# ---------------------------------------------------------------------------
# Scenario 1: kinematic model, MA noises with a cross term
# ---------------------------------------------------------------------------


def kinematic_matrices():
    """Transition and white process covariance of scenario 1: sampling
    interval 2, process-noise spectral density 10."""
    dt, psd = 2.0, 10.0
    f = np.array([[1.0, dt], [0.0, 1.0]])
    q = psd * np.array([[dt**3 / 3.0, dt**2 / 2.0], [dt**2 / 2.0, dt]])
    return f, q


# Largest |ma_coeff| whose fourth power (the AR residual scale of
# ``build_example1``) is a finite double.
MA_COEFF_MAX = 1.1579208923731618e77


def build_example1(ma_coeff: float = 0.2, prior: GaussianPrior | None = None) -> SystemModel:
    """Kinematic tracking model with correlated process/measurement noise.

    Process noise: ``w[k] = ws[k] + a*ws[k-1]`` with white ``ws``.
    Measurement noise: ``v[k] = vs[k] + a*vs[k-1] + w[k-1]`` with white ``vs``.
    The lag profile is (1, 1, 2, 1): conditioning the factors on one past
    measurement and one extra past state makes their residuals exactly the
    white seeds, so the curvature blocks are available in closed form.
    """
    a = float(ma_coeff)
    f, q = kinematic_matrices()
    h = np.eye(2)
    r = np.diag([400.0, 25.0])  # white measurement-noise variances
    profile = CorrelationProfile(l1=1, l2=1, l3=2, l4=1)
    if prior is None:
        prior = default_prior(profile, 2, cov=np.diag([100.0, 10.0]), transition=f)

    spec = LinearConditionalSpec(
        profile=profile,
        state_coeffs=(f - a * np.eye(2),),
        trans_meas_coeffs=(a * np.eye(2),),
        process_cov=q,
        meas_state_coeffs=(2.0 * np.eye(2), -(f + a * np.eye(2))),
        meas_meas_coeffs=(a * np.eye(2),),
        meas_cov=r,
    )

    ma_var = 1.0 + a * a
    linear_info = LinearModelInfo(
        transition=f,
        measurement=h,
        process_marginal=ma_var * q,
        measurement_marginal=ma_var * r + ma_var * q,
        cross_lag1=ma_var * q,
    )
    ar_factor = 1.0 + a**4
    stationary = abs(a) < 1.0  # near MA_COEFF_MAX the products below overflow
    ar_model = ArApproximation(
        process_coeff=a,
        process_white_cov=ar_factor * q if stationary else None,
        meas_coeff=a,
        meas_white_cov=ar_factor * (q + r) if stationary else None,
    )

    base = build_linear_model(spec, prior=prior, name="example1",
                              linear_info=linear_info)
    simulate = _example1_simulator(f, q, r, a, prior)
    return replace(base, simulate=simulate, ar_model=ar_model)


def _example1_simulator(f: np.ndarray, q: np.ndarray, r: np.ndarray, a: float,
                        prior: GaussianPrior):
    chol_q = np.linalg.cholesky(symmetrize(q))
    chol_r = np.linalg.cholesky(symmetrize(r))
    w = prior.window_len

    def simulate(horizon: int, count: int, rng: np.random.Generator) -> TrajectoryBatch:
        length = horizon + 1
        window = prior.sample(count, rng)
        # White seeds: ws[:, j + 2] holds ws[j] for j = -2..length-1, and
        # vs[:, j + 1] holds vs[j] for j = -1..length-1.
        ws = rng.standard_normal((count, length + 2, 2)) @ chol_q.T
        vs = rng.standard_normal((count, length + 1, 2)) @ chol_r.T
        # Colored process noise omega[j] = ws[j] + a*ws[j-1] for j = -1..length-1,
        # held at omega[:, j + 1].
        omega = ws[:, 1:] + a * ws[:, :-1]

        states = np.zeros((count, length, 2))
        states[:, : min(w, length)] = window[:, :length]
        for k in range(w - 1, length - 1):
            states[:, k + 1] = states[:, k] @ f.T + omega[:, k + 1]
        # Time k of each below: nu[k] = vs[k] + a*vs[k-1] + omega[k-1] is the
        # measurement noise; the shifts are -a*vs[k] - a^2*vs[k-1] - a^2*ws[k-2]
        # and -a^2*vs[k-1] - a*omega[k-1].
        meas = states + (vs[:, 1:] + a * vs[:, :-1] + omega[:, :-1])
        trans_shift = -a * vs[:, 1:] - a * a * vs[:, :-1] - a * a * ws[:, :-2]
        meas_shift = -a * a * vs[:, :-1] - a * omega[:, :-1]
        return TrajectoryBatch(states, meas, trans_shift, meas_shift)

    return simulate


# ---------------------------------------------------------------------------
# Scenario 2: constant-velocity model with range/azimuth measurements
# ---------------------------------------------------------------------------


def planar_cv_matrices():
    """Transition and white process covariance of scenario 2: sampling
    interval 3, process-noise spectral density 10 on each axis."""
    dt, psd = 3.0, 10.0
    f = np.array([
        [1.0, dt, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, dt],
        [0.0, 0.0, 0.0, 1.0],
    ])
    axis = psd * np.array([[dt**3 / 3.0, dt**2 / 2.0], [dt**2 / 2.0, dt]])
    q = np.zeros((4, 4))
    q[:2, :2] = axis
    q[2:, 2:] = axis
    return f, q


def range_azimuth(states: np.ndarray) -> np.ndarray:
    """Measurement function: distance from origin and bearing, vectorized."""
    x = states[..., 0]
    y = states[..., 2]
    rng = np.sqrt(x * x + y * y)
    return np.stack([rng, np.arctan2(y, x)], axis=-1)


def range_azimuth_jacobian(states: np.ndarray) -> np.ndarray:
    """Entry-major Jacobian ``(2, 4, n)`` of :func:`range_azimuth` at ``(n, 4)`` states."""
    x = states[:, 0]
    y = states[:, 2]
    r2 = x * x + y * y
    r1 = np.sqrt(r2)
    jac = np.zeros((2, 4, states.shape[0]))
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(x, r1, out=jac[0, 0])
        np.divide(y, r1, out=jac[0, 2])
        np.divide(-y, r2, out=jac[1, 0])
        np.divide(x, r2, out=jac[1, 2])
    return jac


def build_example2(prior: GaussianPrior | None = None) -> SystemModel:
    """Planar constant-velocity model, two-step MA process noise, polar sensor.

    Process noise: ``w[k] = ws[k] + ws[k-1] + ws[k-2]`` with white ``ws``;
    the lag profile is (0, 2, 0, 0).  Conditioning the transition on two past
    states reduces its residual to the newest white seed; the measurement
    curvature is sampled via the range/azimuth Jacobian.
    """
    f, q = planar_cv_matrices()
    sigma2 = np.diag([50.0 ** 2, 0.01 ** 2])  # range and azimuth noise deviations
    sigma2_inv = psd_inverse(sigma2)
    profile = CorrelationProfile(l1=0, l2=2, l3=0, l4=0)
    if prior is None:
        prior = default_prior(
            profile, 4,
            mean=np.array([1.0e4, 10.0, 1.0e4, 10.0]),
            cov=np.diag([100.0, 10.0, 100.0, 10.0]),
            transition=f,
        )

    # The transition is linear; only the measurement is not.
    trans_logpdf, analytic_b = _linear_factor((np.eye(4) + f, -f), (), q,
                                              "process covariance", next_state=True)
    log_norm_r = -0.5 * (2 * np.log(2.0 * np.pi) + np.linalg.slogdet(sigma2)[1])

    def meas_logpdf(z_next, x_hist, z_hist, shift):
        del z_hist
        mean = range_azimuth(x_hist[:, 0]) + shift
        return _gaussian_logpdf(z_next - mean, sigma2_inv, log_norm_r)

    def singular_states(states: np.ndarray) -> np.ndarray:
        r2 = states[:, 0] ** 2 + states[:, 2] ** 2
        return r2 < AZIMUTH_SINGULAR_RADIUS_SQ

    # Row-major transposes: a product with an F-ordered operand is slower.
    chol_q_t = np.linalg.cholesky(symmetrize(q)).T.copy()
    f_t = f.T.copy()
    chol_s2 = np.linalg.cholesky(sigma2)
    w = prior.window_len

    def draw(horizon: int, count: int, rng: np.random.Generator,
             out: np.ndarray | None = None):
        """States ``(horizon + 1, count, 4)``, written into ``out`` if given,
        and white seeds ``(horizon + 2, count, 4)``, both time-major, with
        ``seeds[j + 1]`` holding ws[j].

        The prior window of every sample is drawn first, then the seeds."""
        length = horizon + 1
        states = np.empty((length, count, 4)) if out is None else out
        states[:min(w, length)] = prior.sample(count, rng).transpose(1, 0, 2)[:length]
        # One product over every row, so a one-sample draw rounds as a row
        # of a larger one does.
        seeds = (rng.standard_normal(((length + 1) * count, 4)) @ chol_q_t).reshape(
            length + 1, count, 4)
        # The model checks that the prior window is 3, so k - 2 >= 0 below:
        # noise[k + 1 - w] = seeds[k + 1] + seeds[k] + seeds[k - 1] is w[k].
        noise = seeds[w:length] + seeds[w - 1:length - 1]
        noise += seeds[w - 2:length - 2]
        for k in range(w - 1, length - 1):
            np.matmul(states[k], f_t, out=states[k + 1])
            states[k + 1] += noise[k + 1 - w]
        return states, seeds

    def simulate(horizon: int, count: int, rng: np.random.Generator) -> TrajectoryBatch:
        length = horizon + 1
        states, seeds = draw(horizon, count, rng)
        # trans_shift[k] = -ws[k-3] = -seeds[k-2]; zero while k - 3 < -1.
        trans_shift = np.zeros((length, count, 4))
        np.negative(seeds[:-3], out=trans_shift[2:])
        del seeds

        states = states.transpose(1, 0, 2)  # (count, time, r) views from here on
        meas = range_azimuth(states) + rng.standard_normal((count, length, 2)) @ chol_s2.T
        meas_shift = np.zeros((count, length, 2))
        return TrajectoryBatch(states, meas, trans_shift.transpose(1, 0, 2), meas_shift)

    return SystemModel(
        name="example2",
        state_dim=4,
        meas_dim=2,
        profile=profile,
        prior=prior,
        trans_logpdf=trans_logpdf,
        meas_logpdf=meas_logpdf,
        simulate=simulate,
        analytic_b=analytic_b,
        analytic_c=None,
        meas_jacobian=range_azimuth_jacobian,
        meas_noise_information=sigma2_inv,
        sample_states=lambda horizon, count, rng, out=None: draw(horizon, count, rng, out)[0],
        singular_states=singular_states,
        linear=None,
    )
