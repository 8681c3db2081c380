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
    build_linear_model,
    default_prior,
    linear_transition_blocks,
)
from .profiles import CorrelationProfile

# Squared distance from the coordinate origin below which the azimuth
# Jacobian is treated as singular and the sample redrawn.
AZIMUTH_SINGULAR_RADIUS_SQ = 1e-12


# ---------------------------------------------------------------------------
# Scenario 1: kinematic model, MA noises with a cross term
# ---------------------------------------------------------------------------


def kinematic_matrices(dt: float = 2.0, psd: float = 10.0):
    f = np.array([[1.0, dt], [0.0, 1.0]])
    q = psd * np.array([[dt**3 / 3.0, dt**2 / 2.0], [dt**2 / 2.0, dt]])
    return f, q


# Largest |ma_coeff| whose fourth power (the AR residual scale of
# ``build_example1``) is a finite double.
MA_COEFF_MAX = 1.1579208923731618e77


def build_example1(ma_coeff: float = 0.2, dt: float = 2.0, psd: float = 10.0,
                   meas_var: tuple[float, float] = (400.0, 25.0),
                   prior: GaussianPrior | None = None) -> SystemModel:
    """Kinematic tracking model with correlated process/measurement noise.

    Process noise: ``w[k] = ws[k] + a*ws[k-1]`` with white ``ws``.
    Measurement noise: ``v[k] = vs[k] + a*vs[k-1] + w[k-1]`` with white ``vs``.
    The lag profile is (1, 1, 2, 1): conditioning the factors on one past
    measurement and one extra past state makes their residuals exactly the
    white seeds, so the curvature blocks are available in closed form.
    """
    a = float(ma_coeff)
    f, q = kinematic_matrices(dt, psd)
    h = np.eye(2)
    r = np.diag(meas_var).astype(float)
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
        # White seeds: ws[j] for j = -2..length-1, vs[j] for j = -1..length-1.
        ws = rng.standard_normal((count, length + 2, 2)) @ chol_q.T
        vs = rng.standard_normal((count, length + 1, 2)) @ chol_r.T

        def w_seed(j):  # noqa: E306
            return ws[:, j + 2]

        def v_seed(j):
            return vs[:, j + 1]

        # Colored sequences: omega[j] = ws[j] + a*ws[j-1] for j = -1..length-1;
        # nu[k] = vs[k] + a*vs[k-1] + omega[k-1].
        omega = ws[:, 1:] + a * ws[:, :-1]  # index j+1 holds omega[j], j >= -1

        def omega_at(j):
            return omega[:, j + 1]

        states = np.zeros((count, length, 2))
        states[:, : min(w, length)] = window[:, :length]
        for k in range(w - 1, length - 1):
            states[:, k + 1] = states[:, k] @ f.T + omega_at(k)
        meas = np.zeros((count, length, 2))
        nu = np.zeros((count, length, 2))
        for k in range(length):
            nu[:, k] = v_seed(k) + a * v_seed(k - 1) + omega_at(k - 1)
            meas[:, k] = states[:, k] + nu[:, k]

        trans_shift = np.zeros((count, length, 2))
        meas_shift = np.zeros((count, length, 2))
        for k in range(length):
            trans_shift[:, k] = -a * v_seed(k) - a * a * v_seed(k - 1) - a * a * w_seed(k - 2)
            meas_shift[:, k] = -a * a * v_seed(k - 1) - a * omega_at(k - 1)

        extras = {"process_noise": omega[:, 1:], "meas_noise": nu}
        return TrajectoryBatch(states, meas, trans_shift, meas_shift, extras)

    return simulate


def build_example1_stacked(sensors: int, ma_coeff: float = 0.2) -> SystemModel:
    """Explicitly stacked multi-sensor variant of the kinematic scenario.

    Every sensor observes the same state with its own measurement-noise
    process; the stacked model is used to cross-check the replica scaling of
    the measurement curvature against the full-horizon reference.
    """
    a = float(ma_coeff)
    f, q = kinematic_matrices()
    r_single = np.diag([400.0, 25.0])
    eye2 = np.eye(2)
    profile = CorrelationProfile(l1=1, l2=1, l3=2, l4=1)
    prior = default_prior(profile, 2, cov=np.diag([100.0, 10.0]), transition=f)

    h0 = np.vstack([2.0 * eye2] * sensors)
    h1 = np.vstack([-(f + a * eye2)] * sensors)
    l0 = a * np.eye(2 * sensors)
    r_stacked = np.kron(np.eye(sensors), r_single)
    g0 = np.zeros((2, 2 * sensors))
    g0[:, :2] = a * eye2  # the transition conditions on the first sensor's feed

    spec = LinearConditionalSpec(
        profile=profile,
        state_coeffs=(f - a * eye2,),
        trans_meas_coeffs=(g0,),
        process_cov=q,
        meas_state_coeffs=(h0, h1),
        meas_meas_coeffs=(l0,),
        meas_cov=r_stacked,
    )
    return build_linear_model(spec, prior=prior, name=f"example1_stacked{sensors}")


# ---------------------------------------------------------------------------
# Scenario 2: constant-velocity model with range/azimuth measurements
# ---------------------------------------------------------------------------


def planar_cv_matrices(dt: float = 3.0, psd: float = 10.0):
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
    x = states[:, 0]
    y = states[:, 2]
    r2 = x * x + y * y
    r1 = np.sqrt(r2)
    jac = np.zeros((states.shape[0], 2, 4))
    with np.errstate(divide="ignore", invalid="ignore"):
        jac[:, 0, 0] = x / r1
        jac[:, 0, 2] = y / r1
        jac[:, 1, 0] = -y / r2
        jac[:, 1, 2] = x / r2
    return jac


def build_example2(dt: float = 3.0, psd: float = 10.0,
                   meas_std: tuple[float, float] = (50.0, 0.01),
                   prior: GaussianPrior | None = None) -> SystemModel:
    """Planar constant-velocity model, two-step MA process noise, polar sensor.

    Process noise: ``w[k] = ws[k] + ws[k-1] + ws[k-2]`` with white ``ws``;
    the lag profile is (0, 2, 0, 0).  Conditioning the transition on two past
    states reduces its residual to the newest white seed; the measurement
    curvature is sampled via the range/azimuth Jacobian.
    """
    f, q = planar_cv_matrices(dt, psd)
    sigma2 = np.diag([meas_std[0] ** 2, meas_std[1] ** 2])
    sigma2_inv = psd_inverse(sigma2)
    profile = CorrelationProfile(l1=0, l2=2, l3=0, l4=0)
    if prior is None:
        prior = default_prior(
            profile, 4,
            mean=np.array([1.0e4, 10.0, 1.0e4, 10.0]),
            cov=np.diag([100.0, 10.0, 100.0, 10.0]),
            transition=f,
        )

    eye4 = np.eye(4)
    coeff_spec = LinearConditionalSpec(
        profile=profile,
        state_coeffs=(eye4 + f, -f),
        process_cov=q,
        meas_state_coeffs=(np.zeros((2, 4)),),  # placeholder; measurement is nonlinear
        meas_cov=sigma2,
    )
    b_grid = linear_transition_blocks(coeff_spec)

    q_inv = psd_inverse(q)
    log_norm_q = -0.5 * (4 * np.log(2.0 * np.pi) + np.linalg.slogdet(q)[1])
    log_norm_r = -0.5 * (2 * np.log(2.0 * np.pi) + np.linalg.slogdet(sigma2)[1])

    def trans_logpdf(x_next, x_hist, z_hist, shift):
        del z_hist
        mean = (eye4 + f) @ x_hist[0] - f @ x_hist[1] + np.asarray(shift, dtype=float)
        resid = np.asarray(x_next, dtype=float) - mean
        return float(log_norm_q - 0.5 * resid @ q_inv @ resid)

    def meas_logpdf(z_next, x_hist, z_hist, shift):
        del z_hist
        mean = range_azimuth(np.asarray(x_hist[0], dtype=float)) + np.asarray(shift)
        resid = np.asarray(z_next, dtype=float) - mean
        return float(log_norm_r - 0.5 * resid @ sigma2_inv @ resid)

    def singular_states(states: np.ndarray) -> np.ndarray:
        r2 = states[:, 0] ** 2 + states[:, 2] ** 2
        return r2 < AZIMUTH_SINGULAR_RADIUS_SQ

    chol_q = np.linalg.cholesky(symmetrize(q))
    chol_s2 = np.linalg.cholesky(sigma2)
    w = prior.window_len

    def simulate(horizon: int, count: int, rng: np.random.Generator) -> TrajectoryBatch:
        length = horizon + 1
        window = prior.sample(count, rng)
        # White seeds ws[j] for j = -1..length-1, held time-major so that each
        # time slice is contiguous; seeds[j + 1] is ws[j].
        seeds = rng.standard_normal((count, length + 1, 4)) @ chol_q.T
        seeds = np.ascontiguousarray(seeds.transpose(1, 0, 2))

        # The model checks that the prior window is 3, so k - 2 >= 0 below.
        states = np.zeros((length, count, 4))
        states[: min(w, length)] = window[:, :length].transpose(1, 0, 2)
        for k in range(w - 1, length - 1):
            states[k + 1] = states[k] @ f.T + seeds[k + 1] + seeds[k] + seeds[k - 1]
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
        analytic_b=lambda k: b_grid.copy(),
        analytic_c=None,
        meas_jacobian=range_azimuth_jacobian,
        meas_noise_information=sigma2_inv,
        singular_states=singular_states,
        linear=None,
    )


def scale_measurement_noise(model: SystemModel, factor: float) -> SystemModel:
    """Variant of the polar-sensor model with measurement covariance scaled."""
    if model.meas_noise_information is None:
        raise ValueError("model does not expose measurement noise information")
    info = np.asarray(model.meas_noise_information) / factor
    return replace(model, name=f"{model.name}_noise{factor:g}",
                   meas_noise_information=info)


def simple_scalar_model(q: float = 1.0, r: float = 1.0, p0: float = 1.0) -> SystemModel:
    """Scalar random walk with a direct measurement and independent noises."""
    profile = CorrelationProfile()
    spec = LinearConditionalSpec(
        profile=profile,
        state_coeffs=(np.array([[1.0]]),),
        process_cov=np.array([[q]]),
        meas_state_coeffs=(np.array([[1.0]]),),
        meas_cov=np.array([[r]]),
    )
    prior = GaussianPrior(means=np.zeros((1, 1)), covariances=np.array([[[p0]]]))
    return build_linear_model(spec, prior=prior, name="scalar_random_walk")
