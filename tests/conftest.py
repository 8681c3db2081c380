"""Shared builders for the test suite."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import corrbound as cb
from corrbound.examples import kinematic_matrices
from corrbound.linalg import symmetrize


def blocks_at(model: cb.SystemModel, k: int, est: cb.ExpectationEstimator
              ) -> tuple[np.ndarray, np.ndarray]:
    """Transition and measurement blocks at time ``k`` alone."""
    return cb.BlockProvider(model, est, k, k + 1).blocks(k)


def simple_scalar_model(q: float = 1.0, r: float = 1.0, p0: float = 1.0) -> cb.SystemModel:
    """Scalar random walk with a direct measurement and independent noises."""
    spec = cb.LinearConditionalSpec(
        profile=cb.CorrelationProfile(),
        state_coeffs=(np.array([[1.0]]),),
        process_cov=np.array([[q]]),
        meas_state_coeffs=(np.array([[1.0]]),),
        meas_cov=np.array([[r]]),
    )
    prior = cb.GaussianPrior(means=np.zeros((1, 1)), covariances=np.array([[[p0]]]))
    return cb.build_linear_model(spec, prior=prior, name="scalar_random_walk")


def nonlinear_scalar_model() -> cb.SystemModel:
    """Scalar model with nonlinear dynamics and sensor and white noises,
    ``x' = x/2 + 25x/(1+x^2) + w`` with ``w ~ N(0, 10)`` and
    ``z = x^2/20 + v`` with ``v ~ N(0, 1)``, from the prior ``N(0.1, 2)``.
    It has no closed forms and no measurement Jacobian, so every block is
    sampled, and both factors' curvature follows the state distribution of
    its time."""
    q, r = 10.0, 1.0

    def f(x):
        return x / 2 + 25 * x / (1 + x ** 2)

    def trans_logpdf(x_next, x_hist, z_hist, shift):
        return -0.5 * (x_next[:, 0] - f(x_hist[:, 0, 0]) - shift[:, 0]) ** 2 / q

    def meas_logpdf(z_next, x_hist, z_hist, shift):
        return -0.5 * (z_next[:, 0] - x_hist[:, 0, 0] ** 2 / 20 - shift[:, 0]) ** 2 / r

    prior = cb.GaussianPrior(means=np.array([[0.1]]), covariances=np.array([[[2.0]]]))

    def simulate(horizon, count, rng):
        states = np.empty((count, horizon + 1, 1))
        states[:, 0] = prior.sample(count, rng)[:, 0]
        for k in range(horizon):
            states[:, k + 1] = f(states[:, k]) + np.sqrt(q) * rng.standard_normal((count, 1))
        meas = states ** 2 / 20 + np.sqrt(r) * rng.standard_normal(states.shape)
        zeros = np.zeros_like(states)
        return cb.TrajectoryBatch(states, meas, zeros, zeros)

    return cb.SystemModel(name="nonlinear_scalar", state_dim=1, meas_dim=1,
                          profile=cb.CorrelationProfile(), prior=prior,
                          trans_logpdf=trans_logpdf, meas_logpdf=meas_logpdf,
                          simulate=simulate)


def build_example1_stacked(sensors: int, ma_coeff: float = 0.2) -> cb.SystemModel:
    """Explicitly stacked multi-sensor variant of the kinematic scenario.

    Every sensor observes the same state with its own measurement-noise
    process; the stacked model is used to cross-check the replica scaling of
    the measurement curvature against the full-horizon reference.
    """
    a = float(ma_coeff)
    f, q = kinematic_matrices()
    r_single = np.diag([400.0, 25.0])
    eye2 = np.eye(2)
    profile = cb.CorrelationProfile(l1=1, l2=1, l3=2, l4=1)
    prior = cb.default_prior(profile, 2, cov=np.diag([100.0, 10.0]), transition=f)

    h0 = np.vstack([2.0 * eye2] * sensors)
    h1 = np.vstack([-(f + a * eye2)] * sensors)
    l0 = a * np.eye(2 * sensors)
    r_stacked = np.kron(np.eye(sensors), r_single)
    g0 = np.zeros((2, 2 * sensors))
    g0[:, :2] = a * eye2  # the transition conditions on the first sensor's feed

    spec = cb.LinearConditionalSpec(
        profile=profile,
        state_coeffs=(f - a * eye2,),
        trans_meas_coeffs=(g0,),
        process_cov=q,
        meas_state_coeffs=(h0, h1),
        meas_meas_coeffs=(l0,),
        meas_cov=r_stacked,
    )
    return cb.build_linear_model(spec, prior=prior, name=f"example1_stacked{sensors}")


def scale_measurement_noise(model: cb.SystemModel, factor: float) -> cb.SystemModel:
    """Variant of the polar-sensor model with measurement covariance scaled."""
    if model.meas_noise_information is None:
        raise ValueError("model does not expose measurement noise information")
    info = np.asarray(model.meas_noise_information) / factor
    return replace(model, name=f"{model.name}_noise{factor:g}",
                   meas_noise_information=info)


def random_spd(rng: np.random.Generator, dim: int, floor: float = 0.5) -> np.ndarray:
    a = rng.normal(size=(dim, dim))
    return a @ a.T + floor * np.eye(dim)


def random_linear_model(profile: cb.CorrelationProfile, state_dim: int, meas_dim: int,
                        seed: int, name: str | None = None) -> cb.SystemModel:
    """Linear-Gaussian model with random conditional coefficients.

    Coefficients are scaled down with the number of lags so trajectories stay
    tame; the noise covariances are well-conditioned SPD draws.
    """
    rng = np.random.default_rng(seed)
    l2e, l3e = profile.l2_eff, profile.l3_eff
    spec = cb.LinearConditionalSpec(
        profile=profile,
        state_coeffs=tuple(
            rng.normal(scale=0.6 / l2e, size=(state_dim, state_dim)) for _ in range(l2e)
        ),
        trans_meas_coeffs=tuple(
            rng.normal(scale=0.1, size=(state_dim, meas_dim)) for _ in range(profile.l4)
        ),
        process_cov=random_spd(rng, state_dim),
        meas_state_coeffs=tuple(
            rng.normal(scale=0.8 / l3e, size=(meas_dim, state_dim)) for _ in range(l3e)
        ),
        meas_meas_coeffs=tuple(
            rng.normal(scale=0.1, size=(meas_dim, meas_dim)) for _ in range(profile.l1)
        ),
        meas_cov=random_spd(rng, meas_dim),
    )
    return cb.build_linear_model(spec, name=name or f"random_{seed}")


def psd_dominates(a: np.ndarray, b: np.ndarray, tol: float = 1e-10) -> bool:
    """True when ``a - b`` is PSD up to an absolute eigenvalue tolerance."""
    diff = symmetrize(a) - symmetrize(b)
    eigs = np.linalg.eigvalsh(symmetrize(diff))
    scale = max(abs(float(eigs[-1])), 1.0)
    return bool(eigs[0] >= -tol * scale)


def max_trace_deviation(a: cb.PCRBTrace, b: cb.PCRBTrace) -> float:
    assert len(a) == len(b)
    worst = 0.0
    for ia, ib in zip(a.info[a.index], b.info[b.index]):
        scale = max(float(np.max(np.abs(ia))), 1.0)
        worst = max(worst, float(np.max(np.abs(ia - ib))) / scale)
    return worst


# Profiles covering all three recursion layouts with small lags.
CASE_SPANNING_PROFILES = [
    (0, 0, 0, 0),
    (1, 1, 2, 1),
    (0, 2, 0, 0),
    (0, 0, 3, 0),
    (2, 1, 3, 2),
    (1, 3, 2, 0),
    (0, 1, 2, 1),
    (2, 2, 3, 0),
    (1, 0, 3, 1),
    (3, 3, 1, 3),
]


@pytest.fixture(scope="session")
def example1():
    return cb.build_example1()


@pytest.fixture(scope="session")
def example2():
    return cb.build_example2()


@pytest.fixture(scope="session")
def analytic_est():
    return cb.ExpectationEstimator()
