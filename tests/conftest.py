"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

import corrbound as cb
from corrbound.linalg import symmetrize


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
    for ea, eb in zip(a.entries, b.entries):
        scale = max(float(np.max(np.abs(ea.info))), 1.0)
        worst = max(worst, float(np.max(np.abs(ea.info - eb.info))) / scale)
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
