"""Approximate bounds that handle only part of the noise correlation.

Three baselines, each a white-noise bound after a model transformation:

* ``pcrb_ignore_correlation`` -- drop all correlation, keep marginal
  covariances;
* ``pcrb_augmented`` -- approximate both colored noises by first-order
  autoregressions carried inside an augmented state;
* ``pcrb_prewhiten`` -- remove the process-to-measurement cross term by a
  measurement transformation, ignore remaining auto-correlation.

``pcrb_ignore_correlation`` and ``pcrb_prewhiten`` run :func:`corrbound.step`
on a window-1 white-noise model, where it is the classical information
recursion.  ``pcrb_augmented`` keeps a covariance-form loop, because its
augmented process covariance is singular.  Each starts from the model's last
prior state, so its step ``s`` reaches time index ``model.start_time + s``,
as the unified trace's does.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .blocks import ExpectationEstimator
from .errors import ModelBuildError, require_int
from .linalg import psd_factor, psd_inverse, symmetrize
from .models import (
    GaussianPrior,
    LinearConditionalSpec,
    SystemModel,
    build_linear_model,
)
from .profiles import CorrelationProfile
from .recursion import MAX_HORIZON, PCRBTrace, _distinct_steps, run, trace_rows


def _require_linear(model: SystemModel):
    if model.linear is None:
        raise ModelBuildError(
            f"model '{model.name}' exposes no one-step linear view with "
            "marginal noise covariances; this baseline needs one"
        )
    return model.linear


def _white_noise_trace(model: SystemModel, f: np.ndarray, q: np.ndarray,
                       h: np.ndarray, r: np.ndarray, horizon: int) -> PCRBTrace:
    """Bound for ``x[k+1] = f x[k] + w``, ``z[k] = h x[k] + v`` with white
    ``w ~ N(0, q)`` and ``v ~ N(0, r)``, from the last prior state of ``model``."""
    spec = LinearConditionalSpec(
        profile=CorrelationProfile(), state_coeffs=(f,), process_cov=q,
        meas_state_coeffs=(h,), meas_cov=r,
    )
    prior = GaussianPrior(model.prior.means[-1:], model.prior.covariances[-1:])
    white = build_linear_model(spec, prior=prior, name=f"{model.name}_white")
    return dataclasses.replace(run(white, ExpectationEstimator(), horizon),
                               start=model.start_time)


def pcrb_ignore_correlation(model: SystemModel, horizon: int) -> PCRBTrace:
    """Bound from treating both noises as white with their marginal covariances."""
    li = _require_linear(model)
    return _white_noise_trace(model, li.transition, li.process_marginal,
                              li.measurement, li.measurement_marginal, horizon)


def augmented_system(model: SystemModel) -> tuple[np.ndarray, ...]:
    """``(f_aug, q_aug, h_aug, r_inv, p0)`` of :func:`pcrb_augmented`.

    Augmented state (x, w, v_prev): the process noise and the lagged
    measurement noise ride along as states, each driven by its white AR
    residual; the measurement keeps the fresh residual, of information
    ``r_inv``, as its own noise.  ``p0`` is the augmented prior covariance.
    """
    li = _require_linear(model)
    ar = model.ar_model
    if ar is None:
        raise ModelBuildError(
            f"model '{model.name}' carries no autoregressive noise approximation"
        )
    # The stationary variances below divide by 1 - coeff**2.
    for label, coeff in (("process", ar.process_coeff), ("measurement", ar.meas_coeff)):
        if not abs(coeff) < 1.0:
            raise ModelBuildError(
                f"model '{model.name}': AR {label} coefficient {coeff:g} has no "
                "stationary variance; the augmented baseline needs |coeff| < 1"
            )
    r_dim = model.state_dim
    n_dim = li.measurement.shape[0]
    aug = r_dim + r_dim + n_dim

    f_aug = np.zeros((aug, aug))
    f_aug[:r_dim, :r_dim] = li.transition
    f_aug[:r_dim, r_dim : 2 * r_dim] = np.eye(r_dim)
    f_aug[r_dim : 2 * r_dim, r_dim : 2 * r_dim] = ar.process_coeff * np.eye(r_dim)
    f_aug[2 * r_dim :, 2 * r_dim :] = ar.meas_coeff * np.eye(n_dim)

    q_aug = np.zeros((aug, aug))
    q_aug[r_dim : 2 * r_dim, r_dim : 2 * r_dim] = ar.process_white_cov
    q_aug[2 * r_dim :, 2 * r_dim :] = ar.meas_white_cov

    h_aug = np.zeros((n_dim, aug))
    h_aug[:, :r_dim] = li.measurement
    h_aug[:, 2 * r_dim :] = ar.meas_coeff * np.eye(n_dim)
    r_inv = psd_inverse(ar.meas_white_cov, context="AR measurement residual covariance")

    # Stationary marginals of the AR(1) noises seed the augmented prior.
    w_stat = ar.process_white_cov / (1.0 - ar.process_coeff**2)
    v_stat = ar.meas_white_cov / (1.0 - ar.meas_coeff**2)
    j = np.zeros((aug, aug))
    j[:r_dim, :r_dim] = psd_inverse(model.prior.covariances[-1], context="prior covariance")
    j[r_dim : 2 * r_dim, r_dim : 2 * r_dim] = psd_inverse(
        w_stat, context="stationary AR process noise covariance")
    j[2 * r_dim :, 2 * r_dim :] = psd_inverse(
        v_stat, context="stationary AR measurement noise covariance")
    return f_aug, q_aug, h_aug, r_inv, psd_inverse(j, context="augmented information")


def _augmented_step(p: np.ndarray, f_aug: np.ndarray, q_aug: np.ndarray,
                    info_meas: np.ndarray, r_dim: int) -> tuple[np.ndarray, np.ndarray]:
    # Covariance-form propagation tolerates the singular augmented process
    # covariance (the x-rows carry no fresh noise).
    predicted = symmetrize(q_aug + f_aug @ p @ f_aug.T)
    j = psd_factor(predicted, context="augmented prediction")[2] + info_meas
    # One factorization of j, with its states in reverse order so that x
    # comes last, gives p_next = inv(j) and, as the factor's last block
    # times its transpose, x's information: the inverse of p_next's x block.
    lower, _, p_reversed = psd_factor(j[::-1, ::-1], context="augmented information")
    last = lower[-r_dim:, -r_dim:]
    return p_reversed[::-1, ::-1], (last @ last.T)[::-1, ::-1]


def pcrb_augmented(model: SystemModel, horizon: int) -> PCRBTrace:
    """Bound from AR(1) approximations of the colored noises in an augmented state.

    The noises ride along in the augmented state of :func:`augmented_system`.
    The bound is reported in the original coordinates (leading block of the
    augmented bound, re-inverted).  The step reads only the augmented
    covariance ``p``, so it runs in ``run``'s loop helper
    (``recursion._distinct_steps``) on one empty block tuple for every step:
    once ``p`` repeats an earlier one byte for byte, the remaining steps
    tile the cycle from there, and the trace stores each distinct row once.
    """
    require_int(horizon, "horizon", 1, MAX_HORIZON)
    f_aug, q_aug, h_aug, r_inv, p = augmented_system(model)
    info_meas = symmetrize(h_aug.T @ r_inv @ h_aug)

    def compute(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _augmented_step(p, f_aug, q_aug, info_meas, model.state_dim)

    infos, index = _distinct_steps(p, (), compute, horizon)
    return PCRBTrace(*trace_rows(infos), index, model.start_time)


def pcrb_prewhiten(model: SystemModel, horizon: int) -> PCRBTrace:
    """Bound after decorrelating the measurement noise from past process noise.

    Subtracting (cross covariance) x (process covariance)^-1 applied to the
    state-equation residual removes the cross term exactly; what remains of
    the transformed measurement must depend on a single state for the
    white-noise bound to apply, which holds when the cross term enters the
    measurement with a unit coefficient.  Remaining auto-correlation is
    ignored.
    """
    li = _require_linear(model)
    s_cross = li.cross_lag1
    if s_cross is None or not np.any(s_cross):
        return pcrb_ignore_correlation(model, horizon)
    gain = s_cross @ psd_inverse(li.process_marginal, context="process marginal")
    residual_coeff = li.measurement - gain
    scale = max(float(np.max(np.abs(li.measurement))), 1.0)
    if np.max(np.abs(residual_coeff)) > 1e-10 * scale:
        raise ModelBuildError(
            f"model '{model.name}': decorrelated measurement still couples to "
            "the current state; pre-whitening supports unit-gain cross terms only"
        )
    h_eff = gain @ li.transition
    r_eff = symmetrize(li.measurement_marginal - gain @ s_cross.T)
    return _white_noise_trace(model, li.transition, li.process_marginal, h_eff, r_eff,
                              horizon)


BASELINES = {
    "i": pcrb_ignore_correlation,
    "a": pcrb_augmented,
    "p": pcrb_prewhiten,
}

BASELINE_LABELS = {"i": "pcrb_i", "a": "pcrb_a", "p": "pcrb_p"}
