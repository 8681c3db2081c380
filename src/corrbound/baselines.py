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
augmented process covariance is singular.
"""

from __future__ import annotations

import numpy as np

from .blocks import ExpectationEstimator
from .errors import ModelBuildError
from .linalg import psd_inverse, symmetrize
from .models import GaussianPrior, LinearConditionalSpec, SystemModel, build_linear_model
from .profiles import CorrelationProfile
from .recursion import PCRBTrace, run, trace_entry


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
    return run(white, ExpectationEstimator(), horizon)


def pcrb_ignore_correlation(model: SystemModel, horizon: int) -> PCRBTrace:
    """Bound from treating both noises as white with their marginal covariances."""
    li = _require_linear(model)
    return _white_noise_trace(model, li.transition, li.process_marginal,
                              li.measurement, li.measurement_marginal, horizon)


def pcrb_augmented(model: SystemModel, horizon: int) -> PCRBTrace:
    """Bound from AR(1) approximations of the colored noises in an augmented state.

    Augmented state (x, w, v_prev): the process noise and the lagged
    measurement noise ride along as states, each driven by its white AR
    residual; the measurement keeps the fresh residual as its own noise.
    The bound is reported in the original coordinates (leading block of the
    augmented bound, re-inverted).
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

    trace = PCRBTrace()
    p = psd_inverse(j, context="augmented information")
    for s in range(1, horizon + 1):
        # Covariance-form propagation tolerates the singular augmented
        # process covariance (the x-rows carry no fresh noise).
        predicted = symmetrize(q_aug + f_aug @ p @ f_aug.T)
        j = symmetrize(psd_inverse(predicted, context="augmented prediction")
                       + h_aug.T @ r_inv @ h_aug)
        p = psd_inverse(j, context="augmented information")
        info_x = psd_inverse(p[:r_dim, :r_dim], context="augmented state bound")
        trace.entries.append(trace_entry(s, s, info_x))
    return trace


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
