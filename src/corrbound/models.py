"""Dynamic-system contract consumed by the bound machinery.

A :class:`SystemModel` supplies, for a fixed correlation profile:

* conditional log-densities of the transition and measurement factors,
* a vectorized trajectory sampler (used for Monte-Carlo expectations),
* a Gaussian prior over the initial window of states,
* optionally closed-form curvature blocks and a measurement Jacobian.

The log-density evaluators take the factor's state arguments explicitly so
they can be differentiated block by block; any residual terms that the
conditional means carry (realized noise history) arrive as a precomputed
shift vector per sampled trajectory and contribute nothing to state
derivatives.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, ModelBuildError
from .linalg import block_slice, psd_inverse, symmetrize
from .profiles import CorrelationProfile, required_prior_window

Array = np.ndarray


@dataclass(frozen=True)
class GaussianPrior:
    """Independent Gaussian blocks over the initial window of states.

    ``means`` has shape ``(window, state_dim)`` and ``covariances``
    ``(window, state_dim, state_dim)``.
    """

    means: Array
    covariances: Array

    def __post_init__(self):
        means = np.asarray(self.means, dtype=float)
        covs = np.asarray(self.covariances, dtype=float)
        if means.ndim != 2:
            raise ModelBuildError("prior means must have shape (window, state_dim)")
        if covs.shape != (means.shape[0], means.shape[1], means.shape[1]):
            raise ModelBuildError(
                f"prior covariances shape {covs.shape} does not match means {means.shape}"
            )
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "covariances", covs)

    @property
    def window_len(self) -> int:
        return self.means.shape[0]

    @property
    def state_dim(self) -> int:
        return self.means.shape[1]

    def information(self) -> Array:
        """Block-diagonal joint information matrix of the window."""
        r = self.state_dim
        w = self.window_len
        info = np.zeros((w * r, w * r))
        for j in range(w):
            info[j * r : (j + 1) * r, j * r : (j + 1) * r] = psd_inverse(
                self.covariances[j], context=f"prior covariance of window state {j}"
            )
        return info

    def sample(self, count: int, rng: np.random.Generator) -> Array:
        out = np.empty((count, self.window_len, self.state_dim))
        for j in range(self.window_len):
            chol = np.linalg.cholesky(symmetrize(self.covariances[j]))
            out[:, j, :] = self.means[j] + rng.standard_normal(
                (count, self.state_dim)
            ) @ chol.T
        return out


def default_prior(profile: CorrelationProfile, state_dim: int,
                  mean: Array | None = None,
                  cov: Array | None = None,
                  transition: Array | None = None) -> GaussianPrior:
    """Prior over the required window; successive means follow ``transition``."""
    w = required_prior_window(profile)
    if mean is None:
        mean = np.zeros(state_dim)
    mean = np.asarray(mean, dtype=float)
    if cov is None:
        # Loose default: variance 100 on even (position-like) components,
        # 10 on odd (velocity-like) ones.
        diag = np.where(np.arange(state_dim) % 2 == 0, 100.0, 10.0)
        cov = np.diag(diag)
    cov = np.asarray(cov, dtype=float)
    means = np.empty((w, state_dim))
    means[0] = mean
    for j in range(1, w):
        means[j] = means[j - 1] if transition is None else transition @ means[j - 1]
    covs = np.repeat(cov[None, :, :], w, axis=0)
    return GaussianPrior(means=means, covariances=covs)


@dataclass(frozen=True)
class TrajectoryBatch:
    """Vectorized sample of trajectories.

    ``states``/``measurements`` cover times ``0..horizon``. ``trans_shift[k]``
    is the known additive term in the conditional mean of ``x[k+1]``;
    ``meas_shift[k]`` the one for ``z[k+1]``. ``extras`` carries
    model-specific realized sequences (e.g. the colored noises themselves)
    for diagnostics.
    """

    states: Array
    measurements: Array
    trans_shift: Array
    meas_shift: Array
    extras: dict[str, Array] = field(default_factory=dict)

    @property
    def count(self) -> int:
        return self.states.shape[0]

    @property
    def horizon(self) -> int:
        return self.states.shape[1] - 1


# Signature: (x_next (r,), x_hist (l2', r) newest first, z_hist (l4, n) newest
# first, shift (r,)) -> float, and the measurement analog.
LogDensity = Callable[[Array, Array, Array, Array], float]
Simulator = Callable[[int, int, np.random.Generator], TrajectoryBatch]


@dataclass(frozen=True)
class LinearModelInfo:
    """One-step linear-Gaussian view used by the approximate baselines."""

    transition: Array
    measurement: Array
    process_marginal: Array
    measurement_marginal: Array
    cross_lag1: Array | None = None  # E[v_k w_{k-1}^T]


@dataclass(frozen=True)
class ArApproximation:
    """First-order autoregressive stand-in for the colored noises.

    A builder may leave the residual covariances out (``None``) for a
    coefficient with ``|coeff| >= 1``, which has no stationary stand-in.
    """

    process_coeff: float
    process_white_cov: Array | None
    meas_coeff: float
    meas_white_cov: Array | None


@dataclass(frozen=True, eq=False)
class SystemModel:
    name: str
    state_dim: int
    meas_dim: int
    profile: CorrelationProfile
    prior: GaussianPrior
    trans_logpdf: LogDensity
    meas_logpdf: LogDensity
    simulate: Simulator
    analytic_b: Callable[[int], Array] | None = None
    analytic_c: Callable[[int], Array] | None = None
    meas_jacobian: Callable[[Array], Array] | None = None
    meas_noise_information: Array | None = None
    singular_states: Callable[[Array], Array] | None = None
    linear: LinearModelInfo | None = None
    ar_model: ArApproximation | None = None

    def __post_init__(self):
        expected = required_prior_window(self.profile)
        if self.prior.window_len != expected:
            raise ModelBuildError(
                f"model '{self.name}': prior window {self.prior.window_len} "
                f"!= required {expected} for profile {self.profile.as_dict()}"
            )
        if self.prior.state_dim != self.state_dim:
            raise ModelBuildError(
                f"model '{self.name}': prior state dim {self.prior.state_dim} "
                f"!= state_dim {self.state_dim}"
            )

    @property
    def start_time(self) -> int:
        """First time index at which the factor conditionals are fully defined."""
        return self.prior.window_len - 1


# ---------------------------------------------------------------------------
# Linear conditional-coefficient family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearConditionalSpec:
    """Linear-Gaussian conditionals written directly in factorized form.

    Transition:  x[k+1] = sum_i F_i x[k-i] + sum_j G_j z[k-j] + u + w,  w ~ N(0, Q)
    Measurement: z[k+1] = sum_i H_i x[k+1-i] + sum_j L_j z[k-j] + v + e,  e ~ N(0, R)

    with ``i`` running over the profile's effective state lags and ``j`` over
    its measurement lags.
    """

    profile: CorrelationProfile
    state_coeffs: tuple[Array, ...]
    process_cov: Array
    meas_state_coeffs: tuple[Array, ...]
    meas_cov: Array
    trans_meas_coeffs: tuple[Array, ...] = ()
    meas_meas_coeffs: tuple[Array, ...] = ()
    trans_offset: Array | None = None
    meas_offset: Array | None = None

    def __post_init__(self):
        p = self.profile
        if len(self.state_coeffs) != p.l2_eff:
            raise ModelBuildError(
                f"expected {p.l2_eff} transition state coefficients, "
                f"got {len(self.state_coeffs)}"
            )
        if len(self.meas_state_coeffs) != p.l3_eff:
            raise ModelBuildError(
                f"expected {p.l3_eff} measurement state coefficients, "
                f"got {len(self.meas_state_coeffs)}"
            )
        if len(self.trans_meas_coeffs) != p.l4:
            raise ModelBuildError(
                f"expected {p.l4} transition measurement coefficients, "
                f"got {len(self.trans_meas_coeffs)}"
            )
        if len(self.meas_meas_coeffs) != p.l1:
            raise ModelBuildError(
                f"expected {p.l1} measurement feedback coefficients, "
                f"got {len(self.meas_meas_coeffs)}"
            )

    @property
    def state_dim(self) -> int:
        return np.asarray(self.state_coeffs[0]).shape[0]

    @property
    def meas_dim(self) -> int:
        return np.asarray(self.meas_cov).shape[0]


def _transition_coefficient_grid(spec: LinearConditionalSpec) -> list[Array]:
    """Residual gradient of the transition factor per block slot, oldest
    state first (slot order as in :func:`corrbound.blocks.factor_frame`)."""
    l2e = spec.profile.l2_eff
    r = spec.state_dim
    coefs = []
    for i in range(1, l2e + 1):
        coefs.append(-np.asarray(spec.state_coeffs[l2e - i], dtype=float))
    coefs.append(np.eye(r))
    return coefs


def _measurement_coefficient_grid(spec: LinearConditionalSpec) -> list[Array]:
    """Residual gradient of the measurement factor per block slot, oldest
    state first (slot order as in :func:`corrbound.blocks.factor_frame`)."""
    l3e = spec.profile.l3_eff
    coefs = []
    for i in range(1, l3e + 1):
        coefs.append(-np.asarray(spec.meas_state_coeffs[l3e - i], dtype=float))
    return coefs


def _curvature_grid(coefs: list[Array], noise_info: Array, r: int) -> Array:
    """Block ``(i, j)`` is ``coefs[i].T @ noise_info @ coefs[j]``."""
    size = len(coefs)
    grid = np.zeros((size * r, size * r))
    for i in range(size):
        for j in range(size):
            grid[block_slice(i, r), block_slice(j, r)] = coefs[i].T @ noise_info @ coefs[j]
    return grid


def linear_transition_blocks(spec: LinearConditionalSpec) -> Array:
    q_inv = psd_inverse(np.asarray(spec.process_cov, dtype=float), context="process covariance")
    return _curvature_grid(_transition_coefficient_grid(spec), q_inv, spec.state_dim)


def linear_measurement_blocks(spec: LinearConditionalSpec) -> Array:
    r_inv = psd_inverse(np.asarray(spec.meas_cov, dtype=float), context="measurement covariance")
    return _curvature_grid(_measurement_coefficient_grid(spec), r_inv, spec.state_dim)


def _gaussian_logpdf(residual: Array, cov_inv: Array, log_norm: float) -> float:
    residual = np.asarray(residual, dtype=float)
    return float(log_norm - 0.5 * residual @ cov_inv @ residual)


def _linear_logdensities(spec: LinearConditionalSpec):
    p = spec.profile
    q = np.asarray(spec.process_cov, dtype=float)
    rr = np.asarray(spec.meas_cov, dtype=float)
    q_inv = psd_inverse(q, context="process covariance")
    r_inv = psd_inverse(rr, context="measurement covariance")
    log_norm_q = -0.5 * (q.shape[0] * np.log(2.0 * np.pi) + np.linalg.slogdet(q)[1])
    log_norm_r = -0.5 * (rr.shape[0] * np.log(2.0 * np.pi) + np.linalg.slogdet(rr)[1])
    u = np.zeros(spec.state_dim) if spec.trans_offset is None else np.asarray(spec.trans_offset)
    v = np.zeros(spec.meas_dim) if spec.meas_offset is None else np.asarray(spec.meas_offset)

    def trans_logpdf(x_next, x_hist, z_hist, shift):
        mean = u + np.asarray(shift, dtype=float)
        for i, f_i in enumerate(spec.state_coeffs):
            mean = mean + f_i @ x_hist[i]
        for j, g_j in enumerate(spec.trans_meas_coeffs):
            mean = mean + g_j @ z_hist[j]
        return _gaussian_logpdf(x_next - mean, q_inv, log_norm_q)

    def meas_logpdf(z_next, x_hist, z_hist, shift):
        mean = v + np.asarray(shift, dtype=float)
        for i, h_i in enumerate(spec.meas_state_coeffs):
            mean = mean + h_i @ x_hist[i]
        for j, l_j in enumerate(spec.meas_meas_coeffs):
            mean = mean + l_j @ z_hist[j]
        return _gaussian_logpdf(z_next - mean, r_inv, log_norm_r)

    return trans_logpdf, meas_logpdf, p


def _linear_simulator(spec: LinearConditionalSpec, prior: GaussianPrior) -> Simulator:
    p = spec.profile
    r = spec.state_dim
    n = spec.meas_dim
    w = prior.window_len
    chol_q = np.linalg.cholesky(symmetrize(np.asarray(spec.process_cov, dtype=float)))
    chol_r = np.linalg.cholesky(symmetrize(np.asarray(spec.meas_cov, dtype=float)))
    u = np.zeros(r) if spec.trans_offset is None else np.asarray(spec.trans_offset)
    v = np.zeros(n) if spec.meas_offset is None else np.asarray(spec.meas_offset)

    def simulate(horizon: int, count: int, rng: np.random.Generator) -> TrajectoryBatch:
        length = horizon + 1
        states = np.zeros((count, length, r))
        meas = np.zeros((count, length, n))
        states[:, : min(w, length)] = prior.sample(count, rng)[:, :length]
        for k in range(length):
            if k >= w:
                mean = np.broadcast_to(u, (count, r)).copy()
                for i, f_i in enumerate(spec.state_coeffs):
                    mean += states[:, k - 1 - i] @ np.asarray(f_i).T
                for j, g_j in enumerate(spec.trans_meas_coeffs):
                    mean += meas[:, k - 1 - j] @ np.asarray(g_j).T
                states[:, k] = mean + rng.standard_normal((count, r)) @ chol_q.T
            mean_z = np.broadcast_to(v, (count, n)).copy()
            for i, h_i in enumerate(spec.meas_state_coeffs):
                if k - i >= 0:
                    mean_z += states[:, k - i] @ np.asarray(h_i).T
            for j, l_j in enumerate(spec.meas_meas_coeffs):
                if k - 1 - j >= 0:
                    mean_z += meas[:, k - 1 - j] @ np.asarray(l_j).T
            meas[:, k] = mean_z + rng.standard_normal((count, n)) @ chol_r.T
        zero_ts = np.zeros((count, length, r))
        zero_ms = np.zeros((count, length, n))
        return TrajectoryBatch(states, meas, zero_ts, zero_ms)

    return simulate


def build_linear_model(
    spec: LinearConditionalSpec,
    prior: GaussianPrior | None = None,
    name: str = "linear",
    linear_info: LinearModelInfo | None = None,
) -> SystemModel:
    """Assemble a :class:`SystemModel` from linear conditional coefficients."""
    if prior is None:
        prior = default_prior(spec.profile, spec.state_dim)
    trans_logpdf, meas_logpdf, profile = _linear_logdensities(spec)
    if linear_info is None and spec.profile.uncorrelated:
        linear_info = LinearModelInfo(
            transition=np.asarray(spec.state_coeffs[0], dtype=float),
            measurement=np.asarray(spec.meas_state_coeffs[0], dtype=float),
            process_marginal=np.asarray(spec.process_cov, dtype=float),
            measurement_marginal=np.asarray(spec.meas_cov, dtype=float),
            cross_lag1=None,
        )
    b_grid = linear_transition_blocks(spec)
    c_grid = linear_measurement_blocks(spec)
    return SystemModel(
        name=name,
        state_dim=spec.state_dim,
        meas_dim=spec.meas_dim,
        profile=profile,
        prior=prior,
        trans_logpdf=trans_logpdf,
        meas_logpdf=meas_logpdf,
        simulate=_linear_simulator(spec, prior),
        analytic_b=lambda k: b_grid.copy(),
        analytic_c=lambda k: c_grid.copy(),
        linear=linear_info,
    )


# ---------------------------------------------------------------------------
# Configuration ingestion
# ---------------------------------------------------------------------------

_LAG_KEYS = {"l1", "l2", "l3", "l4"}


def _require_keys(obj: dict, allowed: set[str], path: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{path}: unknown field(s) {sorted(unknown)!r}")


def _as_matrix(value, rows: int, cols: int, path: str) -> Array:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{path}: expected a {rows}x{cols} matrix of numbers")
    if arr.shape == (rows * cols,):
        arr = arr.reshape(rows, cols)
    if arr.shape != (rows, cols):
        raise ConfigError(f"{path}: expected a {rows}x{cols} matrix (row-major)")
    return arr


def _parse_lags(obj, path: str) -> CorrelationProfile:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object with keys l1..l4")
    _require_keys(obj, _LAG_KEYS, path)
    values = {}
    for key in sorted(_LAG_KEYS):
        raw = obj.get(key, 0)
        if not isinstance(raw, int) or isinstance(raw, bool):
            raise ConfigError(f"{path}.{key}: expected an integer")
        values[key] = raw
    return CorrelationProfile(**values)


def _parse_prior(obj, profile: CorrelationProfile, state_dim: int, path: str) -> GaussianPrior:
    window = required_prior_window(profile)
    _require_keys(obj, {"mean", "cov"}, path)
    mean = np.asarray(obj.get("mean", np.zeros(state_dim)), dtype=float)
    if mean.shape != (state_dim,):
        raise ConfigError(f"{path}.mean: expected {state_dim} entries")
    cov = _as_matrix(obj["cov"], state_dim, state_dim, f"{path}.cov") if "cov" in obj \
        else None
    return default_prior(profile, state_dim, mean=mean, cov=cov)


def model_from_config(config: dict) -> SystemModel:
    """Build a model from a parsed JSON configuration object."""
    from . import examples  # deferred: examples imports this module

    if not isinstance(config, dict):
        raise ConfigError("model: expected an object")
    kind = config.get("kind")
    if kind is None:
        raise ConfigError("model.kind: required")

    if kind == "builtin_example1":
        _require_keys(config, {"kind", "ma_coeff"}, "model")
        ma = config.get("ma_coeff", 0.2)
        if (not isinstance(ma, (int, float)) or isinstance(ma, bool)
                or not abs(ma) <= examples.MA_COEFF_MAX):
            raise ConfigError(
                "model.ma_coeff: expected a finite number with "
                f"|ma_coeff| <= {examples.MA_COEFF_MAX!r}, got {ma!r}"
            )
        return examples.build_example1(ma_coeff=float(ma))
    if kind == "builtin_example2":
        _require_keys(config, {"kind"}, "model")
        return examples.build_example2()
    if kind == "custom":
        _require_keys(config, {"kind", "factory"}, "model")
        factory_path = config.get("factory")
        if not isinstance(factory_path, str) or ":" not in factory_path:
            raise ConfigError("model.factory: expected 'package.module:callable'")
        mod_name, attr = factory_path.split(":", 1)
        try:
            factory = getattr(importlib.import_module(mod_name), attr)
        except (ImportError, AttributeError) as exc:
            raise ModelBuildError(f"cannot import model factory {factory_path!r}: {exc}")
        model = factory()
        if not isinstance(model, SystemModel):
            raise ModelBuildError("custom factory did not return a SystemModel")
        return model
    if kind != "linear_gaussian_ma":
        raise ConfigError(f"model.kind: unknown kind {kind!r}")

    allowed = {
        "kind", "state_dim", "meas_dim", "lags",
        "transition_coeffs", "transition_meas_coeffs", "process_cov",
        "measurement_state_coeffs", "measurement_meas_coeffs", "measurement_cov",
        "prior",
    }
    _require_keys(config, allowed, "model")
    for key in ("state_dim", "meas_dim", "lags", "transition_coeffs",
                "process_cov", "measurement_state_coeffs", "measurement_cov"):
        if key not in config:
            raise ConfigError(f"model.{key}: required for kind linear_gaussian_ma")
    r = config["state_dim"]
    n = config["meas_dim"]
    if not isinstance(r, int) or r < 1 or not isinstance(n, int) or n < 1:
        raise ConfigError("model.state_dim / model.meas_dim: expected positive integers")
    profile = _parse_lags(config["lags"], "model.lags")

    def matrices(key, count, rows, cols, required):
        raw = config.get(key, [])
        if required and len(raw) != count:
            raise ConfigError(f"model.{key}: expected {count} matrices")
        if not required and raw and len(raw) != count:
            raise ConfigError(f"model.{key}: expected {count} matrices")
        return tuple(
            _as_matrix(m, rows, cols, f"model.{key}[{i}]") for i, m in enumerate(raw)
        )

    spec = LinearConditionalSpec(
        profile=profile,
        state_coeffs=matrices("transition_coeffs", profile.l2_eff, r, r, True),
        trans_meas_coeffs=matrices("transition_meas_coeffs", profile.l4, r, n,
                                   profile.l4 > 0),
        process_cov=_as_matrix(config["process_cov"], r, r, "model.process_cov"),
        meas_state_coeffs=matrices("measurement_state_coeffs", profile.l3_eff, n, r, True),
        meas_meas_coeffs=matrices("measurement_meas_coeffs", profile.l1, n, n,
                                  profile.l1 > 0),
        meas_cov=_as_matrix(config["measurement_cov"], n, n, "model.measurement_cov"),
    )
    prior = None
    if "prior" in config:
        prior = _parse_prior(config["prior"], profile, r, "model.prior")
    return build_linear_model(spec, prior=prior, name="linear_gaussian_ma")
