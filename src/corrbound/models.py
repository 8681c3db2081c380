"""Dynamic-system contract consumed by the bound machinery.

A :class:`SystemModel` supplies, for a fixed correlation profile:

* conditional log-densities of the transition and measurement factors,
* a vectorized trajectory sampler (used for Monte-Carlo expectations) and,
  for models with a measurement Jacobian, a states-only sampler, both
  called concurrently from worker threads,
* a Gaussian prior over the initial window of states,
* optionally time-invariant closed-form curvature blocks and a measurement
  Jacobian.

The log-density evaluators take the factor's state arguments explicitly so
they can be differentiated block by block; any residual terms that the
conditional means carry (realized noise history) arrive as a precomputed
shift vector per sampled trajectory and contribute nothing to state
derivatives.  Every argument leads with a sample axis and the result holds
one value per sample, so one call evaluates a whole sampling chunk.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import ConfigError, InvariantViolationError, ModelBuildError, require_int
from .linalg import psd_inverse, symmetrize
from .profiles import CorrelationProfile, required_prior_window

Array = np.ndarray


def _read_only(grid: Array) -> Array:
    grid.setflags(write=False)
    return grid


def _require_shape(grid: Array, size: int, block_dim: int, what: str) -> None:
    n = size * block_dim
    if grid.shape != (n, n):
        raise ModelBuildError(
            f"{what}: expected a {size}x{size} grid of {block_dim}-blocks "
            f"({n}x{n}), got shape {grid.shape}"
        )


def _require_finite(grid: Array, what: str) -> None:
    if not np.all(np.isfinite(grid)):
        raise InvariantViolationError(f"{what} contains non-finite entries")


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

    @cached_property
    def _cholesky(self) -> list[Array]:
        """Lower Cholesky factor of each window covariance, formed on the
        first draw, so a covariance that is not positive definite fails
        there; a failed factorization is not cached."""
        return [np.linalg.cholesky(symmetrize(cov)) for cov in self.covariances]

    def sample(self, count: int, rng: np.random.Generator) -> Array:
        out = np.empty((count, self.window_len, self.state_dim))
        for j, chol in enumerate(self._cholesky):
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
    ``meas_shift[k]`` the one for ``z[k+1]``.  The Jacobian curvature path
    reads states only and takes them from :attr:`SystemModel.sample_states`,
    not from a batch.
    """

    states: Array
    measurements: Array
    trans_shift: Array
    meas_shift: Array


# Every argument leads with the sample axis n: (x_next (n, r), x_hist (n, l2', r)
# newest first, z_hist (n, l4, meas_dim) newest first, shift (n, r)) -> (n,),
# and the measurement analog with z_next, l3' states and l1 measurements.
LogDensity = Callable[[Array, Array, Array, Array], Array]
# The generator is a forward reference: evaluating it would import
# numpy.random, which only a run that samples needs.
Simulator = Callable[[int, int, "np.random.Generator"], TrajectoryBatch]
StateSampler = Callable[[int, int, "np.random.Generator", Array | None], Array]


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
    """One dynamic system with a fixed correlation profile.

    ``simulate(horizon, count, rng)`` returns a full :class:`TrajectoryBatch`.
    The Jacobian curvature path (``monte_carlo`` mode with a
    ``meas_jacobian``) reads two fields in layouts of its own, both checked:

    * ``sample_states(horizon, count, rng, out=None)``, which only models
      with a ``meas_jacobian`` need, returns the states alone as one
      time-major array ``(horizon + 1, count, state_dim)``: the values that
      ``simulate(horizon, count, rng).states`` holds at ``[:, t]`` for the
      same generator state, drawn without measurements or shifts.  Given
      ``out``, an array of that shape, it writes the states there and
      returns ``out``.  The caller owns the states and may overwrite them.
    * ``meas_jacobian(states)`` takes ``(n, state_dim)`` states and returns
      the Jacobians entry-major, ``(meas_dim, state_dim, n)``.

    Every model callable may run on worker threads, concurrently with
    itself and the others: the Jacobian path calls ``sample_states``,
    ``singular_states`` and ``meas_jacobian`` once per sample block of
    :data:`corrbound.blocks.BLOCK_SIZE`, and finite-difference Monte Carlo
    calls ``simulate`` and the log-densities once per chunk of
    :data:`corrbound.blocks.CHUNK_SIZE`.  So none of them may share mutable
    scratch.  ``simulate``'s batch is checked: a :class:`TrajectoryBatch`
    whose fields are ``(count, horizon + 1, dim)``, ``dim`` the state or
    the measurement dimension.

    The array fields are checked once, here, and stored as read-only float
    copies, so the caller's arrays stay writable:

    * ``analytic_b`` and ``analytic_c``, the closed-form transition and
      measurement curvature grids, time-invariant (one grid serves every
      time), shaped as in :func:`corrbound.blocks.factor_frame`.  A wrong
      shape, or a value that is not a numeric array, is a
      :class:`ModelBuildError`; a non-finite entry an
      :class:`InvariantViolationError`.
    * ``meas_noise_information``, the ``(meas_dim, meas_dim)`` information
      of the measurement noise, stored symmetrized; a wrong shape or a
      non-finite entry is a :class:`ModelBuildError`.
    * the arrays of the ``linear`` view and the ``ar_model`` stand-in, when
      present, shaped as their fields say; a value that is not a numeric
      array, a wrong shape or a non-finite entry is a
      :class:`ModelBuildError` naming the field (``linear.transition``, say).
    """

    name: str
    state_dim: int
    meas_dim: int
    profile: CorrelationProfile
    prior: GaussianPrior
    trans_logpdf: LogDensity
    meas_logpdf: LogDensity
    simulate: Simulator
    analytic_b: Array | None = None
    analytic_c: Array | None = None
    meas_jacobian: Callable[[Array], Array] | None = None
    meas_noise_information: Array | None = None
    sample_states: StateSampler | None = None
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
        r = self.state_dim
        for field, size, what in (("analytic_b", self.profile.l2_eff + 1, "transition blocks"),
                                  ("analytic_c", self.profile.l3_eff, "measurement blocks")):
            if getattr(self, field) is not None:
                grid = self._float_array(field, getattr(self, field))
                label = f"model '{self.name}': {field} ({what})"
                _require_shape(grid, size, r, label)
                _require_finite(grid, label)
                object.__setattr__(self, field, _read_only(grid))
        if self.meas_noise_information is not None:
            object.__setattr__(self, "meas_noise_information", self._checked_array(
                "meas_noise_information", self.meas_noise_information,
                "meas_dim", "meas_dim", symmetric=True))
        rr, nr, nn = ("state_dim",) * 2, ("meas_dim", "state_dim"), ("meas_dim",) * 2
        views = {"linear": {"transition": rr, "measurement": nr, "process_marginal": rr,
                            "measurement_marginal": nn, "cross_lag1": nr},
                 "ar_model": {"process_white_cov": rr, "meas_white_cov": nn}}
        for view, fields in views.items():
            value = getattr(self, view)
            if value is not None:
                object.__setattr__(self, view, replace(value, **{
                    field: self._checked_array(f"{view}.{field}", getattr(value, field), *dims)
                    for field, dims in fields.items() if getattr(value, field) is not None
                }))

    def _float_array(self, field: str, value) -> Array:
        """A float copy of ``value``, the array in ``field``."""
        try:
            kind = np.asarray(value).dtype.kind
        except ValueError:  # a ragged nesting of sequences
            kind = "O"
        if kind not in "iuf":
            raise ModelBuildError(
                f"model '{self.name}': {field}: expected a numeric array, "
                f"got {type(value).__name__}"
            )
        return np.array(value, dtype=float)

    def _checked_array(self, field: str, value, rows: str, cols: str,
                       symmetric: bool = False) -> Array:
        """A read-only float copy of ``value``, the array in ``field``, checked to
        be ``(rows, cols)`` and finite (once symmetrized, if ``symmetric``)."""
        arr = self._float_array(field, value)
        shape = (getattr(self, rows), getattr(self, cols))
        if arr.shape != shape:
            raise ModelBuildError(
                f"model '{self.name}': {field}: expected shape ({rows}, {cols}) = "
                f"{shape}, got {arr.shape}"
            )
        if symmetric:
            arr = symmetrize(arr)
        if not np.all(np.isfinite(arr)):
            raise ModelBuildError(f"model '{self.name}': {field} contains non-finite entries")
        return _read_only(arr)

    @property
    def start_time(self) -> int:
        """First time index at which the factor conditionals are fully defined."""
        return self.prior.window_len - 1


# ---------------------------------------------------------------------------
# Linear conditional-coefficient family
# ---------------------------------------------------------------------------


def _require_symmetric(cov: Array, path: str, error: type[Exception]) -> None:
    """Raise ``error`` naming ``path`` when an entry of the square ``cov``
    is more than 1e-12 of the largest entry away from its mirror: a
    covariance is rejected, not averaged with its transpose."""
    gap = float(np.max(np.abs(cov - cov.T)))
    if gap > 1e-12 * np.max(np.abs(cov)):
        raise error(f"{path}: expected a symmetric matrix, but an entry "
                    f"differs from its mirror by {gap!r}")


@dataclass(frozen=True)
class LinearConditionalSpec:
    """Linear-Gaussian conditionals written directly in factorized form.

    Transition:  x[k+1] = sum_i F_i x[k-i] + sum_j G_j z[k-j] + w,  w ~ N(0, Q)
    Measurement: z[k+1] = sum_i H_i x[k+1-i] + sum_j L_j z[k-j] + e,  e ~ N(0, R)

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

    def __post_init__(self):
        p = self.profile
        for coeffs, count, what in (
                (self.state_coeffs, p.l2_eff, "transition state"),
                (self.meas_state_coeffs, p.l3_eff, "measurement state"),
                (self.trans_meas_coeffs, p.l4, "transition measurement"),
                (self.meas_meas_coeffs, p.l1, "measurement feedback")):
            if len(coeffs) != count:
                raise ModelBuildError(
                    f"expected {count} {what} coefficients, got {len(coeffs)}")
        for field in ("process_cov", "meas_cov"):
            cov = np.asarray(getattr(self, field), dtype=float)
            if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
                raise ModelBuildError(f"{field}: expected a square matrix, got shape {cov.shape}")
            _require_symmetric(cov, field, ModelBuildError)

    @property
    def state_dim(self) -> int:
        return np.asarray(self.state_coeffs[0]).shape[0]

    @property
    def meas_dim(self) -> int:
        return np.asarray(self.meas_cov).shape[0]


def _gaussian_logpdf(residual: Array, cov_inv: Array, log_norm: float) -> Array:
    """Gaussian log-density of each row of the ``(n, dim)`` ``residual``."""
    return log_norm - 0.5 * np.sum((residual @ cov_inv) * residual, axis=1)


def _linear_factor(state_coeffs, meas_coeffs, cov, context: str, next_state: bool
                   ) -> tuple[LogDensity, Array]:
    """Log-density and curvature grid of one linear-Gaussian factor.

    The factor's value is the shift plus ``state_coeffs[i]`` applied to the
    ``i``-th state of its newest-first history and ``meas_coeffs[j]`` to the
    ``j``-th measurement, plus noise of covariance ``cov`` (``context``
    names it in errors); the value is the state ``x[k+1]`` if
    ``next_state``, else a measurement.  The grid's slots are those of
    :func:`corrbound.blocks.factor_frame`, and its block ``(i, j)`` is
    ``g_i.T @ inv(cov) @ g_j``, with ``g_i`` the gradient of the residual in
    slot ``i``.
    """
    cov = np.asarray(cov, dtype=float)
    cov_inv = psd_inverse(cov, context=context)
    log_norm = -0.5 * (cov.shape[0] * np.log(2.0 * np.pi) + np.linalg.slogdet(cov)[1])
    state_coeffs = [np.asarray(a, dtype=float) for a in state_coeffs]
    meas_coeffs = [np.asarray(b, dtype=float) for b in meas_coeffs]

    def logpdf(nxt, x_hist, z_hist, shift):
        # The residual is the value less its conditional mean.
        mean = shift
        for i, a_i in enumerate(state_coeffs):
            mean = mean + x_hist[:, i] @ a_i.T
        for j, b_j in enumerate(meas_coeffs):
            mean = mean + z_hist[:, j] @ b_j.T
        return _gaussian_logpdf(nxt - mean, cov_inv, log_norm)

    grads = [-a for a in reversed(state_coeffs)] + ([np.eye(len(cov))] if next_state else [])
    return logpdf, np.block([[gi.T @ cov_inv @ gj for gj in grads] for gi in grads])


def _linear_simulator(spec: LinearConditionalSpec, prior: GaussianPrior) -> Simulator:
    r = spec.state_dim
    n = spec.meas_dim
    w = prior.window_len
    chol_q = np.linalg.cholesky(symmetrize(np.asarray(spec.process_cov, dtype=float)))
    chol_r = np.linalg.cholesky(symmetrize(np.asarray(spec.meas_cov, dtype=float)))

    def simulate(horizon: int, count: int, rng: np.random.Generator) -> TrajectoryBatch:
        length = horizon + 1
        states = np.zeros((count, length, r))
        meas = np.zeros((count, length, n))
        states[:, : min(w, length)] = prior.sample(count, rng)[:, :length]
        for k in range(length):
            if k >= w:
                mean = np.zeros((count, r))
                for i, f_i in enumerate(spec.state_coeffs):
                    mean += states[:, k - 1 - i] @ np.asarray(f_i).T
                for j, g_j in enumerate(spec.trans_meas_coeffs):
                    mean += meas[:, k - 1 - j] @ np.asarray(g_j).T
                states[:, k] = mean + rng.standard_normal((count, r)) @ chol_q.T
            mean_z = np.zeros((count, n))
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
    trans_logpdf, analytic_b = _linear_factor(
        spec.state_coeffs, spec.trans_meas_coeffs, spec.process_cov,
        "process covariance", next_state=True)
    meas_logpdf, analytic_c = _linear_factor(
        spec.meas_state_coeffs, spec.meas_meas_coeffs, spec.meas_cov,
        "measurement covariance", next_state=False)
    if linear_info is None and spec.profile.uncorrelated:
        linear_info = LinearModelInfo(
            transition=np.asarray(spec.state_coeffs[0], dtype=float),
            measurement=np.asarray(spec.meas_state_coeffs[0], dtype=float),
            process_marginal=np.asarray(spec.process_cov, dtype=float),
            measurement_marginal=np.asarray(spec.meas_cov, dtype=float),
            cross_lag1=None,
        )
    return SystemModel(
        name=name,
        state_dim=spec.state_dim,
        meas_dim=spec.meas_dim,
        profile=spec.profile,
        prior=prior,
        trans_logpdf=trans_logpdf,
        meas_logpdf=meas_logpdf,
        simulate=_linear_simulator(spec, prior),
        analytic_b=analytic_b,
        analytic_c=analytic_c,
        linear=linear_info,
    )


# ---------------------------------------------------------------------------
# Configuration ingestion
# ---------------------------------------------------------------------------

_LAG_KEYS = {"l1", "l2", "l3", "l4"}


def require_keys(obj, allowed: set[str], path: str) -> None:
    """Reject an ``obj`` at config path ``path`` that is not an object or
    has a key outside ``allowed``, with a :class:`ConfigError`."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
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


def _as_cov(value, dim: int, path: str) -> Array:
    """A ``dim x dim`` covariance at config path ``path``, symmetric as
    :func:`_require_symmetric` checks."""
    arr = _as_matrix(value, dim, dim, path)
    _require_symmetric(arr, path, ConfigError)
    return arr


def _parse_lags(obj, path: str) -> CorrelationProfile:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object with keys l1..l4")
    require_keys(obj, _LAG_KEYS, path)
    values = {key: obj.get(key, 0) for key in sorted(_LAG_KEYS)}
    for key, value in values.items():
        require_int(value, f"{path}.{key}", 0)
    return CorrelationProfile(**values)


def _parse_prior(obj, profile: CorrelationProfile, state_dim: int, path: str) -> GaussianPrior:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object with keys mean, cov")
    require_keys(obj, {"mean", "cov"}, path)
    mean = _as_matrix(obj.get("mean", [0.0] * state_dim), 1, state_dim, f"{path}.mean")[0]
    cov = _as_cov(obj["cov"], state_dim, f"{path}.cov") if "cov" in obj else None
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
        require_keys(config, {"kind", "ma_coeff"}, "model")
        ma = config.get("ma_coeff", 0.2)
        if (not isinstance(ma, (int, float)) or isinstance(ma, bool)
                or not abs(ma) <= examples.MA_COEFF_MAX):
            raise ConfigError(
                "model.ma_coeff: expected a finite number with "
                f"|ma_coeff| <= {examples.MA_COEFF_MAX!r}, got {ma!r}"
            )
        return examples.build_example1(ma_coeff=float(ma))
    if kind == "builtin_example2":
        require_keys(config, {"kind"}, "model")
        return examples.build_example2()
    if kind == "custom":
        require_keys(config, {"kind", "factory"}, "model")
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
    require_keys(config, allowed, "model")
    for key in ("state_dim", "meas_dim", "lags", "transition_coeffs",
                "process_cov", "measurement_state_coeffs", "measurement_cov"):
        if key not in config:
            raise ConfigError(f"model.{key}: required for kind linear_gaussian_ma")
    for key in ("state_dim", "meas_dim"):
        require_int(config[key], f"model.{key}", 1)
    r = config["state_dim"]
    n = config["meas_dim"]
    profile = _parse_lags(config["lags"], "model.lags")

    def matrices(key, count, rows, cols, required):
        raw = config.get(key, [])
        if not isinstance(raw, list) or (required or raw) and len(raw) != count:
            raise ConfigError(f"model.{key}: expected a list of {count} matrices")
        return tuple(
            _as_matrix(m, rows, cols, f"model.{key}[{i}]") for i, m in enumerate(raw)
        )

    spec = LinearConditionalSpec(
        profile=profile,
        state_coeffs=matrices("transition_coeffs", profile.l2_eff, r, r, True),
        trans_meas_coeffs=matrices("transition_meas_coeffs", profile.l4, r, n,
                                   profile.l4 > 0),
        process_cov=_as_cov(config["process_cov"], r, "model.process_cov"),
        meas_state_coeffs=matrices("measurement_state_coeffs", profile.l3_eff, n, r, True),
        meas_meas_coeffs=matrices("measurement_meas_coeffs", profile.l1, n, n,
                                  profile.l1 > 0),
        meas_cov=_as_cov(config["measurement_cov"], n, "model.measurement_cov"),
    )
    prior = None
    if "prior" in config:
        prior = _parse_prior(config["prior"], profile, r, "model.prior")
    return build_linear_model(spec, prior=prior, name="linear_gaussian_ma")
