import numpy as np
import pytest

import corrbound as cb
from corrbound.errors import ConfigError, ModelBuildError
from corrbound.linalg import finite_difference_hessian
from conftest import blocks_at, random_linear_model, simple_scalar_model


def test_prior_validation():
    with pytest.raises(ModelBuildError):
        cb.GaussianPrior(means=np.zeros(3), covariances=np.zeros((3, 1, 1)))
    with pytest.raises(ModelBuildError):
        cb.GaussianPrior(means=np.zeros((2, 2)), covariances=np.zeros((2, 3, 3)))


def test_prior_information_block_diagonal():
    prior = cb.GaussianPrior(
        means=np.zeros((2, 1)),
        covariances=np.array([[[2.0]], [[4.0]]]),
    )
    info = prior.information()
    assert np.allclose(info, np.diag([0.5, 0.25]))


def test_prior_factors_each_covariance_once(monkeypatch):
    # The factors are formed on the first draw and reused; a covariance
    # that is not positive definite fails on every draw, as it is not cached.
    calls = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(1) or cholesky(a))
    prior = cb.GaussianPrior(means=np.zeros((2, 2)), covariances=np.array([np.eye(2)] * 2))
    first = prior.sample(4, np.random.default_rng(0))
    second = prior.sample(4, np.random.default_rng(0))
    assert len(calls) == 2 and np.array_equal(first, second)
    bad = cb.GaussianPrior(means=np.zeros((1, 2)), covariances=-np.eye(2)[None])
    for _ in range(2):
        with pytest.raises(np.linalg.LinAlgError):
            bad.sample(4, np.random.default_rng(0))


def test_default_prior_scales():
    prior = cb.default_prior(cb.CorrelationProfile(0, 2, 0, 0), 4)
    assert prior.window_len == 3
    assert np.allclose(prior.covariances[0], np.diag([100.0, 10.0, 100.0, 10.0]))


def test_model_window_size_enforced():
    model = simple_scalar_model()
    import dataclasses
    bad_prior = cb.GaussianPrior(means=np.zeros((2, 1)), covariances=np.ones((2, 1, 1)))
    with pytest.raises(ModelBuildError):
        dataclasses.replace(model, prior=bad_prior)
    wide_prior = cb.GaussianPrior(means=np.zeros((1, 2)), covariances=np.eye(2)[None])
    with pytest.raises(ModelBuildError, match="prior state dim 2 != state_dim 1$"):
        dataclasses.replace(model, prior=wide_prior)


def test_sampler_dimensions():
    for profile, seed in [((0, 0, 0, 0), 1), ((1, 1, 2, 1), 2), ((0, 2, 0, 0), 3)]:
        model = random_linear_model(cb.CorrelationProfile(*profile), 3, 2, seed)
        batch = model.simulate(7, 11, np.random.default_rng(0))
        assert batch.states.shape == (11, 8, 3)
        assert batch.measurements.shape == (11, 8, 2)
        assert np.all(np.isfinite(batch.states))
        assert np.all(np.isfinite(batch.measurements))


def test_sampler_deterministic_given_seed(example2):
    a = example2.simulate(5, 16, np.random.default_rng(42))
    b = example2.simulate(5, 16, np.random.default_rng(42))
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.measurements, b.measurements)


def _fd_rel_dev(f, stacked0, ref):
    """Largest deviation of the mean central-difference curvature of ``f``
    over the rows of ``stacked0`` from ``ref``, relative to ``ref``'s largest
    entry; one batched call covers every row."""
    fd = -finite_difference_hessian(f, stacked0) / len(stacked0)
    return np.max(np.abs(fd - ref)) / np.max(np.abs(ref))


def test_fd_matches_analytic_transition_example1(example1):
    est = cb.ExpectationEstimator()
    ref, _ = blocks_at(example1, 2, est)
    batch = example1.simulate(8, 10, np.random.default_rng(0))
    k = 3
    z_hist = batch.measurements[:, k][:, None]
    shift = batch.trans_shift[:, k]

    def f(stk):
        return example1.trans_logpdf(stk[:, 2:4], stk[:, None, 0:2], z_hist, shift)

    stk0 = np.concatenate([batch.states[:, k], batch.states[:, k + 1]], axis=1)
    assert _fd_rel_dev(f, stk0, ref) < 1e-5


def test_fd_matches_analytic_measurement_example1(example1):
    est = cb.ExpectationEstimator()
    _, ref = blocks_at(example1, 2, est)
    batch = example1.simulate(8, 10, np.random.default_rng(1))
    k = 3
    z_next = batch.measurements[:, k + 1]
    z_hist = batch.measurements[:, k][:, None]
    shift = batch.meas_shift[:, k]

    def f(stk):
        return example1.meas_logpdf(z_next, stk.reshape(-1, 2, 2)[:, ::-1], z_hist, shift)

    stk0 = np.concatenate([batch.states[:, k], batch.states[:, k + 1]], axis=1)
    assert _fd_rel_dev(f, stk0, ref) < 1e-5


def _planar_transition_fd(model, batch, k):
    """The transition log-density of a planar model as a function of the
    stacked slot states ``x[k-1], x[k], x[k+1]``, and those states."""
    shift = batch.trans_shift[:, k]
    no_meas = np.zeros((len(shift), 0, 2))

    def f(stk):
        return model.trans_logpdf(stk[:, 8:12], stk[:, :8].reshape(-1, 2, 4)[:, ::-1],
                                  no_meas, shift)

    return f, batch.states[:, k - 1:k + 2].reshape(len(shift), -1)


def test_fd_matches_analytic_transition_planar_cv():
    # Moderate coordinate scale: at the default 1e4-meter geometry the
    # spec'd relative step drives the central differences to their float64
    # cancellation floor (~1e-4), so the tight agreement is checked here
    # and only a loose sanity bound at the default scale below.
    profile = cb.CorrelationProfile(0, 2, 0, 0)
    from corrbound.examples import planar_cv_matrices
    f_mat, _ = planar_cv_matrices()
    prior = cb.default_prior(profile, 4, mean=np.array([100.0, 5.0, 80.0, 4.0]),
                             transition=f_mat)
    model = cb.build_example2(prior=prior)
    batch = model.simulate(8, 10, np.random.default_rng(2))
    assert _fd_rel_dev(*_planar_transition_fd(model, batch, 3), model.analytic_b) < 1e-5


def test_fd_default_scale_sanity(example2):
    batch = example2.simulate(6, 3, np.random.default_rng(3))
    assert _fd_rel_dev(*_planar_transition_fd(example2, batch, 3), example2.analytic_b) < 1e-3


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def _linear_config():
    return {
        "kind": "linear_gaussian_ma",
        "state_dim": 1,
        "meas_dim": 1,
        "lags": {"l1": 0, "l2": 0, "l3": 0, "l4": 0},
        "transition_coeffs": [[[1.0]]],
        "process_cov": [[1.0]],
        "measurement_state_coeffs": [[[1.0]]],
        "measurement_cov": [[1.0]],
        "prior": {"mean": [0.0], "cov": [[1.0]]},
    }


def test_model_from_config_linear_roundtrip():
    model = cb.model_from_config(_linear_config())
    trace = cb.run(model, cb.ExpectationEstimator(), 2)
    assert abs(trace.info_at(2)[0, 0] - 1.6) < 1e-12


def test_model_from_config_rejects_unknown_fields():
    config = _linear_config()
    config["lags"]["l5"] = 1
    with pytest.raises(ConfigError, match="l5"):
        cb.model_from_config(config)
    config = _linear_config()
    config["unexpected"] = True
    with pytest.raises(ConfigError, match="unexpected"):
        cb.model_from_config(config)


def test_model_from_config_requires_fields():
    config = _linear_config()
    del config["process_cov"]
    with pytest.raises(ConfigError, match="process_cov"):
        cb.model_from_config(config)


def test_model_from_config_builtins():
    m1 = cb.model_from_config({"kind": "builtin_example1"})
    assert m1.name == "example1"
    m2 = cb.model_from_config({"kind": "builtin_example2"})
    assert m2.name == "example2"
    with pytest.raises(ConfigError):
        cb.model_from_config({"kind": "builtin_example2", "extra": 1})
    with pytest.raises(ConfigError):
        cb.model_from_config({"kind": "no_such_kind"})


def test_model_from_config_custom_factory():
    model = cb.model_from_config(
        {"kind": "custom", "factory": "conftest:simple_scalar_model"}
    )
    assert model.name == "scalar_random_walk"
    with pytest.raises(ModelBuildError):
        cb.model_from_config({"kind": "custom", "factory": "corrbound.examples:missing"})
    with pytest.raises(ConfigError):
        cb.model_from_config({"kind": "custom", "factory": "not-a-path"})


def _spec_2d(process_cov, meas_cov=np.eye(2)) -> cb.LinearConditionalSpec:
    return cb.LinearConditionalSpec(
        profile=cb.CorrelationProfile(), state_coeffs=(np.eye(2),),
        process_cov=np.asarray(process_cov, dtype=float),
        meas_state_coeffs=(np.eye(2),), meas_cov=np.asarray(meas_cov, dtype=float))


@pytest.mark.parametrize("field", ["process_cov", "meas_cov"])
def test_spec_rejects_asymmetric_covariance(field):
    # Averaged with its mirror, this would be [[1, 0.25], [0.25, 1]].
    asymmetric = [[1.0, 0.5], [0.0, 1.0]]
    covs = {"process_cov": np.eye(2), "meas_cov": np.eye(2), field: asymmetric}
    with pytest.raises(ModelBuildError, match=rf"^{field}: expected a symmetric matrix, "
                                              r"but an entry differs from its mirror by 0\.5$"):
        _spec_2d(**covs)
    # Its symmetric mean builds, as does a gap within 1e-12 of the largest entry.
    _spec_2d(**{**covs, field: [[1.0, 0.25], [0.25, 1.0]]})
    _spec_2d(**{**covs, field: [[1.0, 0.25], [0.25 + 5e-13, 1.0]]})


def test_spec_rejects_non_square_covariance():
    with pytest.raises(ModelBuildError, match=r"^process_cov: expected a square matrix"):
        _spec_2d(np.ones((2, 3)))


def test_spec_rejects_a_wrong_coefficient_count():
    # Lags all zero: one transition state coefficient, l2' = 1.
    with pytest.raises(ModelBuildError,
                       match="^expected 1 transition state coefficients, got 2$"):
        cb.LinearConditionalSpec(
            profile=cb.CorrelationProfile(), state_coeffs=(np.eye(2), np.eye(2)),
            process_cov=np.eye(2), meas_state_coeffs=(np.eye(2),), meas_cov=np.eye(2))
