import concurrent.futures
import dataclasses
import threading

import numpy as np
import pytest

import corrbound as cb
from corrbound import blocks as blocks_mod
from corrbound.blocks import (
    _PURPOSE_RESAMPLE,
    _PURPOSE_SAMPLE,
    BLOCK_SIZE,
    McReport,
    _resample_singular,
    _sampled_measurement_info,
    _split,
    _substream,
    factor_frame,
)
from corrbound.errors import ConfigError, InvariantViolationError, ModelBuildError
from corrbound.linalg import symmetrize
from conftest import (
    CASE_SPANNING_PROFILES,
    blocks_at,
    nonlinear_scalar_model,
    random_linear_model,
    random_spd,
    simple_scalar_model,
)
from reference_steps import block, fd_mc_grid_per_sample


def test_scalar_transition_block():
    # Random walk with unit process noise: curvature [[1, -1], [-1, 1]].
    b, _ = blocks_at(simple_scalar_model(), 0, cb.ExpectationEstimator())
    assert np.allclose(b, np.array([[1.0, -1.0], [-1.0, 1.0]]))


def test_scalar_measurement_block():
    _, c = blocks_at(simple_scalar_model(), 0, cb.ExpectationEstimator())
    assert np.allclose(c, np.array([[1.0]]))


def test_analytic_mode_requires_closed_form(example2, monkeypatch):
    # A closed-form-only run is a run without a seed; there is no mode for
    # it.  It refuses a factor without a closed form before any draw.
    with pytest.raises(ConfigError, match="^estimator.mode 'analytic' not one of"):
        cb.ExpectationEstimator(mode="analytic")
    draws = []
    for wrapper in ("_sample_states", "_simulate"):
        monkeypatch.setattr(blocks_mod, wrapper, lambda *a, **k: draws.append(a))
    with pytest.raises(ConfigError, match="^estimator.seed: .* measurement blocks"):
        blocks_at(example2, 2, cb.ExpectationEstimator())
    assert draws == []


# (mode, model) -> (transition source, measurement source, trajectory
# draws).  "analytic" is a closed-form-only run: monte_carlo without a seed.
# "fd_once" is one finite-difference Monte-Carlo evaluation at ``start``
# that serves every time, the cross-check of a closed form; "fd_each" one
# per time, for a factor without a closed form; "error" is a ConfigError
# naming estimator.seed, raised before any draw.  Every FD-MC grid of a
# provider comes from one draw, so a provider draws once for its FD-MC
# grids and once for its sampled ones.
RESOLVER_TABLE = {
    ("analytic", "example1"): ("closed", "closed", 0),
    ("analytic", "example2"): ("closed", "error", 0),
    ("analytic", "scalar"): ("closed", "closed", 0),
    ("analytic", "example2_no_jacobian"): ("closed", "error", 0),
    ("analytic", "nonlinear"): ("error", "error", 0),
    ("monte_carlo", "example1"): ("closed", "closed", 0),
    ("monte_carlo", "example2"): ("closed", "sampled", 1),
    ("monte_carlo", "scalar"): ("closed", "closed", 0),
    ("monte_carlo", "scalar_with_jacobian"): ("closed", "closed", 0),
    ("monte_carlo", "example2_no_jacobian"): ("closed", "fd_each", 1),
    ("monte_carlo", "example2_no_closed_b"): ("fd_each", "sampled", 2),
    ("monte_carlo", "nonlinear"): ("fd_each", "fd_each", 1),
    ("finite_difference_mc", "example1"): ("fd_once", "fd_once", 1),
    ("finite_difference_mc", "example2"): ("fd_once", "fd_each", 1),
    ("finite_difference_mc", "scalar"): ("fd_once", "fd_once", 1),
    ("finite_difference_mc", "scalar_with_jacobian"): ("fd_once", "fd_once", 1),
    ("finite_difference_mc", "example2_no_jacobian"): ("fd_once", "fd_each", 1),
    ("finite_difference_mc", "nonlinear"): ("fd_each", "fd_each", 1),
}


def _scalar_with_jacobian() -> cb.SystemModel:
    """The scalar random walk with a measurement Jacobian next to its
    closed forms.  It has no state sampler, so the Jacobian path would
    raise: the closed form must serve it."""
    return dataclasses.replace(simple_scalar_model(),
                               meas_jacobian=lambda x: np.ones((1, 1, len(x))),
                               meas_noise_information=np.eye(1))


RESOLVER_MODELS = {
    "example1": cb.build_example1,
    "example2": cb.build_example2,
    "scalar": simple_scalar_model,
    "scalar_with_jacobian": _scalar_with_jacobian,
    "example2_no_jacobian": lambda: dataclasses.replace(cb.build_example2(),
                                                        meas_jacobian=None),
    "example2_no_closed_b": lambda: dataclasses.replace(cb.build_example2(),
                                                        analytic_b=None),
    "nonlinear": nonlinear_scalar_model,
}


@pytest.mark.parametrize("mode, name", sorted(RESOLVER_TABLE))
def test_provider_resolver_table(monkeypatch, mode, name):
    model = RESOLVER_MODELS[name]()
    b_source, c_source, draws = RESOLVER_TABLE[mode, name]
    est = (cb.ExpectationEstimator(samples=3) if mode == "analytic"
           else cb.ExpectationEstimator(mode=mode, samples=3, seed=0))
    start = model.start_time
    times = (start, start + 1)
    if "error" in (b_source, c_source):
        what = "transition" if b_source == "error" else "measurement"
        drawn = []
        for wrapper in ("_sample_states", "_simulate"):
            monkeypatch.setattr(blocks_mod, wrapper, lambda *a, **k: drawn.append(a))
        with pytest.raises(ConfigError, match=f"^estimator.seed: .* {what} blocks"):
            cb.BlockProvider(model, est, start, start + 2)
        assert drawn == []
        return
    provider = cb.BlockProvider(model, est, start, start + 2)
    pairs = [provider.blocks(k) for k in times]
    (b0, c0), (b1, c1) = pairs

    assert (b0 is model.analytic_b) == (b_source == "closed")
    assert (c0 is model.analytic_c) == (c_source == "closed")
    once = ("closed", "fd_once")
    assert (b1 is b0) == (b_source in once)
    assert (c1 is c0) == (c_source in once)
    # Times with time-invariant grids share one pair object.
    assert (pairs[0] is pairs[1]) == (b_source in once and c_source in once)
    stderrs = [provider.measurement_stderr(k) for k in times]
    assert all((se is not None) == (c_source == "sampled") for se in stderrs)
    assert provider.report.samples == est.samples * draws


@pytest.mark.parametrize("mode, name, factor", [
    ("monte_carlo", "example2", "measurement"),
    ("finite_difference_mc", "example1", "transition"),
])
def test_sampled_factor_without_seed_is_config_error(monkeypatch, mode, name, factor):
    # The provider's source rule alone decides that a run samples, so it
    # alone asks for the seed, and it does so before a single draw.
    draws = []
    for wrapper in ("_sample_states", "_simulate"):
        monkeypatch.setattr(blocks_mod, wrapper, lambda *a, **k: draws.append(a))
    model = RESOLVER_MODELS[name]()
    est = cb.ExpectationEstimator(mode=mode, samples=3)
    with pytest.raises(ConfigError, match=f"^estimator.seed: .* {factor} blocks"):
        cb.BlockProvider(model, est, model.start_time, model.start_time + 2)
    assert draws == []


def test_closed_forms_need_no_seed(example1):
    # Under monte_carlo every factor with a closed form takes it, so a model
    # with both closed forms draws nothing and reads no seed.
    est = cb.ExpectationEstimator(mode="monte_carlo")
    assert est.seed is None
    provider = cb.BlockProvider(example1, est, example1.start_time, example1.start_time + 2)
    b, c = provider.blocks(example1.start_time)
    assert b is example1.analytic_b and c is example1.analytic_c
    assert provider.report.samples == 0


@pytest.mark.parametrize("name, per_time", [("example1", False), ("example2", True),
                                            ("example2_no_jacobian", True),
                                            ("nonlinear", True)])
def test_finite_difference_mc_simulates_once_per_chunk(name, per_time, monkeypatch):
    # One simulate call per chunk serves every FD-MC grid, up to the last
    # time that needs one: the first time plus one when every factor has a
    # closed form, else the provider's last time.
    model = RESOLVER_MODELS[name]()
    calls = []

    def recorded(horizon, count, rng):
        calls.append((horizon, count))
        return model.simulate(horizon, count, rng)

    monkeypatch.setattr(blocks_mod, "CHUNK_SIZE", 16)
    traced = dataclasses.replace(model, simulate=recorded)
    est = cb.ExpectationEstimator(mode="finite_difference_mc", samples=40, seed=2)
    start = model.start_time
    provider = cb.BlockProvider(traced, est, start, start + 4)
    horizon = start + 4 if per_time else start + 1
    assert calls == [(horizon, 16), (horizon, 16), (horizon, 8)]
    assert provider.report.samples == est.samples


@pytest.mark.parametrize("mode, seed", [
    pytest.param("monte_carlo", None, id="analytic"),
    pytest.param("monte_carlo", 2, id="monte_carlo"),
    pytest.param("finite_difference_mc", 2, id="finite_difference_mc"),
])
def test_provider_blocks_are_read_only_copies(example1, example2, mode, seed):
    # The model keeps read-only copies of the caller's closed forms, and
    # every provider of the model hands out those same arrays.
    b_grid = np.array(example1.analytic_b)
    c_grid = np.array(example1.analytic_c)
    model = example2 if seed is not None and mode == "monte_carlo" else dataclasses.replace(
        example1, analytic_b=b_grid, analytic_c=c_grid)
    start = model.start_time
    est = cb.ExpectationEstimator(mode=mode, samples=20, seed=seed)
    first, second = (cb.BlockProvider(model, est, start, start + 2) for _ in range(2))
    for k in (start, start + 1):
        for grid in first.blocks(k):
            with pytest.raises(ValueError, match="read-only"):
                grid[0, 0] = 1.0
    (b1, c1), (b2, c2) = first.blocks(start), second.blocks(start)
    assert (b1 is b2) == (mode != "finite_difference_mc")  # example2's b is closed form
    assert (c1 is c2) == (seed is None)
    assert b_grid.flags.writeable and c_grid.flags.writeable
    b_grid[0, 0] += 0.0  # the caller's own arrays stay writable


def test_analytic_blocks_are_psd(example1, analytic_est):
    for grid in blocks_at(example1, 2, analytic_est):
        eigs = np.linalg.eigvalsh(grid)
        assert eigs[0] >= -1e-10 * max(eigs[-1], 1.0)
        scale = max(float(np.max(np.abs(grid))), 1.0)
        assert np.max(np.abs(grid - grid.T)) <= 1e-12 * scale


def test_monte_carlo_matches_analytic_for_linear(example1):
    # Per-sample curvature of a linear-Gaussian factor is constant, so the
    # sample mean reproduces the closed form.
    est = cb.ExpectationEstimator(mode="monte_carlo", samples=100_000, seed=1)
    b_mc, _ = blocks_at(example1, 2, est)
    b, _ = blocks_at(example1, 2, cb.ExpectationEstimator())
    assert np.max(np.abs(b_mc - b)) / np.max(np.abs(b)) < 1e-2


def test_finite_difference_mc_matches_analytic(example1):
    est = cb.ExpectationEstimator(mode="finite_difference_mc", samples=40, seed=3)
    b_fd, c_fd = blocks_at(example1, 2, est)
    b, c = blocks_at(example1, 2, cb.ExpectationEstimator())
    assert np.max(np.abs(b_fd - b)) / np.max(np.abs(b)) < 1e-6
    assert np.max(np.abs(c_fd - c)) / np.max(np.abs(c)) < 1e-6


@pytest.mark.parametrize("lags", CASE_SPANNING_PROFILES)
def test_finite_difference_mc_matches_closed_forms_on_every_layout(lags):
    # A linear-Gaussian factor has the same curvature at every sample, so
    # the FD-MC mean is its closed form up to central-difference rounding,
    # at every slot count and measurement-history depth.
    model = random_linear_model(cb.CorrelationProfile(*lags), 3, 2, seed=sum(lags))
    est = cb.ExpectationEstimator(mode="finite_difference_mc", samples=200, seed=5)
    b_fd, c_fd = blocks_at(model, model.start_time, est)
    for fd, ref in ((b_fd, model.analytic_b), (c_fd, model.analytic_c)):
        assert np.max(np.abs(fd - ref)) / np.max(np.abs(ref)) < 1e-6


@pytest.mark.parametrize("lags", CASE_SPANNING_PROFILES)
def test_finite_difference_mc_without_closed_forms_matches_analytic_run(lags):
    # Stripped of its closed forms, a linear-Gaussian model gets an FD-MC
    # grid of each factor at every time, each its own array; the run then
    # matches the closed forms' run, so each time's grids land in that
    # time's frame slots, for every layout.
    model = random_linear_model(cb.CorrelationProfile(*lags), 2, 2, seed=100 + sum(lags))
    stripped = dataclasses.replace(model, analytic_b=None, analytic_c=None)
    est = cb.ExpectationEstimator(mode="finite_difference_mc", samples=20, seed=6)
    start, horizon = model.start_time, 4
    provider = cb.BlockProvider(stripped, est, start, start + horizon)
    grids = [provider.blocks(k) for k in range(start, start + horizon)]
    for i in (0, 1):
        assert len({id(pair[i]) for pair in grids}) == horizon
    fd = cb.run(stripped, est, horizon, provider=provider)
    exact = cb.run(model, cb.ExpectationEstimator(), horizon)
    for a, b in zip(fd.info[fd.index], exact.info[exact.index]):
        assert np.max(np.abs(a - b)) <= 1e-6 * np.max(np.abs(b))


@pytest.mark.parametrize("name", ["example1", "example2", "example2_no_jacobian"])
def test_finite_difference_mc_matches_per_sample_loop(name, monkeypatch):
    # Two chunks, so the chunk streams and their sum are covered too, and
    # the grids at the first and the last time of the shared draw.
    model = RESOLVER_MODELS[name]()
    monkeypatch.setattr(blocks_mod, "CHUNK_SIZE", 16)
    est = cb.ExpectationEstimator(mode="finite_difference_mc", samples=30, seed=4)
    start, stop = model.start_time, model.start_time + 3
    provider = cb.BlockProvider(model, est, start, stop)
    closed = (model.analytic_b, model.analytic_c)
    horizon = start + 1 if all(g is not None for g in closed) else stop
    for k in (start, stop - 1):
        for grid, transition, closed_form in zip(provider.blocks(k), (True, False), closed):
            at = start if closed_form is not None else k
            ref = fd_mc_grid_per_sample(model, start, horizon, at, est, transition)
            assert np.max(np.abs(grid - ref)) <= 1e-6 * np.max(np.abs(ref))


@pytest.mark.parametrize("mode", ["monte_carlo", "finite_difference_mc"])
def test_nonlinear_dynamics_sampled_at_every_time(mode):
    # Factors without closed forms are sampled over each time's own states:
    # the run matches a loop with a provider of its own per time within 2%
    # at 20k samples, where seeds spread by 0.3%.  One grid sampled at the
    # first time and used at every time reads 21% low from step 2 on.
    model = nonlinear_scalar_model()
    est = cb.ExpectationEstimator(mode=mode, samples=20_000, seed=0)
    start, horizon = model.start_time, 20
    bound = cb.run(model, est, horizon).component_bound_sqrt(0)
    carry, per_time = cb.init_state(model), []
    for k in range(start, start + horizon):
        b, c = cb.BlockProvider(model, est, k, k + 1).blocks(k)
        carry, info = cb.step(model.profile, carry, b, c)
        per_time.append(np.sqrt(1.0 / info[0, 0]))
    assert np.max(np.abs(bound / np.array(per_time) - 1.0)) < 0.02


def test_finite_difference_log_density_calls_do_not_grow_with_samples(example1):
    sizes = []

    def counted(logpdf):
        def call(*args):
            sizes.append(len(args[0]))
            return logpdf(*args)
        return call

    model = dataclasses.replace(example1, trans_logpdf=counted(example1.trans_logpdf),
                                meas_logpdf=counted(example1.meas_logpdf))
    calls = []
    for n in (10, 1000):
        sizes.clear()
        est = cb.ExpectationEstimator(mode="finite_difference_mc", samples=n, seed=0)
        blocks_at(model, model.start_time, est)
        assert set(sizes) == {n}  # every call takes all samples at once
        calls.append(len(sizes))
    assert calls[0] == calls[1]


def test_finite_difference_log_density_arguments():
    # Deep lags on every axis, so each history's order shows.  The linear
    # curvature does not depend on the measurement history or the shift, so
    # the closed-form checks cannot see them; the arguments are checked here.
    model = random_linear_model(cb.CorrelationProfile(3, 3, 2, 3), 2, 2, seed=7)
    batches, calls = [], {"trans_logpdf": [], "meas_logpdf": []}

    def simulate(*args):
        batches.append(model.simulate(*args))
        return batches[-1]

    def recorded(field):
        def call(*args):
            calls[field].append([np.array(a) for a in args])
            return getattr(model, field)(*args)
        return call

    traced = dataclasses.replace(model, simulate=simulate, trans_logpdf=recorded("trans_logpdf"),
                                 meas_logpdf=recorded("meas_logpdf"))
    k = model.start_time
    blocks_at(traced, k, cb.ExpectationEstimator(mode="finite_difference_mc", samples=5,
                                                 seed=1))
    p = model.profile
    [batch] = batches  # one draw serves both factors
    states, meas = batch.states, batch.measurements
    for field in calls:
        if field == "trans_logpdf":
            first = states[:, k + 1]
            x_hist = [states[:, k - i] for i in range(p.l2_eff)]
            z_hist, shift = [meas[:, k - j] for j in range(p.l4)], batch.trans_shift[:, k]
        else:
            first = meas[:, k + 1]
            x_hist = [states[:, k + 1 - i] for i in range(p.l3_eff)]
            z_hist, shift = [meas[:, k - j] for j in range(p.l1)], batch.meas_shift[:, k]
        # Unmoved arguments are the same in every call; the states are
        # unmoved in at least one.
        for args in calls[field]:
            assert np.array_equal(args[2], np.stack(z_hist, axis=1))
            assert np.array_equal(args[3], shift)
        assert any(np.array_equal(args[0], first)
                   and np.array_equal(args[1], np.stack(x_hist, axis=1)) for args in calls[field])


def test_non_finite_curvature_is_an_error():
    est = cb.ExpectationEstimator(mode="finite_difference_mc", samples=2, seed=0)
    for bad in (np.nan, np.inf):
        broken = dataclasses.replace(
            simple_scalar_model(), trans_logpdf=lambda x_next, *a: np.full(len(x_next), bad))
        with pytest.raises(InvariantViolationError):
            blocks_at(broken, 0, est)


def test_non_finite_grid_is_rejected(example1, analytic_est):
    b, c = blocks_at(example1, 2, analytic_est)
    grid = b.copy()
    grid[1, 2] = np.inf
    # The model checks its closed forms when it is built.
    with pytest.raises(InvariantViolationError, match="analytic_b .* non-finite"):
        dataclasses.replace(example1, analytic_b=grid)
    # The step names the grid that is not finite.
    carry = cb.init_state(example1)
    for bad in (np.nan, np.inf):
        for which, what in (("b", "transition blocks"), ("c", "measurement blocks")):
            grids = {"b": b.copy(), "c": c.copy()}
            grids[which][-1, 0] = bad
            with pytest.raises(InvariantViolationError, match=f"{what} contains non-finite"):
                cb.step(example1.profile, carry, grids["b"], grids["c"])
    # Finite grids whose sum overflows name the overlay.
    grids = {"b": b.copy(), "c": c.copy()}
    for grid in grids.values():
        grid[-1, -1] = 1e308
    with pytest.raises(InvariantViolationError,
                       match="overlaid factor blocks contains non-finite"):
        cb.step(example1.profile, carry, grids["b"], grids["c"])


def test_jacobian_path_refuses_multi_state_measurements(example1, example2):
    # example1's measurement noise spans two states (l3' = 2); the sampled
    # Jacobian curvature covers one.
    model = dataclasses.replace(
        example1, analytic_c=None, meas_jacobian=lambda s: np.ones((2, 2, len(s))),
        meas_noise_information=np.eye(2), sample_states=example2.sample_states)
    est = cb.ExpectationEstimator(mode="monte_carlo", samples=20, seed=5)
    with pytest.raises(ModelBuildError, match="single-state measurements only"):
        cb.BlockProvider(model, est, model.start_time, model.start_time + 2)


def test_jacobian_model_without_singular_states_redraws_nothing(example2):
    # These draws hit no singularity of example2, so both providers read
    # the same states.
    est = cb.ExpectationEstimator(mode="monte_carlo", samples=200, seed=5)
    start = example2.start_time
    plain = cb.BlockProvider(dataclasses.replace(example2, singular_states=None),
                             est, start, start + 3)
    checked = cb.BlockProvider(example2, est, start, start + 3)
    assert plain.report == checked.report == McReport(samples=200, resampled=0)
    for k in range(start, start + 3):
        assert plain.measurement(k).tobytes() == checked.measurement(k).tobytes()


def test_resampling_that_never_leaves_the_singularity_names_the_time(example2):
    model = dataclasses.replace(example2, singular_states=lambda s: np.ones(len(s), bool))
    est = cb.ExpectationEstimator(mode="monte_carlo", samples=20, seed=5)
    start = example2.start_time
    with pytest.raises(InvariantViolationError,
                       match=f"after {blocks_mod._MAX_RESAMPLE_ROUNDS} rounds at time {start}$"):
        cb.BlockProvider(model, est, start, start + 2)


@pytest.mark.parametrize("field, value", [
    ("samples", 100.5), ("samples", True), ("samples", 0),
    ("seed", -1), ("seed", 1.5), ("seed", False), ("seed", "7"),
    ("workers", 0), ("workers", 2.0),
])
def test_estimator_rejects_bad_integer_fields(field, value):
    with pytest.raises(ConfigError, match=f"estimator.{field} must be an integer"):
        cb.ExpectationEstimator(mode="monte_carlo", **{field: value})
    # numpy integers are integers.
    est = cb.ExpectationEstimator(mode="monte_carlo", **{field: np.int64(3)})
    assert getattr(est, field) == 3


def test_mc_seed_determinism_and_sensitivity(example2):
    est = lambda seed, workers=1: cb.ExpectationEstimator(  # noqa: E731
        mode="monte_carlo", samples=50_000, seed=seed, workers=workers,
    )
    a = blocks_at(example2, 5, est(7))[1]
    b = blocks_at(example2, 5, est(7))[1]
    assert np.array_equal(a, b)
    # Bit-identical regardless of worker count.
    c = blocks_at(example2, 5, est(7, workers=4))[1]
    assert np.array_equal(a, c)
    d = blocks_at(example2, 5, est(8))[1]
    assert not np.allclose(a, d, rtol=1e-12, atol=0.0)


def test_mc_error_scales_as_root_n(example2):
    # Doubling the sample count should shrink the Frobenius error by about
    # sqrt(2); seeds are fixed so the check is deterministic.  One entry
    # dominates the error, whose norm is then about half-normal (coefficient
    # of variation 0.7), so the ratio of two means over 400 seeds each has a
    # standard deviation of about 0.07, a third of the distance to the
    # nearer bound.  Over 20 seeds it was 0.3: the bounds then failed 6 of
    # 12 disjoint seed sets on correct code.
    k = 10
    ref = blocks_at(
        example2, k,
        cb.ExpectationEstimator(mode="monte_carlo", samples=400_000, seed=999),
    )[1]

    def mean_error(n, seeds):
        errs = []
        for s in seeds:
            _, c = blocks_at(
                example2, k,
                cb.ExpectationEstimator(mode="monte_carlo", samples=n, seed=s),
            )
            errs.append(np.linalg.norm(c - ref))
        return float(np.mean(errs))

    e_small = mean_error(2_000, range(1_000, 1_400))
    e_large = mean_error(4_000, range(2_000, 2_400))
    ratio = e_small / e_large
    assert 1.2 <= ratio <= 1.7


def _per_sample_reference(model, ks, horizon, est):
    """``J' Lambda J`` sample by sample over the states the estimator draws
    (and redraws, per time and sample block), with the number of redrawn
    states."""
    lam = np.asarray(model.meas_noise_information)
    per = {k: [] for k in ks}
    replaced = 0
    for b, size in enumerate(_split(est.samples, blocks_mod.BLOCK_SIZE)):
        batch = model.simulate(horizon, size, _substream(est.seed, _PURPOSE_SAMPLE, b))
        for k in ks:
            states = batch.states[:, k + 1, :].copy()
            replaced += _resample_singular(model, states, range(k, k + 1), est.seed, b)
            jac = model.meas_jacobian(states)
            per[k] += [jac[:, :, s].T @ lam @ jac[:, :, s] for s in range(size)]
    return {k: np.array(v) for k, v in per.items()}, replaced


def _assert_matches_reference(blocks, ses, per):
    for k, p in per.items():
        mean = p.mean(axis=0)
        se = p.std(axis=0, ddof=1) / np.sqrt(len(p))
        assert np.max(np.abs(blocks[k] - mean)) <= 1e-13 * np.max(np.abs(mean))
        assert np.max(np.abs(ses[k] - se)) <= 1e-13 * np.max(se)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("resample", [False, True])
def test_sampled_information_matches_per_sample_loop(example2, workers, resample,
                                                     monkeypatch):
    # Mean and standard error of J' Lambda J, recomputed sample by sample
    # over the same drawn (and redrawn) states, with an uneven last block.
    model = example2
    if resample:
        # Flags about 30% of all states, redraws included, at every step.
        model = dataclasses.replace(example2, singular_states=lambda s: s[:, 0] % 1.0 < 0.3)
    horizon = 8
    ks = range(model.start_time, horizon)
    # Blocks of 64 samples and a last one of 8; then full-size blocks and
    # a last one of one sample.
    for samples, block_size in ((200, 64), (2 * BLOCK_SIZE + 1, BLOCK_SIZE)):
        monkeypatch.setattr(blocks_mod, "BLOCK_SIZE", block_size)
        est = cb.ExpectationEstimator(mode="monte_carlo", samples=samples, seed=5,
                                      workers=workers)
        blocks, ses, report = _sampled_measurement_info(model, ks, horizon, est)

        per, replaced = _per_sample_reference(model, ks, horizon, est)
        assert report.samples == samples
        assert report.resampled == replaced
        assert (replaced > 0) == resample
        _assert_matches_reference(blocks, ses, per)


def _generic_jacobian(meas_dim, partial):
    """Order-one Jacobian of the scaled state with every entry nonzero.

    With ``partial``, column 1 is zero everywhere, column 2 in about half of
    the samples, and column 3 in all but about one sample of ten, so that it
    is dead at some times in all of a short block.
    """
    w = np.random.default_rng(meas_dim).normal(size=(4, meas_dim * 4))
    scale = np.array([1.0e4, 10.0, 1.0e4, 10.0])

    def jac(states):
        out = np.cos((states / scale) @ w).reshape(len(states), meas_dim, 4)
        out = np.ascontiguousarray(out.transpose(1, 2, 0))  # entry-major
        if partial:
            out[:, 1, :] = 0.0
            out[:, 2, states[:, 1] < 10.0] = 0.0
            out[:, 3, np.sin(states[:, 0]) < 0.95] = 0.0
        return out

    return jac


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("meas_dim", [1, 3])
@pytest.mark.parametrize("partial", [False, True])
def test_sampled_information_generic_jacobian(example2, workers, meas_dim, partial,
                                              monkeypatch):
    # The contraction on Jacobians other than range/azimuth: a full SPD noise
    # information, all columns live, or a live set that changes by time and
    # sample block.
    noise_info = random_spd(np.random.default_rng(10 + meas_dim), meas_dim)
    model = dataclasses.replace(
        example2, meas_dim=meas_dim, meas_noise_information=noise_info,
        meas_jacobian=_generic_jacobian(meas_dim, partial),
    )
    monkeypatch.setattr(blocks_mod, "BLOCK_SIZE", 64)
    est = cb.ExpectationEstimator(mode="monte_carlo", samples=200, seed=5,
                                  workers=workers)
    horizon = 8
    ks = range(model.start_time, horizon)
    blocks, ses, _ = _sampled_measurement_info(model, ks, horizon, est)

    per, _ = _per_sample_reference(model, ks, horizon, est)
    _assert_matches_reference(blocks, ses, per)
    for k in ks:
        assert np.all(blocks[k][3, [0, 2, 3]] != 0.0)
        # A column dead in every block leaves exact +0.0 in mean and SE.
        assert (not blocks[k][1].any() and not ses[k][1].any()) == partial
        if partial:
            assert not np.signbit(blocks[k][1]).any() and not np.signbit(ses[k][1]).any()
    # Column 3 is dead in all of the last block's eight samples at some
    # time: that block's partial sums there are zeros.
    assert any(not per[k][-8:, 3, 3].any() for k in ks) == partial


@pytest.mark.parametrize("workers", [1, 2])
def test_column_dead_at_one_time_stays_positive_zero(example2, workers):
    # Column 2 is -0.0 in every sample at one time only, so each block's
    # column is live over its times but gives zeros of either sign there;
    # the mean and SE at that time are exact +0.0.
    pinned = example2.start_time + 2
    generic = _generic_jacobian(3, partial=False)

    def jac(states):
        out = generic(states)
        out[:, 2, states[:, 1] == 0.0] = -0.0
        return out

    def sample_states(horizon, count, rng, out=None):
        states = example2.sample_states(horizon, count, rng, out)
        if horizon >= pinned:
            states[pinned, :, 1] = 0.0
        return states

    def simulate(horizon, count, rng):
        batch = example2.simulate(horizon, count, rng)
        states = batch.states.copy()
        states[:, pinned, 1] = 0.0
        return dataclasses.replace(batch, states=states)

    noise_info = random_spd(np.random.default_rng(13), 3)
    model = dataclasses.replace(
        example2, meas_dim=3, meas_noise_information=noise_info, meas_jacobian=jac,
        sample_states=sample_states, simulate=simulate,
    )
    # Four sample blocks, the last of 100 samples.
    est = cb.ExpectationEstimator(mode="monte_carlo", samples=3 * BLOCK_SIZE + 100,
                                  seed=6, workers=workers)
    horizon = pinned + 2
    ks = range(model.start_time, horizon)
    blocks, ses, _ = _sampled_measurement_info(model, ks, horizon, est)

    per, _ = _per_sample_reference(model, ks, horizon, est)
    _assert_matches_reference(blocks, ses, per)
    for k in ks:
        dead = k + 1 == pinned
        for m in (blocks[k], ses[k]):
            assert (not m[2].any() and not m[:, 2].any()) == dead
            if dead:
                assert not np.signbit(m[2]).any() and not np.signbit(m[:, 2]).any()
    # The column is -0.0 at the dead time, so products with a positive
    # entry of another column are -0.0 there: the test sees the sign.
    states = model.simulate(horizon, 64, np.random.default_rng(0)).states[:, pinned]
    j = model.meas_jacobian(states)
    assert np.signbit(j[:, 2]).all() and np.signbit(j[:, 2] * j[:, 0]).any()


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("column", [0, 1])
def test_non_finite_sampled_jacobian_is_rejected(example2, bad, column):
    # Column 1 of the range/azimuth Jacobian is otherwise zero, so skipping
    # dead columns must still see a non-finite entry there.
    def jac(states):
        out = example2.meas_jacobian(states)
        out[1, column, 3] = bad
        return out

    model = dataclasses.replace(example2, meas_jacobian=jac)
    est = cb.ExpectationEstimator(mode="monte_carlo", samples=100, seed=1)
    with pytest.raises(InvariantViolationError):
        _sampled_measurement_info(model, range(3, 4), 4, est)


def test_sample_major_states_are_rejected(example2):
    # sample_states returns time-major (horizon + 1, count, state_dim); the
    # sample-major layout of a batch is named rather than misread.
    model = dataclasses.replace(
        example2,
        sample_states=lambda h, n, rng, out=None: example2.sample_states(
            h, n, rng).transpose(1, 0, 2),
    )
    est = cb.ExpectationEstimator(mode="monte_carlo", samples=100, seed=1)
    with pytest.raises(ModelBuildError,
                       match=r"sample_states .* \(horizon \+ 1, count, state_dim\) = \(5, 100, 4\)"):
        _sampled_measurement_info(model, range(3, 4), 4, est)


def test_state_blocks_must_hold_every_sample(example2):
    # The states must hold every sample asked for: a sampler that drops one
    # is named rather than averaged over too few samples.
    model = dataclasses.replace(
        example2,
        sample_states=lambda h, n, rng, out=None: example2.sample_states(h, n - 1, rng),
    )
    est = cb.ExpectationEstimator(mode="monte_carlo", samples=2100, seed=1)
    with pytest.raises(ModelBuildError,
                       match=r"sample_states returned shape \(5, 511, 4\), expected "
                             r"\(horizon \+ 1, count, state_dim\) = \(5, 512, 4\)"):
        _sampled_measurement_info(model, range(3, 4), 4, est)


def test_singularity_resampling_counted(example2):
    states = example2.simulate(3, 8, np.random.default_rng(0)).states[:, 3, :].copy()
    states[2, 0] = 0.0
    states[2, 2] = 0.0
    replaced = _resample_singular(example2, states, range(2, 3), seed=0, block=0)
    assert replaced == 1
    assert not example2.singular_states(states).any()


def test_singularity_resampling_reported():
    base = cb.build_example2()
    calls = {"n": 0}
    orig = base.sample_states

    def tainted(horizon, count, rng, out=None):
        states = orig(horizon, count, rng, out)
        calls["n"] += 1
        if calls["n"] == 1:  # poison one state in the first draw only
            states[-1, 0, [0, 2]] = 0.0
        return states

    model = dataclasses.replace(base, sample_states=tainted)
    est = cb.ExpectationEstimator(mode="monte_carlo", samples=64, seed=0)
    provider = cb.BlockProvider(model, est, model.start_time, model.start_time + 1)
    assert provider.report.resampled >= 1
    assert np.all(np.isfinite(provider.measurement(model.start_time)))


def test_singular_states_redrawn_per_block(example2):
    # One singular state in each full sample block, at the same time: each
    # block redraws its own replacement, whatever the worker count.
    k = example2.start_time + 1
    redraws = []

    def tainted(horizon, count, rng, out=None):
        states = example2.sample_states(horizon, count, rng, out)
        if count == BLOCK_SIZE:
            states[k + 1, 3, [0, 2]] = 0.0
        elif count == 1:  # a redraw
            redraws.append(states[k + 1, 0].tobytes())
        return states

    model = dataclasses.replace(example2, sample_states=tainted)
    # Block b's replacement comes from the substream (k, block, attempt).
    want = sorted(example2.sample_states(
        k + 1, 1, _substream(4, _PURPOSE_RESAMPLE, k, b, 0))[k + 1, 0].tobytes()
        for b in range(3))
    results = []
    for workers in (1, 2):
        redraws.clear()
        # Three full blocks and one of 100 samples.
        est = cb.ExpectationEstimator(mode="monte_carlo", samples=3 * BLOCK_SIZE + 100,
                                      seed=4, workers=workers)
        provider = cb.BlockProvider(model, est, k - 1, k + 2)
        assert provider.report.resampled == 3
        assert sorted(redraws) == want and len(set(want)) == 3
        results.append(b"".join(provider.measurement(t).tobytes()
                                + provider.measurement_stderr(t).tobytes()
                                for t in range(k - 1, k + 2)))
    assert results[0] == results[1]


class _PoolStarted(Exception):
    pass


@pytest.mark.parametrize("workers, samples, cpus, threads", [
    (100_000, 1_000_000, 64, 64),  # no more threads than CPUs
    (100_000, 1_000, 64, 2),  # no more threads than sample blocks
    (3, 10_000, 64, 3),
    (3, 10_000, 2, 2),
    (4, BLOCK_SIZE, 64, None),  # one block: no pool
    (1, 10_000, 64, None),
])
def test_thread_pool_is_capped(example2, monkeypatch, workers, samples, cpus, threads):
    started = []

    def pool(max_workers):
        # Records the pool's size and starts no thread.
        started.append(max_workers)
        raise _PoolStarted

    # The pool is imported where it is made, so it is patched at its source.
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", pool)
    monkeypatch.setattr(blocks_mod.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    est = cb.ExpectationEstimator(mode="monte_carlo", samples=samples, seed=1,
                                  workers=workers)
    if threads is None:
        _sampled_measurement_info(example2, range(3, 4), 4, est)
    else:
        with pytest.raises(_PoolStarted):
            _sampled_measurement_info(example2, range(3, 4), 4, est)
    assert started == ([] if threads is None else [threads])


def test_sample_blocks_spread_over_workers(example2, monkeypatch):
    # Each sample block is one task: two workers both draw, and every block
    # is drawn once, even where all samples fit one FD-MC chunk.
    calls = []

    def recorded(horizon, count, rng, out=None):
        calls.append((threading.get_ident(), count))
        return example2.sample_states(horizon, count, rng, out)

    monkeypatch.setattr(blocks_mod.os, "sched_getaffinity", lambda pid: {0, 1})
    model = dataclasses.replace(example2, sample_states=recorded)
    est = cb.ExpectationEstimator(mode="monte_carlo", samples=10_000, seed=7, workers=2)
    provider = cb.BlockProvider(model, est, model.start_time, model.start_time + 10)
    assert provider.report.resampled == 0
    assert sorted(count for _, count in calls) == sorted(_split(10_000, BLOCK_SIZE))
    assert len({thread for thread, _ in calls}) >= 2


# ---------------------------------------------------------------------------
# Frame overlay
# ---------------------------------------------------------------------------


def test_assembly_equal_case_layout(example1, analytic_est):
    b, c = blocks_at(example1, 2, analytic_est)
    frame = factor_frame(b, c, example1.profile)
    assert np.allclose(frame[:2, :2], block(b, 1, 1, 2) + block(c, 1, 1, 2))
    assert np.allclose(frame[:2, 2:], block(b, 1, 2, 2) + block(c, 1, 2, 2))
    assert np.allclose(frame[2:, 2:], block(b, 2, 2, 2) + block(c, 2, 2, 2))


def test_assembly_less_case_layout(example2):
    b, c = blocks_at(
        example2, 2,
        cb.ExpectationEstimator(mode="monte_carlo", samples=2_000, seed=0),
    )
    frame = factor_frame(b, c, example2.profile)
    assert np.allclose(frame[8:, 8:], block(b, 3, 3, 4) + block(c, 1, 1, 4))
    assert np.allclose(frame[8:, :8], np.hstack([block(b, 3, 1, 4), block(b, 3, 2, 4)]))
    expected_d11 = np.block([
        [block(b, 1, 1, 4), block(b, 1, 2, 4)],
        [block(b, 2, 1, 4), block(b, 2, 2, 4)],
    ])
    assert np.allclose(frame[:8, :8], expected_d11)


def test_assembly_uncorrelated_layout(analytic_est):
    model = simple_scalar_model()
    b, c = blocks_at(model, 0, analytic_est)
    frame = factor_frame(b, c, model.profile)
    assert np.allclose(frame[:1, :1], block(b, 1, 1, 1))
    assert np.allclose(frame[1:, :1], block(b, 2, 1, 1))
    assert np.allclose(frame[1:, 1:], block(b, 2, 2, 1) + block(c, 1, 1, 1))


def test_assembly_transpose_exact():
    # The overlay adds no asymmetry of its own: exactly symmetric grids give
    # a new-state coupling row that is the exact transpose of its column.
    for p, seed in [((0, 0, 3, 0), 11), ((1, 1, 2, 1), 12), ((0, 2, 0, 0), 13)]:
        profile = cb.CorrelationProfile(*p)
        model = random_linear_model(profile, 2, 2, seed)
        est = cb.ExpectationEstimator()
        b, c = (symmetrize(g) for g in blocks_at(model, model.start_time, est))
        frame = factor_frame(b, c, profile)
        assert np.array_equal(frame[-2:, :-2], frame[:-2, -2:].T)


def test_assembly_rejects_mismatches(example1, analytic_est):
    b, c = blocks_at(example1, 2, analytic_est)
    wrong = np.zeros((6, 6))
    with pytest.raises(ModelBuildError):
        factor_frame(wrong, c, example1.profile)
    # The same checks hold inside the step, for either grid.
    carry = cb.init_state(example1)
    for bad_b, bad_c in ((wrong, c), (b, wrong), (b, c[:2, :2]), (b[:, :3], c)):
        with pytest.raises(ModelBuildError):
            cb.step(example1.profile, carry, bad_b, bad_c)
