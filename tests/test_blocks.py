import dataclasses

import numpy as np
import pytest

import corrbound as cb
from corrbound.blocks import (
    _PURPOSE_SAMPLE,
    _chunk_rng,
    _chunk_sizes,
    _resample_singular,
    _sampled_measurement_info,
    factor_frame,
    measurement_blocks,
    measurement_blocks_detailed,
    transition_blocks,
)
from corrbound.errors import InvariantViolationError, ModelBuildError
from corrbound.linalg import symmetrize
from conftest import random_linear_model
from reference_steps import block


def test_scalar_transition_block():
    # Random walk with unit process noise: curvature [[1, -1], [-1, 1]].
    model = cb.simple_scalar_model()
    b = transition_blocks(model, 0, cb.ExpectationEstimator())
    assert np.allclose(b, np.array([[1.0, -1.0], [-1.0, 1.0]]))


def test_scalar_measurement_block():
    model = cb.simple_scalar_model()
    c = measurement_blocks(model, 0, cb.ExpectationEstimator())
    assert np.allclose(c, np.array([[1.0]]))


def test_analytic_mode_requires_closed_form(example2):
    with pytest.raises(ModelBuildError):
        measurement_blocks(example2, 2, cb.ExpectationEstimator(mode="analytic"))


def test_analytic_blocks_are_psd(example1, analytic_est):
    for grid in (transition_blocks(example1, 2, analytic_est),
                 measurement_blocks(example1, 2, analytic_est)):
        eigs = np.linalg.eigvalsh(grid)
        assert eigs[0] >= -1e-10 * max(eigs[-1], 1.0)
        scale = max(float(np.max(np.abs(grid))), 1.0)
        assert np.max(np.abs(grid - grid.T)) <= 1e-12 * scale


def test_monte_carlo_matches_analytic_for_linear(example1):
    # Per-sample curvature of a linear-Gaussian factor is constant, so the
    # sample mean reproduces the closed form.
    est = cb.ExpectationEstimator(mode="monte_carlo", sample_count=100_000, seed=1)
    b_mc = transition_blocks(example1, 2, est)
    b = transition_blocks(example1, 2, cb.ExpectationEstimator())
    assert np.max(np.abs(b_mc - b)) / np.max(np.abs(b)) < 1e-2


def test_finite_difference_mc_matches_analytic(example1):
    est = cb.ExpectationEstimator(mode="finite_difference_mc", sample_count=40, seed=3)
    b_fd = transition_blocks(example1, 2, est)
    b = transition_blocks(example1, 2, cb.ExpectationEstimator())
    assert np.max(np.abs(b_fd - b)) / np.max(np.abs(b)) < 1e-6
    c_fd = measurement_blocks(example1, 2, est)
    c = measurement_blocks(example1, 2, cb.ExpectationEstimator())
    assert np.max(np.abs(c_fd - c)) / np.max(np.abs(c)) < 1e-6


def test_non_finite_curvature_is_an_error():
    model = cb.simple_scalar_model()
    import dataclasses
    broken = dataclasses.replace(model, trans_logpdf=lambda *a: float("nan"))
    est = cb.ExpectationEstimator(mode="finite_difference_mc", sample_count=2, seed=0)
    with pytest.raises(InvariantViolationError):
        transition_blocks(broken, 0, est)


def test_non_finite_grid_is_rejected(example1, analytic_est):
    import dataclasses
    grid = transition_blocks(example1, 2, analytic_est).copy()
    grid[1, 2] = np.inf
    broken = dataclasses.replace(example1, analytic_b=lambda k: grid)
    with pytest.raises(InvariantViolationError, match="non-finite"):
        transition_blocks(broken, 2, analytic_est)
    # The step names the grid that is not finite.
    state = cb.init_state(example1)
    b = transition_blocks(example1, 2, analytic_est)
    c = measurement_blocks(example1, 2, analytic_est)
    for bad in (np.nan, np.inf):
        for which, what in (("b", "transition blocks"), ("c", "measurement blocks")):
            grids = {"b": b.copy(), "c": c.copy()}
            grids[which][-1, 0] = bad
            with pytest.raises(InvariantViolationError, match=f"{what} contains non-finite"):
                cb.step(state, grids["b"], grids["c"])


def test_mc_seed_determinism_and_sensitivity(example2):
    est = lambda seed, workers=1: cb.ExpectationEstimator(  # noqa: E731
        mode="monte_carlo", sample_count=50_000, seed=seed, workers=workers,
        chunk_size=16_384,
    )
    a = measurement_blocks(example2, 5, est(7))
    b = measurement_blocks(example2, 5, est(7))
    assert np.array_equal(a, b)
    # Bit-identical regardless of worker count.
    c = measurement_blocks(example2, 5, est(7, workers=4))
    assert np.array_equal(a, c)
    d = measurement_blocks(example2, 5, est(8))
    assert not np.allclose(a, d, rtol=1e-12, atol=0.0)


def test_mc_error_scales_as_root_n(example2):
    # Doubling the sample count should shrink the Frobenius error by about
    # sqrt(2); seeds are fixed so the check is deterministic.
    k = 10
    ref = measurement_blocks(
        example2, k,
        cb.ExpectationEstimator(mode="monte_carlo", sample_count=400_000, seed=999),
    )

    def mean_error(n, seeds):
        errs = []
        for s in seeds:
            c = measurement_blocks(
                example2, k,
                cb.ExpectationEstimator(mode="monte_carlo", sample_count=n, seed=s),
            )
            errs.append(np.linalg.norm(c - ref))
        return float(np.mean(errs))

    e_small = mean_error(2_000, range(400, 420))
    e_large = mean_error(4_000, range(450, 470))
    ratio = e_small / e_large
    assert 1.2 <= ratio <= 1.7


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("resample", [False, True])
def test_sampled_information_matches_per_sample_loop(example2, workers, resample):
    # Mean and standard error of J' Lambda J, recomputed sample by sample
    # over the same drawn (and redrawn) states, with an uneven last chunk.
    model = example2
    if resample:
        # Flags about 30% of all states, redraws included, at every step.
        model = dataclasses.replace(example2, singular_states=lambda s: s[:, 0] % 1.0 < 0.3)
    est = cb.ExpectationEstimator(mode="monte_carlo", sample_count=200, seed=5,
                                  workers=workers, chunk_size=64)
    horizon = 8
    ks = list(range(model.start_time, horizon))
    blocks, ses, report = _sampled_measurement_info(model, ks, horizon, est)

    lam = np.asarray(model.meas_noise_information)
    per = {k: [] for k in ks}
    replaced = 0
    for c, size in enumerate(_chunk_sizes(est.sample_count, est.chunk_size)):
        batch = model.simulate(horizon, size, _chunk_rng(est.seed, _PURPOSE_SAMPLE, c))
        for k in ks:
            states = batch.states[:, k + 1, :].copy()
            replaced += _resample_singular(model, states, k, est.seed, c)
            jac = model.meas_jacobian(states)
            per[k] += [jac[s].T @ lam @ jac[s] for s in range(size)]
    assert report.samples == 200
    assert report.resampled == replaced
    assert (replaced > 0) == resample
    for k in ks:
        p = np.array(per[k])
        mean = p.mean(axis=0)
        se = p.std(axis=0, ddof=1) / np.sqrt(len(p))
        assert np.max(np.abs(blocks[k] - mean)) <= 1e-13 * np.max(np.abs(mean))
        assert np.max(np.abs(ses[k] - se)) <= 1e-13 * np.max(se)


def test_singularity_resampling_counted(example2):
    states = example2.simulate(3, 8, np.random.default_rng(0)).states[:, 3, :].copy()
    states[2, 0] = 0.0
    states[2, 2] = 0.0
    replaced = _resample_singular(example2, states, 2, seed=0, chunk=0)
    assert replaced == 1
    assert not example2.singular_states(states).any()


def test_singularity_resampling_reported():
    import dataclasses
    base = cb.build_example2()
    calls = {"n": 0}
    orig = base.simulate

    def tainted(horizon, count, rng):
        batch = orig(horizon, count, rng)
        calls["n"] += 1
        if calls["n"] == 1:  # poison one state in the first draw only
            batch.states[0, -1, 0] = 0.0
            batch.states[0, -1, 2] = 0.0
        return batch

    model = dataclasses.replace(base, simulate=tainted)
    est = cb.ExpectationEstimator(mode="monte_carlo", sample_count=64, seed=0)
    grid, _, report = measurement_blocks_detailed(model, model.start_time, est)
    assert report.resampled >= 1
    assert np.all(np.isfinite(grid))


# ---------------------------------------------------------------------------
# Frame overlay
# ---------------------------------------------------------------------------


def test_assembly_equal_case_layout(example1, analytic_est):
    b = transition_blocks(example1, 2, analytic_est)
    c = measurement_blocks(example1, 2, analytic_est)
    frame = factor_frame(b, c, example1.profile)
    assert np.allclose(frame[:2, :2], block(b, 1, 1, 2) + block(c, 1, 1, 2))
    assert np.allclose(frame[:2, 2:], block(b, 1, 2, 2) + block(c, 1, 2, 2))
    assert np.allclose(frame[2:, 2:], block(b, 2, 2, 2) + block(c, 2, 2, 2))


def test_assembly_less_case_layout(example2, analytic_est):
    b = transition_blocks(example2, 2, analytic_est)
    c = measurement_blocks(
        example2, 2,
        cb.ExpectationEstimator(mode="monte_carlo", sample_count=2_000, seed=0),
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
    model = cb.simple_scalar_model()
    b = transition_blocks(model, 0, analytic_est)
    c = measurement_blocks(model, 0, analytic_est)
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
        b = symmetrize(transition_blocks(model, model.start_time, est))
        c = symmetrize(measurement_blocks(model, model.start_time, est))
        frame = factor_frame(b, c, profile)
        assert np.array_equal(frame[-2:, :-2], frame[:-2, -2:].T)


def test_assembly_rejects_mismatches(example1, analytic_est):
    b = transition_blocks(example1, 2, analytic_est)
    c = measurement_blocks(example1, 2, analytic_est)
    wrong = np.zeros((6, 6))
    with pytest.raises(ModelBuildError):
        factor_frame(wrong, c, example1.profile)
    # The same checks hold inside the step, for either grid.
    state = cb.init_state(example1)
    for bad_b, bad_c in ((wrong, c), (b, wrong), (b, c[:2, :2]), (b[:, :3], c)):
        with pytest.raises(ModelBuildError):
            cb.step(state, bad_b, bad_c)
