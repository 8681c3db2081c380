import numpy as np
import pytest

import corrbound as cb
from corrbound import cli, oracle
from corrbound.errors import SingularMatrixError
from conftest import CASE_SPANNING_PROFILES, random_linear_model, random_spd, simple_scalar_model
from reference_steps import (
    CaseTag,
    band_to_dense,
    contract_through_inverse,
    dense_information_sequence,
    dense_joint,
    partitioned_inverse,
    schur_submatrix,
    select_case,
)


def test_scalar_joint_hand_assembled():
    # Random walk, unit noises and prior: prior adds 1 at state 0, each
    # transition adds [[1,-1],[-1,1]] across consecutive states, each
    # measurement adds 1 on its state's diagonal (measurements enter from
    # the first step after the window).
    model = simple_scalar_model()
    est = cb.ExpectationEstimator()
    band = cb.build_joint(model, est, 2)
    assert band.shape == (2, 3)  # upper bandwidth (window + 1) * r - 1 = 1
    expected = np.array([
        [2.0, -1.0, 0.0],
        [-1.0, 3.0, -1.0],
        [0.0, -1.0, 2.0],
    ])
    assert np.allclose(band_to_dense(band), expected)
    # Reduction reproduces the recursion value at that horizon.
    assert np.allclose(cb.information_sequence(model, est, 2)[2], [[1.6]])


def test_prior_only_window_equals_prior_information(example1):
    est = cb.ExpectationEstimator()
    band = cb.build_joint(example1, est, example1.start_time)
    assert np.allclose(band_to_dense(band), example1.prior.information())
    with pytest.raises(ValueError, match="k must be an integer >= 2"):
        cb.build_joint(example1, est, example1.start_time - 1)


def test_example1_joint_structure(example1):
    band = cb.build_joint(example1, cb.ExpectationEstimator(), 5)
    # Profile (1, 1, 2, 1), r = 2: upper bandwidth max(2, 2) * 2 - 1 = 3.
    assert band.shape == (4, 12)
    joint = band_to_dense(band)
    eigs = np.linalg.eigvalsh(joint)
    assert eigs[0] >= -1e-9 * eigs[-1]


def test_schur_submatrix_block_diagonal():
    # The band storage of diag(2, 5) with upper bandwidth 1.
    band = np.array([[0.0, 0.0], [2.0, 5.0]])
    assert np.allclose(oracle.last_state_information(band, 1, 1), [[5.0]])
    assert np.allclose(schur_submatrix(np.diag([2.0, 5.0]), 1), [[5.0]])


def test_schur_submatrix_direct_arithmetic():
    # [[2, 1], [1, 2]]: 2 - 1 * 1 / 2 = 1.5.
    band = np.array([[0.0, 1.0], [2.0, 2.0]])
    assert np.allclose(oracle.last_state_information(band, 1, 1), [[1.5]])
    assert np.allclose(schur_submatrix(np.array([[2.0, 1.0], [1.0, 2.0]]), 1), [[1.5]])
    # Two-dimensional trailing block: the full Schur complement, not its diagonal.
    rng = np.random.default_rng(13)
    a = random_spd(rng, 5)
    u = 4
    band = np.zeros((u + 1, 5))
    for d in range(u + 1):
        band[u - d, d:] = np.diagonal(a, d)
    expected = a[3:, 3:] - a[3:, :3] @ np.linalg.solve(a[:3, :3], a[:3, 3:])
    assert np.allclose(oracle.last_state_information(band, 2, 2), expected)


class _IndefiniteAt:
    """Blocks of ``provider``, but at time ``bad`` the measurement grid's last
    diagonal entry is strongly negative, so the grid is indefinite."""

    def __init__(self, provider, bad):
        self.provider, self.bad = provider, bad

    def blocks(self, k):
        b, c = self.provider.blocks(k)
        if k == self.bad:
            c = c.copy()
            c[-1, -1] = -1e6
        return b, c


def test_joint_validation_rejects_indefinite(example1, monkeypatch, capsys):
    # The factors at time 5 first enter the joint over x[0] .. x[6].
    est = cb.ExpectationEstimator()
    provider = _IndefiniteAt(cb.BlockProvider(example1, est, example1.start_time, 9), 5)
    with pytest.raises(SingularMatrixError, match=r"x\[0\] \.\. x\[6\]"):
        cb.information_sequence(example1, est, 9, provider=provider)
    assert set(cb.information_sequence(example1, est, 5, provider=provider)) == {2, 3, 4, 5}

    monkeypatch.setattr(oracle, "BlockProvider",
                        lambda *args: _IndefiniteAt(cb.BlockProvider(*args), 5))
    assert cli.main(["oracle-verify", "--model", "example1", "--horizon", "7"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error:") and "x[6]" in err


@pytest.mark.parametrize("stack", [1, 2, 3, None])
def test_earliest_refusal_wins_across_stacks(example1, monkeypatch, stack):
    # Prefixes are factored up to oracle._STACK at a time, in time order.
    # Whether the first joint that is not positive definite opens a stack,
    # sits inside one among later failures, or comes after a whole stack
    # that passes, it is the one named.
    if stack is not None:
        monkeypatch.setattr(oracle, "_STACK", stack)
    bad = example1.start_time + oracle._STACK + 3
    est = cb.ExpectationEstimator()
    provider = _IndefiniteAt(cb.BlockProvider(example1, est, example1.start_time, bad + 6), bad)
    with pytest.raises(SingularMatrixError,
                       match=rf"x\[0\] \.\. x\[{bad + 1}\] is not positive definite"):
        cb.information_sequence(example1, est, bad + 6, provider=provider)
    assert max(cb.information_sequence(example1, est, bad, provider=provider)) == bad


def test_stacks_factor_each_prefix_as_alone(example1):
    # A horizon past one stack: each prefix's information is bit for bit
    # the one-member factorization of that prefix, and a few times match
    # the dense reference.
    est = cb.ExpectationEstimator()
    start, r = example1.start_time, example1.state_dim
    k_max = start + oracle._STACK + 5
    provider = cb.BlockProvider(example1, est, start, k_max)
    seq = cb.information_sequence(example1, est, k_max, provider=provider)
    assert sorted(seq) == list(range(start, k_max + 1))
    edges = {start, start + 1, start + oracle._STACK - 1, start + oracle._STACK, k_max}
    for t, prefix in oracle._prefixes(example1, est, k_max, provider):
        if t in edges:
            assert np.array_equal(seq[t], oracle.last_state_information(prefix, r, t))
    for t in edges:
        ref = schur_submatrix(dense_joint(example1, provider, t), r)
        assert oracle.max_relative_deviation(seq[t], ref) < 1e-13


def test_factor_sparsity_pattern():
    # The joint is block-banded with the recursion window as bandwidth, and
    # every factor grid lands on the states it covers: a grid one slot off
    # moves entries out of the band or away from the dense joint's.
    est = cb.ExpectationEstimator()
    for i, lags in enumerate(CASE_SPANNING_PROFILES):
        profile = cb.CorrelationProfile(*lags)
        model = random_linear_model(profile, 1 + i % 3, 2, 900 + i)
        k = model.start_time + 6
        r = model.state_dim
        band_storage = cb.build_joint(model, est, k)
        assert band_storage.shape == ((profile.window + 1) * r, (k + 1) * r)
        provider = cb.BlockProvider(model, est, model.start_time, k)
        ref = dense_joint(model, provider, k)
        assert np.max(np.abs(band_to_dense(band_storage) - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_partitioned_inverse_reconstruction():
    rng = np.random.default_rng(10)
    for trial in range(100):
        n = int(rng.integers(2, 13))
        split = int(rng.integers(1, n))
        a = random_spd(rng, n)
        reconstructed = partitioned_inverse(a, split)
        direct = np.linalg.inv(a)
        assert np.max(np.abs(reconstructed - direct)) < 1e-10 * max(
            1.0, np.max(np.abs(direct))
        )


def test_contraction_identity_random():
    rng = np.random.default_rng(11)
    for trial in range(100):
        n = int(rng.integers(2, 7))
        split = int(rng.integers(1, n))
        a = random_spd(rng, n)
        b = rng.normal(size=(2, n))
        c = rng.normal(size=(n, 2))
        direct, factored = contract_through_inverse(b, a, c, split)
        assert np.max(np.abs(direct - factored)) < 1e-10 * max(
            1.0, np.max(np.abs(direct))
        )


def test_contraction_identity_special_cases():
    rng = np.random.default_rng(12)
    n, split = 5, 2
    b = rng.normal(size=(1, n))
    c = rng.normal(size=(n, 1))
    direct, factored = contract_through_inverse(b, np.eye(n), c, split)
    assert np.allclose(direct, b @ c)
    assert np.allclose(factored, b @ c)
    # Block-diagonal middle matrix: the two halves contract independently.
    a = np.zeros((n, n))
    a[:split, :split] = random_spd(rng, split)
    a[split:, split:] = random_spd(rng, n - split)
    direct, factored = contract_through_inverse(b, a, c, split)
    expected = b[:, :split] @ np.linalg.solve(a[:split, :split], c[:split]) + \
        b[:, split:] @ np.linalg.solve(a[split:, split:], c[split:])
    assert np.allclose(direct, expected)
    assert np.allclose(factored, expected)


def test_recursion_matches_oracle_example1(example1):
    deviations = cb.verify_recursion(example1, cb.ExpectationEstimator(), 12)
    assert max(deviations.values()) < 1e-8


def test_information_sequence_names_a_provider_that_falls_short(example1):
    est = cb.ExpectationEstimator()
    start = example1.start_time
    provider = cb.BlockProvider(example1, est, start, start + 5)
    with pytest.raises(ValueError, match=rf"time index {start + 5} outside the "
                                         rf"provider's range \[{start}, {start + 5}\)"):
        oracle.information_sequence(example1, est, start + 8, provider=provider)


def test_recursion_matches_oracle_with_sampled_blocks(example2):
    # Different seeds on the two sides: agreement within 3 combined standard
    # errors of the sampled measurement curvature, propagated loosely through
    # the bound (the information is linear in the measurement term).
    est_a = cb.ExpectationEstimator(mode="monte_carlo", samples=40_000, seed=21)
    est_b = cb.ExpectationEstimator(mode="monte_carlo", samples=40_000, seed=22)
    k_max = example2.start_time + 6
    trace = cb.run(example2, est_a, 6)
    seq = oracle.information_sequence(example2, est_b, k_max)
    se = cb.BlockProvider(example2, est_a, k_max - 1, k_max).measurement_stderr(k_max - 1)
    tol = 3.0 * np.sqrt(2.0) * np.max(se) * (k_max + 1)
    for s in range(1, len(trace) + 1):
        assert np.max(np.abs(trace.info_at(s) - seq[trace.start + s])) < tol


def _worst(seq, ref):
    assert seq.keys() == ref.keys()
    return max(oracle.max_relative_deviation(seq[t], ref[t]) for t in seq)


def test_banded_oracle_matches_dense_reference(example1, example2, monkeypatch):
    # Measured worst relative deviations: 1.9e-15 for example1 to k = 24;
    # 5.4e-14 for example2 to k = 12 on one Monte-Carlo provider (9.7e-14 and
    # 7.2e-14 at seeds 6 and 7); 6.9e-15 over the random linear models.  The
    # bounds leave a factor of at least 10 above those.
    est = cb.ExpectationEstimator()
    assert _worst(cb.information_sequence(example1, est, 24),
                  dense_information_sequence(example1, est, 24)) < 1e-13

    mc = cb.ExpectationEstimator(mode="monte_carlo", samples=2_000, seed=5)
    k_max = example2.start_time + 10
    provider = cb.BlockProvider(example2, mc, example2.start_time, k_max)
    assert _worst(cb.information_sequence(example2, mc, k_max, provider=provider),
                  dense_information_sequence(example2, mc, k_max, provider=provider)) < 1e-12

    # Every profile at state dimensions 1 to 3, factored in stacks of the
    # oracle's size and of 1, 3 and 7 prefixes, so that these horizons also
    # span several stacks.
    cases, full = set(), oracle._STACK
    for i, lags in enumerate(CASE_SPANNING_PROFILES):
        profile = cb.CorrelationProfile(*lags)
        for r in (1, 2, 3):
            model = random_linear_model(profile, r, 2, 5000 + 3 * i + r)
            k_max = min(24, model.start_time + 12)
            ref = dense_information_sequence(model, est, k_max)
            for stack in (full, 1, 3, 7):
                monkeypatch.setattr(oracle, "_STACK", stack)
                assert _worst(cb.information_sequence(model, est, k_max), ref) < 1e-13
        cases.add(select_case(profile))
    assert cases == {CaseTag.GREATER, CaseTag.LESS, CaseTag.EQUAL}


def _flat_prior_model(flat: float) -> cb.SystemModel:
    """A 2-D random walk whose one measurement reads the first component,
    with prior variance ``flat`` on the unobserved second one."""
    return cb.model_from_config({
        "kind": "linear_gaussian_ma", "state_dim": 2, "meas_dim": 1,
        "lags": {"l1": 0, "l2": 0, "l3": 0, "l4": 0},
        "transition_coeffs": [[[1.0, 0.0], [0.0, 1.0]]],
        "process_cov": [[1.0, 0.0], [0.0, 1.0]],
        "measurement_state_coeffs": [[[1.0, 0.0]]], "measurement_cov": [[1.0]],
        "prior": {"cov": [[1.0, 0.0], [0.0, flat]]},
    })


def _raised_in(excinfo) -> list[str]:
    return [entry.name for entry in excinfo.traceback]


def test_near_singular_joint_refused_at_bound_inversion():
    # Which side refuses a nearly flat joint is recorded, not aligned: at
    # prior variance 1e13 the informations are finite and agree, and only
    # the recursion's bound inversion refuses, whether run alone or under
    # verify_recursion after the oracle side has passed.
    model = _flat_prior_model(1e13)
    est = cb.ExpectationEstimator()
    start, k_max = model.start_time, model.start_time + 5
    for call in (lambda: cb.run(model, est, 5),
                 lambda: cb.verify_recursion(model, est, k_max)):
        with pytest.raises(SingularMatrixError,
                           match="^information submatrix is numerically singular") as excinfo:
            call()
        frames = _raised_in(excinfo)
        assert "trace_rows" in frames and "_schur_step" not in frames
    seq = oracle.information_sequence(model, est, k_max)
    provider = cb.BlockProvider(model, est, start, k_max)
    carry = cb.init_state(model)
    for k in range(start, k_max):
        carry, info = cb.step(model.profile, carry, *provider.blocks(k))
        assert np.all(np.isfinite(seq[k + 1]))
        assert oracle.max_relative_deviation(info, seq[k + 1]) < 1e-20


def test_earliest_failure_wins_on_the_tiled_path():
    # The flat-prior model's blocks are one pair, so run takes the tiled
    # loop.  A step that raises after two passing steps must not hide the
    # earlier steps' uninvertible submatrices: their bounds are formed
    # first, and that refusal is the one raised.
    model = _flat_prior_model(1e13)
    calls = 0

    def failing_third(*args):
        nonlocal calls
        calls += 1
        if calls == 3:
            raise RuntimeError("third step fails")
        return cb.step(*args)

    with pytest.raises(SingularMatrixError,
                       match="^information submatrix is numerically singular") as excinfo:
        cb.run(model, cb.ExpectationEstimator(), 5, stepper=failing_third)
    assert calls == 3
    frames = _raised_in(excinfo)
    assert "_distinct_steps" in frames and "trace_rows" in frames


@pytest.mark.parametrize("flat", [1e15, 1e16])
def test_flatter_prior_refused_by_both_sides_at_the_prior(flat):
    # From prior variance 1e15 both sides refuse the prior itself, each in
    # its own set-up: the recursion's init_state and the oracle's assembly.
    model = _flat_prior_model(flat)
    est = cb.ExpectationEstimator()
    k_max = model.start_time + 5
    for call, where in ((lambda: cb.run(model, est, 5), "init_state"),
                        (lambda: cb.verify_recursion(model, est, k_max),
                         "information_sequence")):
        with pytest.raises(SingularMatrixError,
                           match="^prior covariance of window state 0 is numerically "
                                 "singular") as excinfo:
            call()
        assert where in _raised_in(excinfo)
