import numpy as np
import pytest

import corrbound as cb
from corrbound import oracle
from corrbound.errors import InvariantViolationError
from conftest import random_linear_model, random_spd, simple_scalar_model
from reference_steps import contract_through_inverse, partitioned_inverse


def test_scalar_joint_hand_assembled():
    # Random walk, unit noises and prior: prior adds 1 at state 0, each
    # transition adds [[1,-1],[-1,1]] across consecutive states, each
    # measurement adds 1 on its state's diagonal (measurements enter from
    # the first step after the window).
    model = simple_scalar_model()
    joint = cb.build_joint(model, cb.ExpectationEstimator(), 2)
    expected = np.array([
        [2.0, -1.0, 0.0],
        [-1.0, 3.0, -1.0],
        [0.0, -1.0, 2.0],
    ])
    assert np.allclose(joint.matrix, expected)
    # Reduction reproduces the recursion value at that horizon.
    assert np.allclose(cb.schur_submatrix(joint), [[1.6]])


def test_prior_only_window_equals_prior_information(example1):
    joint = cb.build_joint(example1, cb.ExpectationEstimator(), example1.start_time)
    assert np.allclose(joint.matrix, example1.prior.information())


def test_example1_joint_structure(example1):
    joint = cb.build_joint(example1, cb.ExpectationEstimator(), 5)
    assert joint.matrix.shape == (12, 12)
    assert np.allclose(joint.matrix, joint.matrix.T)
    eigs = np.linalg.eigvalsh(joint.matrix)
    assert eigs[0] >= -1e-9 * eigs[-1]


def test_schur_submatrix_block_diagonal():
    j = cb.JointInformation(horizon=1, block_dim=1,
                            matrix=np.diag([2.0, 5.0]))
    assert np.allclose(cb.schur_submatrix(j), [[5.0]])


def test_schur_submatrix_direct_arithmetic():
    j = cb.JointInformation(horizon=1, block_dim=1,
                            matrix=np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(cb.schur_submatrix(j), [[1.5]])


def test_joint_validation_rejects_indefinite():
    j = cb.JointInformation(horizon=1, block_dim=1,
                            matrix=np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(InvariantViolationError):
        j.validate()


def test_factor_sparsity_pattern():
    # A single factor couples states at most max(l2', l3'-1) steps apart,
    # so the assembled joint is block-banded with that bandwidth.
    for lags, seed in [((0, 0, 3, 0), 1), ((1, 1, 2, 1), 2), ((0, 2, 0, 0), 3),
                       ((2, 1, 3, 2), 4)]:
        profile = cb.CorrelationProfile(*lags)
        model = random_linear_model(profile, 2, 2, 900 + seed)
        k = model.start_time + 6
        for t in range(model.start_time, k):
            trans, meas = oracle.factor_state_indices(model, t)
            assert max(trans) - min(trans) == profile.l2_eff
            assert max(meas) - min(meas) == profile.l3_eff - 1
        joint = cb.build_joint(model, cb.ExpectationEstimator(), k)
        band = max(profile.l2_eff, profile.l3_eff - 1)
        r = model.state_dim
        for i in range(k + 1):
            for j in range(k + 1):
                if abs(i - j) > band:
                    assert not joint.matrix[i * r:(i + 1) * r, j * r:(j + 1) * r].any()


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


def test_recursion_matches_oracle_with_sampled_blocks(example2):
    # Different seeds on the two sides: agreement within 3 combined standard
    # errors of the sampled measurement curvature, propagated loosely through
    # the bound (the information is linear in the measurement term).
    est_a = cb.ExpectationEstimator(mode="monte_carlo", sample_count=40_000, seed=21)
    est_b = cb.ExpectationEstimator(mode="monte_carlo", sample_count=40_000, seed=22)
    k_max = example2.start_time + 6
    trace = cb.run(example2, est_a, 6)
    seq = oracle.information_sequence(example2, est_b, k_max)
    se = cb.BlockProvider(example2, est_a, k_max - 1, k_max).measurement_stderr(k_max - 1)
    tol = 3.0 * np.sqrt(2.0) * np.max(se) * (k_max + 1)
    for entry in trace.entries:
        assert np.max(np.abs(entry.info - seq[entry.time_index])) < tol


def test_oracle_horizon_cap(example1):
    with pytest.raises(ValueError, match="cap"):
        cb.build_joint(example1, cb.ExpectationEstimator(), oracle.MAX_ORACLE_HORIZON + 1)
    with pytest.raises(ValueError, match="cap"):
        oracle.information_sequence(example1, cb.ExpectationEstimator(),
                                    oracle.MAX_ORACLE_HORIZON + 1)
