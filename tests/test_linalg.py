import numpy as np
import pytest

from corrbound.errors import InvariantViolationError, SingularMatrixError
from corrbound import linalg
from conftest import psd_dominates
from reference_steps import point_hessian


def test_psd_solve_matches_direct_solve():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = rng.integers(1, 8)
        a = rng.normal(size=(n, n))
        spd = a @ a.T + 0.5 * np.eye(n)
        b = rng.normal(size=(n, 3))
        x = linalg.psd_solve(spd, b)
        assert np.allclose(spd @ x, b, atol=1e-9)


def test_psd_solve_reports_condition_on_singular():
    singular = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SingularMatrixError) as exc:
        linalg.psd_solve(singular, np.eye(2))
    assert exc.value.rcond is not None
    assert exc.value.rcond < 1e-13


def test_psd_solve_rejects_indefinite():
    with pytest.raises(SingularMatrixError):
        linalg.psd_solve(np.diag([1.0, -1.0]), np.eye(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_psd_inverse_rejects_non_finite(bad):
    with pytest.raises(SingularMatrixError, match="^block contains non-finite entries$"):
        linalg.psd_inverse(np.array([[1.0, bad], [bad, 1.0]]), context="block")


def test_psd_solve_gate_matches_svd_rule(monkeypatch):
    # Near the floor the Cholesky-based estimate must reach the same
    # accept/reject decision as the 2-norm condition number from the SVD.
    rng = np.random.default_rng(6)
    fallbacks = []
    svd_rcond = linalg.reciprocal_condition

    def counted(a):
        fallbacks.append(a.shape[0])
        return svd_rcond(a)

    monkeypatch.setattr(linalg, "reciprocal_condition", counted)
    decisions = {True: 0, False: 0}
    draws = 4000
    for _ in range(draws):
        n = int(rng.integers(1, 9))
        kappa = 10.0 ** rng.uniform(11.0, 15.0)
        eigs = np.exp(rng.uniform(-np.log(kappa), 0.0, size=n))
        eigs[0], eigs[-1] = 1.0, 1.0 / kappa
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        a = linalg.symmetrize((q * (eigs * 10.0 ** rng.uniform(-3.0, 3.0))) @ q.T)
        singular = svd_rcond(a) < linalg.RCOND_FLOOR
        try:
            linalg.psd_solve(a, np.eye(n))
            raised = False
        except SingularMatrixError as exc:
            assert exc.rcond is not None
            raised = True
        assert raised == singular, (n, kappa)
        decisions[raised] += 1
    # Both decisions occur, and most draws are settled without the SVD.
    assert min(decisions.values()) > draws // 10
    assert 0 < len(fallbacks) < draws // 2


def test_psd_solve_rejects_ill_conditioned_cholesky_factorable():
    c, s = np.cos(0.3), np.sin(0.3)
    rot = np.array([[c, -s], [s, c]])
    a = linalg.symmetrize(rot @ np.diag([1.0, 1e-14]) @ rot.T)
    np.linalg.cholesky(a)  # factorizes, so only the condition gate rejects it
    with pytest.raises(SingularMatrixError) as exc:
        linalg.psd_solve(a, np.eye(2))
    assert exc.value.rcond is not None
    assert exc.value.rcond < linalg.RCOND_FLOOR


def test_check_psd():
    linalg.check_psd(np.diag([1.0, 0.0]))
    with pytest.raises(InvariantViolationError):
        linalg.check_psd(np.diag([1.0, -1e-3]))
    # Tiny negative eigenvalues within tolerance are accepted.
    linalg.check_psd(np.diag([1.0, -1e-12]))


def test_schur_complements():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(5, 5))
    spd = a @ a.T + np.eye(5)
    keep = linalg.schur_complement_keep_last(spd, 2)
    a11 = spd[:3, :3]
    expected = spd[3:, 3:] - spd[3:, :3] @ np.linalg.solve(a11, spd[:3, 3:])
    assert np.allclose(keep, expected, atol=1e-12)
    # Dropping zero rows is the identity.
    assert np.allclose(linalg.schur_complement_remove_first(spd, 0), spd)
    # Inverse consistency: the kept block of the inverse is the inverse of
    # the complement.
    inv_block = np.linalg.inv(spd)[3:, 3:]
    assert np.allclose(np.linalg.inv(keep), inv_block, atol=1e-10)


def test_psd_dominates():
    assert psd_dominates(np.diag([2.0, 2.0]), np.eye(2))
    assert not psd_dominates(np.eye(2), np.diag([2.0, 0.5]))


def test_finite_difference_hessian_quadratic_exact():
    rng = np.random.default_rng(2)
    h = rng.normal(size=(4, 4))
    h = h + h.T
    g = rng.normal(size=4)

    def f(x):  # one value per row of x
        return 0.5 * np.sum((x @ h) * x, axis=1) + x @ g + 3.0

    x0 = rng.normal(size=(5, 4))
    # The batched form sums the rows' Hessians; each is h.
    fd = linalg.finite_difference_hessian(f, x0)
    assert np.allclose(fd, 5 * h, atol=5e-7)
    # The scalar reference, at one point.
    point = point_hessian(lambda x: f(x[None])[0], x0[0])
    assert np.allclose(point, h, atol=1e-7)
