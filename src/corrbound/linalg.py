"""Small dense linear-algebra helpers with symmetric-PSD safety rails."""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import InvariantViolationError, SingularMatrixError

# A solve is treated as singular, rather than silently pseudo-inverted, when
# the 2-norm reciprocal condition number of the matrix is below this floor.
# ``psd_solve`` reaches that decision from the LAPACK 1-norm estimate of the
# Cholesky factor and runs an SVD only when the estimate is too close to the
# floor to decide, or when the factorization fails.
RCOND_FLOOR = 1e-13

_POTRF, _POCON, _POTRS, _LANGE, _SYEVD = scipy.linalg.get_lapack_funcs(
    ("potrf", "pocon", "potrs", "lange", "syevd"), (np.empty((1, 1)),)
)


def symmetrize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


def block_slice(slot: int, block_dim: int) -> slice:
    """Rows (or columns) of 0-based block ``slot`` in a grid of ``block_dim`` blocks."""
    return slice(slot * block_dim, (slot + 1) * block_dim)


def reciprocal_condition(a: np.ndarray) -> float:
    if a.size == 0:
        return 1.0
    c = np.linalg.cond(a)
    if not np.isfinite(c) or c == 0.0:
        return 0.0
    return 1.0 / c


def psd_solve(a: np.ndarray, b: np.ndarray, *, context: str = "matrix") -> np.ndarray:
    """Solve ``a @ x = b`` for symmetric positive-definite ``a``.

    Raises SingularMatrixError with a condition estimate instead of returning
    a pseudo-inverse when ``a`` is singular or nearly so.

    The gate is ``reciprocal_condition(a) < RCOND_FLOOR``.  For a symmetric
    ``n x n`` matrix the 1-norm and 2-norm reciprocal conditions satisfy
    ``rcond_1 <= rcond_2 <= n * rcond_1``, and the LAPACK estimate of
    ``rcond_1`` is not below its true value (up to rounding).  So an
    estimate under ``RCOND_FLOOR / n`` rejects outright; one at or above
    ``n * RCOND_FLOOR`` accepts unless the estimate is off by more than a
    factor ``n``; anything in between, or a failed factorization, is decided
    by the SVD.
    """
    a = symmetrize(np.asarray(a, dtype=float))
    if not np.isfinite(a).all():
        raise SingularMatrixError(f"{context} contains non-finite entries")
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    if n == 0:
        return b.copy()
    factor, info = _POTRF(a, lower=1)
    if info == 0:
        rcond, _ = _POCON(factor, _LANGE("1", a), uplo="L")
        if rcond < RCOND_FLOOR / n:
            raise SingularMatrixError(f"{context} is numerically singular", rcond=rcond)
        if rcond >= n * RCOND_FLOOR:
            return _POTRS(factor, b, lower=1)[0]
    rcond = reciprocal_condition(a)
    if rcond < RCOND_FLOOR:
        raise SingularMatrixError(f"{context} is numerically singular", rcond=rcond)
    if info != 0:
        raise SingularMatrixError(
            f"{context} is not positive definite: "
            f"{info}-th leading minor of the array is not positive definite",
            rcond=rcond,
        )
    return _POTRS(factor, b, lower=1)[0]


def psd_inverse(a: np.ndarray, *, context: str = "matrix") -> np.ndarray:
    eye = np.eye(a.shape[0])
    return symmetrize(psd_solve(a, eye, context=context))


def check_psd(a: np.ndarray, *, rel_tol: float = 1e-10, context: str = "matrix") -> None:
    """Raise unless ``a`` is PSD up to ``-rel_tol * max_eigenvalue``."""
    eigs, _, info = _SYEVD(symmetrize(a), compute_v=0, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"{context}: eigenvalues did not converge")
    scale = max(float(eigs[-1]), 0.0)
    floor = -rel_tol * max(scale, 1.0)
    if eigs[0] < floor:
        raise InvariantViolationError(
            f"{context} lost positive semidefiniteness "
            f"(min eigenvalue {eigs[0]:.3e}, max {eigs[-1]:.3e})"
        )


def psd_dominates(a: np.ndarray, b: np.ndarray, tol: float = 1e-10) -> bool:
    """True when ``a - b`` is PSD up to an absolute eigenvalue tolerance."""
    diff = symmetrize(a) - symmetrize(b)
    eigs = np.linalg.eigvalsh(symmetrize(diff))
    scale = max(abs(float(eigs[-1])), 1.0)
    return bool(eigs[0] >= -tol * scale)


def schur_complement_remove_first(m: np.ndarray, drop: int, *, context: str = "joint") -> np.ndarray:
    """Schur complement of the leading ``drop x drop`` block of ``m``."""
    m = np.asarray(m, dtype=float)
    if drop == 0:
        return m.copy()
    a11 = m[:drop, :drop]
    a12 = m[:drop, drop:]
    a21 = m[drop:, :drop]
    a22 = m[drop:, drop:]
    return symmetrize(a22 - a21 @ psd_solve(a11, a12, context=f"{context} leading block"))


def schur_complement_keep_last(m: np.ndarray, keep: int, *, context: str = "joint") -> np.ndarray:
    return schur_complement_remove_first(m, m.shape[0] - keep, context=context)


def finite_difference_hessian(f, x: np.ndarray, base_step: float = 1e-4) -> np.ndarray:
    """Central-difference Hessian of scalar ``f`` at ``x``.

    Step along coordinate ``i`` is ``base_step * (1 + |x_i|)``.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    h = base_step * (1.0 + np.abs(x))
    hess = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = h[i]
            ej[j] = h[j]
            if i == j:
                value = (f(x + ei) - 2.0 * f(x) + f(x - ei)) / (h[i] * h[i])
            else:
                value = (
                    f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
                ) / (4.0 * h[i] * h[j])
            hess[i, j] = value
            hess[j, i] = value
    return hess
