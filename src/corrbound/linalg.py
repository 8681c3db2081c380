"""Small dense linear-algebra helpers with symmetric-PSD safety rails.

Only numpy is used.  A matrix is inverted through its Cholesky factor ``L``
and ``inv(L)``.  It counts as singular, rather than being silently
pseudo-inverted, when its 2-norm reciprocal condition number is below
``RCOND_FLOOR``.  That decision starts from the exact 1-norm reciprocal
condition, formed from the matrix and its inverse.  For a symmetric
``n x n`` matrix, ``rcond_1 <= rcond_2 <= n * rcond_1``.  So a value at or
above the floor accepts and one below ``RCOND_FLOOR / n`` rejects; an SVD
decides only inside the band ``[RCOND_FLOOR / n, RCOND_FLOOR)``, or when the
factorization fails.
"""

from __future__ import annotations

import numpy as np

from .errors import InvariantViolationError, SingularMatrixError

RCOND_FLOOR = 1e-13


def symmetrize(a: np.ndarray) -> np.ndarray:
    """``(a + a^T) / 2`` of a matrix, or of each matrix of a stack."""
    return 0.5 * (a + a.swapaxes(-1, -2))


def reciprocal_condition(a: np.ndarray) -> float:
    if a.size == 0:
        return 1.0
    c = np.linalg.cond(a)
    if not np.isfinite(c) or c == 0.0:
        return 0.0
    return 1.0 / c


def _norm1(a: np.ndarray):
    """1-norm of ``a`` (each matrix of a stack): its largest absolute column sum."""
    return np.maximum.reduce(np.add.reduce(np.abs(a), -2), -1)


def inverse_rcond(a: np.ndarray, inverse: np.ndarray):
    """Exact 1-norm reciprocal condition of ``a`` (each matrix of a stack),
    given its inverse: ``1 / (|a|_1 |inverse|_1)``."""
    return 1.0 / (_norm1(a) * _norm1(inverse))


def cholesky_inverse(a: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Lower Cholesky factor ``L`` of ``a = L L^T`` (each matrix of a stack)
    and ``inv(L)``, or None when either fails."""
    try:
        lower = np.linalg.cholesky(a)
        return lower, np.linalg.inv(lower)
    except np.linalg.LinAlgError:
        return None


def psd_factor(a: np.ndarray, *, context: str = "matrix"
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(L, inv(L), inv(a))`` for symmetric positive-definite ``a = L L^T``,
    or for each matrix of a stack ``(..., n, n)``; ``inv(a)`` is
    ``inv(L)^T inv(L)``.

    Raises :class:`SingularMatrixError` with a condition estimate instead of
    returning a pseudo-inverse when a matrix is not finite, not positive
    definite or numerically singular; in a stack, the first such matrix
    raises.  A matrix whose exact 1-norm reciprocal condition is at least
    ``RCOND_FLOOR`` passes at once and one below ``RCOND_FLOOR / n`` is
    refused; an SVD decides the rest, and a failed factorization.
    """
    # A non-finite matrix is not factored, so that nothing warns before the
    # check below names it.
    factors = cholesky_inverse(a) if np.isfinite(a).all() else None
    if factors is not None:
        lower, lower_inv = factors
        inverse = lower_inv.swapaxes(-1, -2) @ lower_inv
        rcond = inverse_rcond(a, inverse)
        if (rcond >= RCOND_FLOOR).all():
            return lower, lower_inv, inverse
    if a.ndim > 2:  # one matrix at a time, so the first to fail raises
        return tuple(map(np.stack, zip(*(psd_factor(m, context=context) for m in a))))
    if not np.isfinite(a).all():
        raise SingularMatrixError(f"{context} contains non-finite entries")
    if factors is not None and rcond < RCOND_FLOOR / a.shape[0]:
        raise SingularMatrixError(f"{context} is numerically singular", rcond=float(rcond))
    svd_rcond = reciprocal_condition(a)
    if svd_rcond < RCOND_FLOOR:
        raise SingularMatrixError(f"{context} is numerically singular", rcond=svd_rcond)
    if factors is None:
        raise SingularMatrixError(f"{context} is not positive definite", rcond=svd_rcond)
    return lower, lower_inv, inverse


# An overflow is named by psd_factor's gate, not warned.
@np.errstate(over="ignore", invalid="ignore")
def psd_inverse(a: np.ndarray, *, context: str = "matrix") -> np.ndarray:
    """Inverse of symmetric positive-definite ``a``, or of each matrix of a
    stack, after :func:`psd_factor`'s gate; ``a`` is symmetrized first."""
    a = symmetrize(np.asarray(a, dtype=float))
    if a.shape[-1] == 0:
        return a.copy()
    return psd_factor(a, context=context)[2]


def psd_solve(a: np.ndarray, b: np.ndarray, *, context: str = "matrix") -> np.ndarray:
    """Solve ``a @ x = b`` for symmetric positive-definite ``a``.

    ``x`` is ``inv(L)^T (inv(L) b)`` from :func:`psd_factor`, whose gate
    raises :class:`SingularMatrixError` instead of returning a
    pseudo-inverse.  It decides on the exact 1-norm reciprocal condition, and
    an SVD runs only inside the band ``[RCOND_FLOOR / n, RCOND_FLOOR)`` or
    when the factorization fails.  Applying the two triangular factors in
    turn keeps the solve as accurate as triangular solves; multiplying by
    the formed ``inv(a)`` would not be, for an ill-conditioned ``a``.
    """
    a = symmetrize(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float)
    if a.shape[0] == 0:
        return b.copy()
    lower_inv = psd_factor(a, context=context)[1]
    return lower_inv.T @ (lower_inv @ b)


def check_psd(a: np.ndarray, *, rel_tol: float = 1e-10, context: str = "matrix") -> None:
    """Raise unless ``a`` is PSD up to ``-rel_tol * max_eigenvalue``."""
    eigs = np.linalg.eigvalsh(symmetrize(a))
    scale = max(float(eigs[-1]), 0.0)
    floor = -rel_tol * max(scale, 1.0)
    if eigs[0] < floor:
        raise InvariantViolationError(
            f"{context} lost positive semidefiniteness "
            f"(min eigenvalue {eigs[0]:.3e}, max {eigs[-1]:.3e})"
        )


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


def finite_difference_hessian(f, x: np.ndarray) -> np.ndarray:
    """Sum over the rows of ``x`` ``(n, d)`` of each row's central-difference
    Hessian of ``f``, which maps ``(n, d)`` points to ``(n,)`` values.

    The step along coordinate ``i`` of a row is ``1e-4 * (1 + |x_i|)``.
    Each entry is summed as soon as it is formed, so memory stays O(n * d);
    a non-finite value in any row makes that entry's sum non-finite.
    """
    x = np.asarray(x, dtype=float)
    d = x.shape[1]
    h = 1e-4 * (1.0 + np.abs(x))
    f0 = f(x)
    hess = np.zeros((d, d))

    def at(*moves):  # f at x moved by sign * h along each (coordinate, sign)
        y = x.copy()
        for i, sign in moves:
            y[:, i] += sign * h[:, i]
        return f(y)

    # An infinite value gives NaN here on purpose; callers reject non-finite sums.
    with np.errstate(invalid="ignore"):
        for i in range(d):
            hess[i, i] = np.sum((at((i, 1)) - 2.0 * f0 + at((i, -1))) / (h[:, i] * h[:, i]))
            for j in range(i + 1, d):
                value = (at((i, 1), (j, 1)) - at((i, 1), (j, -1)) - at((i, -1), (j, 1))
                         + at((i, -1), (j, -1))) / (4.0 * h[:, i] * h[:, j])
                hess[i, j] = hess[j, i] = np.sum(value)
    return hess
