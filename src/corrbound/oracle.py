"""Brute-force reference: full-horizon joint information and direct reduction.

The joint information matrix over all states up to a horizon is assembled
factor by factor from the same conditional-density factorization the
recursion uses; the information submatrix for the last state then falls out
of one Cholesky factorization.  Agreement with the recursion is the
package's primary correctness check.

Layout.  The factor grids are shaped as in
:func:`corrbound.blocks.factor_frame`, and none is larger than the
recursion frame, ``window + 1`` states.  So the joint over ``x[0] .. x[k]``
(``r``-dimensional states) is banded with upper bandwidth
``u = (window + 1) * r - 1``.  It is kept in LAPACK upper band storage
``ab`` of shape ``(u + 1, (k + 1) * r)``, with ``ab[u + i - j, j] = A[i, j]``
for ``j - u <= i <= j``.  The joint over ``x[0] .. x[t]`` is the leading
``(t + 1) * r`` columns of ``ab`` once the factors up to time ``t - 1`` are
placed.

Reduction.  Partition the upper Cholesky factor ``A = U^T U`` of that prefix
at its last ``r`` columns, ``U = [[U11, U12], [0, U22]]``.  Then
``A22 - A21 A11^-1 A12 = U22^T U22``: the information of ``x[t]`` is the
trailing block of the factor, squared, with no solve and no inverse.  None of
this goes through the recursion's linear-algebra helpers, so the check stays
independent of the step.
"""

from __future__ import annotations

import numpy as np

from .blocks import BlockProvider, ExpectationEstimator
from .errors import ConfigError, SingularMatrixError, require_int
from .models import SystemModel
from .recursion import run


def _place(ab: np.ndarray, grid: np.ndarray) -> None:
    """Add ``grid`` into the band storage ``ab`` so that it ends at ``ab``'s
    last state, one diagonal at a time.

    Each entry is the mean of the grid's two mirror entries, so the joint is
    symmetric by construction.  Diagonals past the band are not read: the
    factor grids fit inside it, and the prior information is block-diagonal.
    """
    u = ab.shape[0] - 1
    m = grid.shape[0]
    for d in range(min(m, u + 1)):
        ab[u - d, d - m:] += 0.5 * (np.diagonal(grid, d) + np.diagonal(grid, -d))


def _prefixes(model: SystemModel, est: ExpectationEstimator, k: int,
              provider: BlockProvider | None):
    """Yield ``(t, prefix)`` for every ``t`` from the window end to ``k``:
    the band storage of the joint over ``x[0] .. x[t]``, as a view of one
    array that later prefixes keep adding to.

    The factors are placed in time order.  The factors at times before ``t``
    reach no state past ``x[t]``, and the ones at ``t`` and later are not
    placed yet, so every entry of the view has received the same additions,
    in the same order, as an assembly that stopped at ``t``.
    """
    start = model.start_time
    r = model.state_dim
    if provider is None and k > start:
        provider = BlockProvider(model, est, start, k)
    ab = np.zeros(((model.profile.window + 1) * r, (k + 1) * r))
    prior = model.prior.information()
    _place(ab[:, :len(prior)], prior)
    for t in range(start, k + 1):
        prefix = ab[:, : (t + 1) * r]
        if t > start:
            # The factors of time t - 1 end at x[t], the prefix's last state.
            b, c = provider.blocks(t - 1)
            _place(prefix, b)
            _place(prefix, c)
        yield t, prefix


def build_joint(model: SystemModel, est: ExpectationEstimator, k: int,
                provider: BlockProvider | None = None) -> np.ndarray:
    """Joint information over ``x[0] .. x[k]`` under the factorized density,
    in the upper band storage described in the module docstring.  ``k`` is at
    least the prior window end, ``model.start_time``."""
    require_int(k, "k", model.start_time)
    for _, prefix in _prefixes(model, est, k, provider):
        pass  # the last prefix is the whole joint
    return prefix


def _scipy_linalg():
    """``scipy.linalg``, which only the oracle loads; without it, a
    :class:`ConfigError` names the ``oracle`` extra, which installs it."""
    try:
        import scipy.linalg
    except ImportError:
        raise ConfigError("the oracle needs scipy: pip install 'corrbound[oracle]'") from None
    return scipy.linalg


def last_state_information(prefix: np.ndarray, r: int, t: int) -> np.ndarray:
    """Information of ``x[t]`` from the band-stored joint over ``x[0] .. x[t]``.

    Raises :class:`SingularMatrixError` naming ``t`` when LAPACK ``pbtrf``
    finds the joint not positive definite.  scipy is imported here (see
    :func:`_scipy_linalg`).
    """
    linalg = _scipy_linalg()
    try:
        factor = linalg.cholesky_banded(prefix)
    except linalg.LinAlgError as exc:
        raise SingularMatrixError(
            f"joint information over x[0] .. x[{t}] is not positive definite ({exc})"
        ) from exc
    u = prefix.shape[0] - 1
    u22 = np.zeros((r, r))
    for j in range(r):
        u22[: j + 1, j] = factor[u - j:, j - r]
    return u22.T @ u22


def information_sequence(model: SystemModel, est: ExpectationEstimator, k_max: int,
                         provider: BlockProvider | None = None) -> dict[int, np.ndarray]:
    """Oracle information submatrices for every time from the window end to ``k_max``.

    One assembly serves every time: each prefix of it is factored on its own.
    ``k_max`` is at least the prior window end, ``model.start_time``.
    Without scipy it raises before any block is built.
    """
    require_int(k_max, "k_max", model.start_time)
    _scipy_linalg()
    r = model.state_dim
    return {t: last_state_information(prefix, r, t)
            for t, prefix in _prefixes(model, est, k_max, provider)}


# ---------------------------------------------------------------------------
# Recursion-vs-oracle comparison
# ---------------------------------------------------------------------------


def max_relative_deviation(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(a - b)) / scale)


def verify_recursion(model: SystemModel, est: ExpectationEstimator, k_max: int
                     ) -> dict[int, float]:
    """Per-time maximum relative deviation between recursion and oracle.

    Both sides consume the same block provider, so the check isolates the
    assembly and marginalization algebra from Monte-Carlo noise.  ``k_max``
    is past the prior window end, ``model.start_time``.  Without scipy it
    raises before any block is built.
    """
    start = model.start_time
    require_int(k_max, "k_max", start + 1)
    _scipy_linalg()
    provider = BlockProvider(model, est, start, k_max)
    oracle_seq = information_sequence(model, est, k_max, provider=provider)
    trace = run(model, est, k_max - start, provider=provider)
    return {start + s: max_relative_deviation(trace.info[i], oracle_seq[start + s])
            for s, i in enumerate(trace.index.tolist(), 1)}
