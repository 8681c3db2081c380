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
trailing block of the factor, squared, with no solve and no inverse.

Factorization.  Every prefix is factored from scratch: unlike the
recursion, the oracle carries nothing from one time to the next.  The band
Cholesky is written here in numpy: it factors up to ``_STACK`` prefixes in
lockstep, one column at a time, so each numpy call serves the whole stack.
None of this goes through the recursion's linear-algebra helpers, so the
check stays independent of the step.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .blocks import BlockProvider, ExpectationEstimator
from .errors import SingularMatrixError, require_int
from .models import SystemModel
from .recursion import run


def _place(ab: np.ndarray, grid: np.ndarray) -> None:
    """Add ``grid`` into the band storage ``ab`` so that it ends at ``ab``'s
    last state, one diagonal at a time.

    Each entry is the mean of the grid's two mirror entries, formed once for
    the whole grid, so the joint is symmetric by construction.  Diagonals
    past the band are not read: the factor grids fit inside it, and the
    prior information is block-diagonal.
    """
    u = ab.shape[0] - 1
    m = grid.shape[0]
    mean = 0.5 * (grid + grid.T)
    for d in range(min(m, u + 1)):
        ab[u - d, d - m:] += np.diagonal(mean, d)


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


# Prefixes factored together: enough that each per-column numpy call serves
# many prefixes, few enough that the memory in flight stays small.
_STACK = 256


def _factor_column(win: np.ndarray, low: np.ndarray, out: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Factor the first column of the stacked symmetric window ``win``,
    shape ``(n, n, members)``: return the upper Cholesky factor's diagonal
    entry and the rest of its row, and write the Schur complement of the
    other columns to ``out[:-1, :-1]``, which may be ``win`` itself.
    ``low`` keeps each member's smallest pivot."""
    pivot = win[0, 0]
    np.minimum(low, pivot, out=low)
    root = np.sqrt(pivot)
    row = win[0, 1:] / root
    np.subtract(win[1:, 1:], row[:, None] * row, out=out[:-1, :-1])
    return root, row


def _factor_stack(head: np.ndarray, tails: np.ndarray, r: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Information of the last state of every member of a stack of band-stored
    prefixes, shape ``(members, r, r)``, and each member's smallest pivot.

    Member ``i`` of ``members`` is the columns of ``head`` but its last
    ``(members - 1 - i) * r``, then its own columns ``tails[:, :, i]``.  The
    members are factored together, one column at a time: each is padded in
    front with identity columns to the longest's length, which leaves its
    factor unchanged, and so every member reads its next column from one
    strided slice.  A window of the last ``m`` columns, ``m`` the band's
    rows, holds what the factorization has left of them: the column that
    comes in fills its last row and column, and factoring its first column
    moves the rest up and left, into a second window.  A pivot that is not
    positive, or NaN, marks a joint that is not positive definite.
    """
    m, _, members = tails.shape
    pad = (members - 1) * r
    cols = np.zeros((m, pad + head.shape[1]))
    cols[-1, :pad] = 1.0
    cols[:, pad:] = head
    win = np.zeros((m, m, members))
    win[range(m), range(m)] = 1.0
    spare = np.empty_like(win)
    low = np.ones(members)
    columns = chain((cols[:, c:c + pad + 1:r] for c in range(head.shape[1])),
                    tails.transpose(1, 0, 2))
    # A member whose pivot fails goes NaN, silently; the others are untouched.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for col in columns:
            win[:, -1] = col
            win[-1, :] = col
            _factor_column(win, low, spare)
            win, spare = spare, win
        # win[:m - 1, :m - 1] is what is left of the last m - 1 columns;
        # factor all but the last state's r of them, then those r.
        for n in range(m - 1, r, -1):
            _factor_column(win[:n, :n], low, win[:n, :n])
        u22 = np.zeros((r, r, members))
        for i in range(r):
            left = win[:r - i, :r - i]
            u22[i, i], u22[i, i + 1:] = _factor_column(left, low, left)
        return np.einsum("iam,ibm->mab", u22, u22), low


def _refuse(times: list[int], low: np.ndarray) -> None:
    """Raise :class:`SingularMatrixError` naming the earliest of ``times``
    whose smallest pivot is not positive."""
    bad = np.flatnonzero(~(low > 0))
    if bad.size:
        i = bad[0]
        raise SingularMatrixError(
            f"joint information over x[0] .. x[{times[i]}] is not positive definite "
            f"(smallest Cholesky pivot {low[i]:.3e})")


def last_state_information(prefix: np.ndarray, r: int, t: int) -> np.ndarray:
    """Information of ``x[t]`` from the band-stored joint over ``x[0] .. x[t]``.

    The one-member case of :func:`information_sequence`'s factorization, for
    a band of more than ``r`` rows, as every joint's is.  Raises
    :class:`SingularMatrixError` naming ``t`` when the joint is not positive
    definite.
    """
    # One member, with no columns of its own.
    info, low = _factor_stack(prefix, np.empty((len(prefix), 0, 1)), r)
    _refuse([t], low)
    return info[0]


def information_sequence(model: SystemModel, est: ExpectationEstimator, k_max: int,
                         provider: BlockProvider | None = None) -> dict[int, np.ndarray]:
    """Oracle information submatrices for every time from the window end to ``k_max``.

    One assembly serves every time, and each prefix of it is factored from
    scratch, up to ``_STACK`` prefixes at a time.  The last ``window`` states'
    columns of a prefix still change as later factors are placed, so they
    are copied when the prefix is reached; its other columns are final by
    then, and the stack reads them from the longest prefix.  ``k_max`` is at
    least the prior window end, ``model.start_time``.
    """
    require_int(k_max, "k_max", model.start_time)
    r = model.state_dim
    own = model.profile.window * r
    seq: dict[int, np.ndarray] = {}
    times, tails = [], []
    for t, prefix in _prefixes(model, est, k_max, provider):
        times.append(t)
        tails.append(prefix[:, -own:].copy())
        if len(times) == _STACK or t == k_max:
            info, low = _factor_stack(prefix[:, :-own], np.stack(tails, axis=-1), r)
            _refuse(times, low)
            seq.update(zip(times, info))
            times, tails = [], []
    return seq


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
    is past the prior window end, ``model.start_time``.
    """
    start = model.start_time
    require_int(k_max, "k_max", start + 1)
    provider = BlockProvider(model, est, start, k_max)
    oracle_seq = information_sequence(model, est, k_max, provider=provider)
    trace = run(model, est, k_max - start, provider=provider)
    return {start + s: max_relative_deviation(trace.info[i], oracle_seq[start + s])
            for s, i in enumerate(trace.index.tolist(), 1)}
