"""Case-by-case reference steps and partitioned-matrix identities.

A profile's effective lags select one of three step layouts
(:func:`select_case`); the library step does not need the case, only the
slot layout in ``corrbound.blocks.factor_frame``.  The steppers below are
the specialized recursions for one kind of noise correlation at a time,
plus the classical white-noise information recursion
(Tichavsky, Muravchik & Nehorai, IEEE TSP 46(5), 1998) that they all reduce
to without correlation.  Each is written out from its own block formulas,
independently of the slot layout in ``corrbound.blocks.factor_frame``, so
the tests compare the library's single step against separate algebra.

Block indices are 1-based as in the partitioned-matrix notation, and
reading a block outside a grid gives the zero block, so the formulas need
no boundary special cases.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from corrbound.linalg import block_slice, check_psd, psd_solve, symmetrize
from corrbound.profiles import CorrelationProfile
from corrbound.recursion import PSD_REL_TOL, RecursionState


class CaseTag(Enum):
    """Which step layout a profile selects (relation of l3' to l2'+1)."""

    GREATER = "greater"  # l3' > l2' + 1
    LESS = "less"        # l3' < l2' + 1
    EQUAL = "equal"      # l3' = l2' + 1


def effective_lags(profile: CorrelationProfile) -> tuple[int, int]:
    """Return ``(max(l2, 1), max(l3, 1))``."""
    return profile.l2_eff, profile.l3_eff


def select_case(profile: CorrelationProfile) -> CaseTag:
    l2e, l3e = effective_lags(profile)
    if l3e > l2e + 1:
        return CaseTag.GREATER
    if l3e < l2e + 1:
        return CaseTag.LESS
    return CaseTag.EQUAL


def block(grid: np.ndarray, i: int, j: int, r: int) -> np.ndarray:
    """Block ``(i, j)`` (1-based) of a grid of ``r``-blocks; zero outside it."""
    rows, cols = grid.shape[0] // r, grid.shape[1] // r
    if not (1 <= i <= rows and 1 <= j <= cols):
        return np.zeros((r, r))
    return grid[block_slice(i - 1, r), block_slice(j - 1, r)]


def _reader(grid: np.ndarray, r: int):
    return lambda i, j: block(grid, i, j, r)


def _grid(blocks: dict[tuple[int, int], np.ndarray], size: int, r: int) -> np.ndarray:
    out = np.zeros((size * r, size * r))
    for (i, j), value in blocks.items():
        out[block_slice(i - 1, r), block_slice(j - 1, r)] = value
    return out


def _block_dim(state: RecursionState) -> int:
    return state.carry.shape[0] // state.profile.window


def _solve(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    return psd_solve(a, rhs, context="specialized-step pivot")


def step_cross_correlated(state: RecursionState, b: np.ndarray, c: np.ndarray
                          ) -> tuple[np.ndarray, RecursionState]:
    """Step for backward cross-correlated measurement noise only (l1=l2=l4=0)."""
    p = state.profile
    if not (p.l1 == 0 and p.l2 == 0 and p.l4 == 0):
        raise ValueError("cross-correlated path requires a profile (0, 0, l, 0)")
    lag = p.l3
    r = _block_dim(state)
    e, bb, cc = _reader(state.carry, r), _reader(b, r), _reader(c, r)

    if lag <= 1:
        pivot = e(1, 1) + bb(1, 1)
        e_new = bb(2, 2) + cc(1, 1) - bb(2, 1) @ _solve(pivot, bb(1, 2))
        d11 = bb(1, 1)
        d21 = bb(2, 1)
        d22 = bb(2, 2) + cc(1, 1)
        j_next = symmetrize(d22 - d21 @ _solve(d11 + e(1, 1), d21.T))
        carry = symmetrize(e_new)
    elif lag == 2:
        pivot = e(1, 1) + bb(1, 1) + cc(1, 1)
        left = bb(2, 1) + cc(2, 1)
        right = bb(1, 2) + cc(1, 2)
        e_new = cc(2, 2) + bb(2, 2) - left @ _solve(pivot, right)
        d11 = bb(1, 1) + cc(1, 1)
        d21 = bb(2, 1) + cc(2, 1)
        d22 = bb(2, 2) + cc(2, 2)
        j_next = symmetrize(d22 - d21 @ _solve(d11 + e(1, 1), d21.T))
        carry = symmetrize(e_new)
    else:
        size = lag - 1
        pivot = e(1, 1) + cc(1, 1)
        carry_blocks = {}
        for i in range(1, size + 1):
            left = e(i + 1, 1) + cc(i + 1, 1)
            for j in range(1, size + 1):
                right = e(1, j + 1) + cc(1, j + 1)
                carry_blocks[i, j] = (
                    e(i + 1, j + 1)
                    + bb(i + 3 - lag, j + 3 - lag)
                    + cc(i + 1, j + 1)
                    - left @ _solve(pivot, right)
                )
        carry = symmetrize(_grid(carry_blocks, size, r))
        d11 = _grid({
            (i, j): cc(i, j) + bb(i + 2 - lag, j + 2 - lag)
            for i in range(1, size + 1) for j in range(1, size + 1)
        }, size, r)
        d21 = np.hstack([cc(lag, j) + bb(2, j + 2 - lag) for j in range(1, size + 1)])
        d22 = cc(lag, lag) + bb(2, 2)
        gram = d11 + state.carry
        j_next = symmetrize(d22 - d21 @ _solve(gram, d21.T))

    check_psd(j_next, rel_tol=PSD_REL_TOL, context="information submatrix")
    return j_next, RecursionState(state.k + 1, carry, p)


def step_autocorrelated_process(state: RecursionState, b: np.ndarray, c: np.ndarray
                                ) -> tuple[np.ndarray, RecursionState]:
    """Step for auto-correlated process noise only (l1=l3=l4=0)."""
    p = state.profile
    if not (p.l1 == 0 and p.l3 == 0 and p.l4 == 0):
        raise ValueError("auto-correlated-process path requires a profile (0, l, 0, 0)")
    l2e = p.l2_eff
    r = _block_dim(state)
    e, bb, cc = _reader(state.carry, r), _reader(b, r), _reader(c, r)

    pivot = e(1, 1) + bb(1, 1)
    carry_blocks = {}
    for i in range(1, l2e + 1):
        left = e(i + 1, 1) + bb(i + 1, 1)
        for j in range(1, l2e + 1):
            right = e(1, j + 1) + bb(1, j + 1)
            carry_blocks[i, j] = (
                e(i + 1, j + 1)
                + cc(i + 1 - l2e, j + 1 - l2e)
                + bb(i + 1, j + 1)
                - left @ _solve(pivot, right)
            )
    carry = symmetrize(_grid(carry_blocks, l2e, r))

    d11 = _grid({
        (i, j): bb(i, j) for i in range(1, l2e + 1) for j in range(1, l2e + 1)
    }, l2e, r)
    d21 = np.hstack([bb(l2e + 1, j) for j in range(1, l2e + 1)])
    d22 = bb(l2e + 1, l2e + 1) + cc(1, 1)
    gram = d11 + state.carry
    j_next = symmetrize(d22 - d21 @ _solve(gram, d21.T))
    check_psd(j_next, rel_tol=PSD_REL_TOL, context="information submatrix")
    return j_next, RecursionState(state.k + 1, carry, p)


def step_process_lag2(state: RecursionState, b: np.ndarray, c: np.ndarray
                      ) -> tuple[np.ndarray, RecursionState]:
    """Simplified two-lag auto-correlated-process step (explicit 2x2 carry update)."""
    p = state.profile
    if not (p.l1 == 0 and p.l3 == 0 and p.l4 == 0 and p.l2 == 2):
        raise ValueError("simplified path requires a profile (0, 2, 0, 0)")
    r = _block_dim(state)
    e, bb, cc = _reader(state.carry, r), _reader(b, r), _reader(c, r)
    pivot = e(1, 1) + bb(1, 1)
    left = e(2, 1) + bb(2, 1)

    e11 = e(2, 2) + bb(2, 2) - left @ _solve(pivot, left.T)
    e12 = bb(2, 3) - left @ _solve(pivot, bb(1, 3))
    e22 = (
        bb(3, 3) + cc(1, 1)
        - bb(3, 1) @ _solve(pivot, bb(1, 3))
    )
    carry = symmetrize(_grid({(1, 1): e11, (1, 2): e12, (2, 1): e12.T, (2, 2): e22}, 2, r))

    d11 = np.block([
        [bb(1, 1), bb(1, 2)],
        [bb(2, 1), bb(2, 2)],
    ])
    d21 = np.hstack([bb(3, 1), bb(3, 2)])
    d22 = bb(3, 3) + cc(1, 1)
    j_next = symmetrize(d22 - d21 @ _solve(d11 + state.carry, d21.T))
    check_psd(j_next, rel_tol=PSD_REL_TOL, context="information submatrix")
    return j_next, RecursionState(state.k + 1, carry, p)


def step_autocorrelated_measurement(j_k: np.ndarray, d11: np.ndarray, d12: np.ndarray,
                                    d22: np.ndarray) -> np.ndarray:
    """Step for auto-correlated measurement noise only: the carry is the
    information submatrix itself.  ``d11``/``d12``/``d22`` partition the
    one-step contribution into the old state, the coupling and the new state."""
    gram = d11 + j_k
    return symmetrize(d22 - d12.T @ psd_solve(gram, d12, context="step gram matrix"))


def step_autocorrelated_measurement_state(state: RecursionState, b: np.ndarray,
                                          c: np.ndarray) -> tuple[np.ndarray, RecursionState]:
    """State-threaded wrapper around :func:`step_autocorrelated_measurement`."""
    p = state.profile
    if not (p.l2 == 0 and p.l3 == 0 and p.l4 == 0):
        raise ValueError("measurement-only path requires a profile (l, 0, 0, 0)")
    r = _block_dim(state)
    bb, cc = _reader(b, r), _reader(c, r)
    j_next = step_autocorrelated_measurement(
        block(state.carry, 1, 1, r), bb(1, 1), bb(1, 2), bb(2, 2) + cc(1, 1)
    )
    check_psd(j_next, rel_tol=PSD_REL_TOL, context="information submatrix")
    return j_next, RecursionState(state.k + 1, j_next, p)


def classical_step(j_k: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Uncorrelated-noise information step (white process and measurement noise)."""
    r = j_k.shape[0]
    d11 = block(b, 1, 1, r)
    d12 = block(b, 1, 2, r)
    d22 = block(b, 2, 2, r) + block(c, 1, 1, r)
    return symmetrize(d22 - d12.T @ psd_solve(d11 + j_k, d12, context="classical gram"))


# ---------------------------------------------------------------------------
# Partitioned-inverse identities
# ---------------------------------------------------------------------------


def partitioned_inverse(a: np.ndarray, split: int) -> np.ndarray:
    """Inverse of a partitioned matrix reconstructed from its leading block
    and the Schur complement, as a product of triangular and block-diagonal
    factors."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    a11 = a[:split, :split]
    a12 = a[:split, split:]
    a21 = a[split:, :split]
    a22 = a[split:, split:]
    a11_inv = np.linalg.inv(a11)
    delta = a22 - a21 @ a11_inv @ a12
    delta_inv = np.linalg.inv(delta)

    upper = np.eye(n)
    upper[:split, split:] = -a11_inv @ a12
    middle = np.zeros((n, n))
    middle[:split, :split] = a11_inv
    middle[split:, split:] = delta_inv
    lower = np.eye(n)
    lower[split:, :split] = -a21 @ a11_inv
    return upper @ middle @ lower


def contract_through_inverse(b_row: np.ndarray, a: np.ndarray, c_col: np.ndarray,
                             split: int) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate ``B A^{-1} C`` directly and through the partitioned identity.

    Returns both values; they agree whenever ``A`` and its leading block are
    invertible, which property tests exercise.
    """
    b_row = np.atleast_2d(np.asarray(b_row, dtype=float))
    c_col = np.asarray(c_col, dtype=float)
    if c_col.ndim == 1:
        c_col = c_col[:, None]
    a = np.asarray(a, dtype=float)

    direct = b_row @ np.linalg.solve(a, c_col)

    b1 = b_row[:, :split]
    b2 = b_row[:, split:]
    c1 = c_col[:split, :]
    c2 = c_col[split:, :]
    a11 = a[:split, :split]
    a12 = a[:split, split:]
    a21 = a[split:, :split]
    a22 = a[split:, split:]
    a11_inv = np.linalg.inv(a11)
    delta = a22 - a21 @ a11_inv @ a12
    factored = b1 @ a11_inv @ c1 + (b2 - b1 @ a11_inv @ a12) @ np.linalg.solve(
        delta, c2 - a21 @ a11_inv @ c1
    )
    return direct, factored
