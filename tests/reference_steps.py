"""Case-by-case reference steps, plain loops, the dense full-horizon joint,
partitioned-matrix identities and per-sample finite differences.

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

from corrbound.baselines import _augmented_step, augmented_system
from corrbound import blocks as _blocks
from corrbound.blocks import (
    _PURPOSE_SAMPLE,
    BlockProvider,
    ExpectationEstimator,
    _split,
    _substream,
    factor_frame,
)
from corrbound.linalg import (
    check_psd,
    psd_solve,
    schur_complement_keep_last,
    schur_complement_remove_first,
    symmetrize,
)
from corrbound.models import SystemModel, TrajectoryBatch
from corrbound.profiles import CorrelationProfile
from corrbound.recursion import PSD_REL_TOL, PCRBTrace, init_state, step, trace_rows


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


def block_slice(slot: int, block_dim: int) -> slice:
    """Rows (or columns) of 0-based block ``slot`` in a grid of ``block_dim`` blocks."""
    return slice(slot * block_dim, (slot + 1) * block_dim)


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


def _solve(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    return psd_solve(a, rhs, context="specialized-step pivot")


def step_cross_correlated(p: CorrelationProfile, carry: np.ndarray, b: np.ndarray,
                          c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Step for backward cross-correlated measurement noise only (l1=l2=l4=0)."""
    if not (p.l1 == 0 and p.l2 == 0 and p.l4 == 0):
        raise ValueError("cross-correlated path requires a profile (0, 0, l, 0)")
    lag = p.l3
    r = carry.shape[0] // p.window
    e, bb, cc = _reader(carry, r), _reader(b, r), _reader(c, r)

    if lag <= 1:
        pivot = e(1, 1) + bb(1, 1)
        e_new = bb(2, 2) + cc(1, 1) - bb(2, 1) @ _solve(pivot, bb(1, 2))
        d11 = bb(1, 1)
        d21 = bb(2, 1)
        d22 = bb(2, 2) + cc(1, 1)
        j_next = symmetrize(d22 - d21 @ _solve(d11 + e(1, 1), d21.T))
        carry_next = symmetrize(e_new)
    elif lag == 2:
        pivot = e(1, 1) + bb(1, 1) + cc(1, 1)
        left = bb(2, 1) + cc(2, 1)
        right = bb(1, 2) + cc(1, 2)
        e_new = cc(2, 2) + bb(2, 2) - left @ _solve(pivot, right)
        d11 = bb(1, 1) + cc(1, 1)
        d21 = bb(2, 1) + cc(2, 1)
        d22 = bb(2, 2) + cc(2, 2)
        j_next = symmetrize(d22 - d21 @ _solve(d11 + e(1, 1), d21.T))
        carry_next = symmetrize(e_new)
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
        carry_next = symmetrize(_grid(carry_blocks, size, r))
        d11 = _grid({
            (i, j): cc(i, j) + bb(i + 2 - lag, j + 2 - lag)
            for i in range(1, size + 1) for j in range(1, size + 1)
        }, size, r)
        d21 = np.hstack([cc(lag, j) + bb(2, j + 2 - lag) for j in range(1, size + 1)])
        d22 = cc(lag, lag) + bb(2, 2)
        gram = d11 + carry
        j_next = symmetrize(d22 - d21 @ _solve(gram, d21.T))

    check_psd(j_next, rel_tol=PSD_REL_TOL, context="information submatrix")
    return carry_next, j_next


def step_autocorrelated_process(p: CorrelationProfile, carry: np.ndarray, b: np.ndarray,
                                c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Step for auto-correlated process noise only (l1=l3=l4=0)."""
    if not (p.l1 == 0 and p.l3 == 0 and p.l4 == 0):
        raise ValueError("auto-correlated-process path requires a profile (0, l, 0, 0)")
    l2e = p.l2_eff
    r = carry.shape[0] // p.window
    e, bb, cc = _reader(carry, r), _reader(b, r), _reader(c, r)

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
    carry_next = symmetrize(_grid(carry_blocks, l2e, r))

    d11 = _grid({
        (i, j): bb(i, j) for i in range(1, l2e + 1) for j in range(1, l2e + 1)
    }, l2e, r)
    d21 = np.hstack([bb(l2e + 1, j) for j in range(1, l2e + 1)])
    d22 = bb(l2e + 1, l2e + 1) + cc(1, 1)
    gram = d11 + carry
    j_next = symmetrize(d22 - d21 @ _solve(gram, d21.T))
    check_psd(j_next, rel_tol=PSD_REL_TOL, context="information submatrix")
    return carry_next, j_next


def step_process_lag2(p: CorrelationProfile, carry: np.ndarray, b: np.ndarray,
                      c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Simplified two-lag auto-correlated-process step (explicit 2x2 carry update)."""
    if not (p.l1 == 0 and p.l3 == 0 and p.l4 == 0 and p.l2 == 2):
        raise ValueError("simplified path requires a profile (0, 2, 0, 0)")
    r = carry.shape[0] // p.window
    e, bb, cc = _reader(carry, r), _reader(b, r), _reader(c, r)
    pivot = e(1, 1) + bb(1, 1)
    left = e(2, 1) + bb(2, 1)

    e11 = e(2, 2) + bb(2, 2) - left @ _solve(pivot, left.T)
    e12 = bb(2, 3) - left @ _solve(pivot, bb(1, 3))
    e22 = (
        bb(3, 3) + cc(1, 1)
        - bb(3, 1) @ _solve(pivot, bb(1, 3))
    )
    carry_next = symmetrize(_grid({(1, 1): e11, (1, 2): e12, (2, 1): e12.T, (2, 2): e22}, 2, r))

    d11 = np.block([
        [bb(1, 1), bb(1, 2)],
        [bb(2, 1), bb(2, 2)],
    ])
    d21 = np.hstack([bb(3, 1), bb(3, 2)])
    d22 = bb(3, 3) + cc(1, 1)
    j_next = symmetrize(d22 - d21 @ _solve(d11 + carry, d21.T))
    check_psd(j_next, rel_tol=PSD_REL_TOL, context="information submatrix")
    return carry_next, j_next


def step_autocorrelated_measurement(j_k: np.ndarray, d11: np.ndarray, d12: np.ndarray,
                                    d22: np.ndarray) -> np.ndarray:
    """Step for auto-correlated measurement noise only: the carry is the
    information submatrix itself.  ``d11``/``d12``/``d22`` partition the
    one-step contribution into the old state, the coupling and the new state."""
    gram = d11 + j_k
    return symmetrize(d22 - d12.T @ psd_solve(gram, d12, context="step gram matrix"))


def step_autocorrelated_measurement_state(p: CorrelationProfile, carry: np.ndarray,
                                          b: np.ndarray, c: np.ndarray
                                          ) -> tuple[np.ndarray, np.ndarray]:
    """:func:`step_autocorrelated_measurement` as a ``run`` stepper."""
    if not (p.l2 == 0 and p.l3 == 0 and p.l4 == 0):
        raise ValueError("measurement-only path requires a profile (l, 0, 0, 0)")
    r = carry.shape[0] // p.window
    bb, cc = _reader(b, r), _reader(c, r)
    j_next = step_autocorrelated_measurement(
        block(carry, 1, 1, r), bb(1, 1), bb(1, 2), bb(2, 2) + cc(1, 1)
    )
    check_psd(j_next, rel_tol=PSD_REL_TOL, context="information submatrix")
    return j_next, j_next


def classical_step(j_k: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Uncorrelated-noise information step (white process and measurement noise)."""
    r = j_k.shape[0]
    d11 = block(b, 1, 1, r)
    d12 = block(b, 1, 2, r)
    d22 = block(b, 2, 2, r) + block(c, 1, 1, r)
    return symmetrize(d22 - d12.T @ psd_solve(d11 + j_k, d12, context="classical gram"))


# ---------------------------------------------------------------------------
# Plain loops: every step computed, nothing reused
# ---------------------------------------------------------------------------


def run_plain(model: SystemModel, est: ExpectationEstimator, horizon: int,
              stepper=step, provider: BlockProvider | None = None) -> PCRBTrace:
    """``corrbound.run`` without reuse of repeated steps."""
    carry = init_state(model)
    start = model.start_time
    if provider is None:
        provider = BlockProvider(model, est, start, start + horizon)
    infos = []
    for k in range(start, start + horizon):
        b, c = provider.blocks(k)
        carry, info = stepper(model.profile, carry, b, c)
        infos.append(info)
    return PCRBTrace(*trace_rows(infos), range(horizon), start, provider.report.resampled)


def pcrb_augmented_plain(model: SystemModel, horizon: int) -> PCRBTrace:
    """``corrbound.pcrb_augmented`` without reuse of repeated steps."""
    f_aug, q_aug, h_aug, r_inv, p = augmented_system(model)
    info_meas = symmetrize(h_aug.T @ r_inv @ h_aug)
    infos = []
    for _ in range(horizon):
        p, info_x = _augmented_step(p, f_aug, q_aug, info_meas, model.state_dim)
        infos.append(info_x)
    return PCRBTrace(*trace_rows(infos), range(horizon), model.start_time)


def schur_form_step(profile: CorrelationProfile, carry: np.ndarray, b: np.ndarray,
                    c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``corrbound.step`` as two explicit Schur complements on the frame, with
    a PSD check of J: the carry pivot solve eliminates the leaving state, the
    information pivot solve reduces the new carry to its last block."""
    m = profile.window
    r = carry.shape[0] // m
    frame = factor_frame(b, c, profile)
    frame[:-r, :-r] += carry
    carry_next = schur_complement_remove_first(frame, r, context="carry pivot")
    j_next = carry_next
    if m > 1:
        j_next = schur_complement_keep_last(carry_next, r, context="information pivot")
    check_psd(j_next, rel_tol=PSD_REL_TOL, context="information submatrix")
    return carry_next, j_next


# ---------------------------------------------------------------------------
# Dense full-horizon reference (small horizons)
# ---------------------------------------------------------------------------


def dense_joint(model: SystemModel, provider: BlockProvider | None, k: int) -> np.ndarray:
    """Joint information over ``x[0] .. x[k]``, assembled densely factor by
    factor, symmetrized once at the end and eigen-checked.

    The transition factor at time ``t`` covers states ``t - l2' + 1 ..
    t + 1`` and the measurement factor states ``t - l3' + 2 .. t + 1``.
    """
    p = model.profile
    r = model.state_dim
    matrix = np.zeros(((k + 1) * r, (k + 1) * r))
    w = model.prior.window_len
    matrix[: w * r, : w * r] = model.prior.information()
    for t in range(model.start_time, k):
        b, c = provider.blocks(t)
        for grid, first in ((b, t - p.l2_eff + 1), (c, t - p.l3_eff + 2)):
            lo = first * r
            hi = lo + grid.shape[0]
            matrix[lo:hi, lo:hi] += grid
    matrix = symmetrize(matrix)
    check_psd(matrix, rel_tol=1e-9, context="joint information matrix")
    return matrix


def schur_submatrix(joint: np.ndarray, r: int) -> np.ndarray:
    """Information submatrix for the final ``r``-block of a dense joint."""
    if joint.shape[0] == r:
        return joint.copy()
    return schur_complement_keep_last(joint, r, context="joint information")


def dense_information_sequence(model: SystemModel, est: ExpectationEstimator, k_max: int,
                               provider: BlockProvider | None = None
                               ) -> dict[int, np.ndarray]:
    """``corrbound.information_sequence`` from one dense joint per time."""
    start = model.start_time
    if provider is None and k_max > start:
        provider = BlockProvider(model, est, start, k_max)
    return {t: schur_submatrix(dense_joint(model, provider, t), model.state_dim)
            for t in range(start, k_max + 1)}


def band_to_dense(ab: np.ndarray) -> np.ndarray:
    """Symmetric dense matrix from LAPACK upper band storage."""
    u, n = ab.shape[0] - 1, ab.shape[1]
    out = np.zeros((n, n))
    for d in range(min(u + 1, n)):
        i = np.arange(n - d)
        out[i, i + d] = out[i + d, i] = ab[u - d, d:]
    return out


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


# ---------------------------------------------------------------------------
# Per-sample finite differences
# ---------------------------------------------------------------------------


def point_hessian(f, x: np.ndarray, base_step: float = 1e-4) -> np.ndarray:
    """Central-difference Hessian of scalar ``f`` at one point ``x``.

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


def _transition_point_hessian(model: SystemModel, batch: TrajectoryBatch,
                              sample: int, k: int) -> np.ndarray:
    p = model.profile
    l2e = p.l2_eff
    r = model.state_dim
    x_next = batch.states[sample, k + 1]
    x_hist = np.stack([batch.states[sample, k - i] for i in range(l2e)])
    z_hist = (
        np.stack([batch.measurements[sample, k - j] for j in range(p.l4)])
        if p.l4 else np.zeros((0, model.meas_dim))
    )
    shift = batch.trans_shift[sample, k]

    # Stacked in the transition grid's slot order (oldest first, x[k+1] last).
    def f(stacked: np.ndarray) -> float:
        parts = stacked.reshape(l2e + 1, r)
        xs_hist = parts[:l2e][::-1]  # newest first
        return model.trans_logpdf(parts[l2e][None], xs_hist[None], z_hist[None],
                                  shift[None])[0]

    stacked0 = np.concatenate([x_hist[::-1].reshape(-1), x_next])
    return -point_hessian(f, stacked0)


def _measurement_point_hessian(model: SystemModel, batch: TrajectoryBatch,
                               sample: int, k: int) -> np.ndarray:
    p = model.profile
    l3e = p.l3_eff
    r = model.state_dim
    z_next = batch.measurements[sample, k + 1]
    x_hist = np.stack([batch.states[sample, k + 1 - i] for i in range(l3e)])
    z_hist = (
        np.stack([batch.measurements[sample, k - j] for j in range(p.l1)])
        if p.l1 else np.zeros((0, model.meas_dim))
    )
    shift = batch.meas_shift[sample, k]

    def f(stacked: np.ndarray) -> float:
        parts = stacked.reshape(l3e, r)
        xs_hist = parts[::-1]  # newest first
        return model.meas_logpdf(z_next[None], xs_hist[None], z_hist[None], shift[None])[0]

    stacked0 = x_hist[::-1].reshape(-1)
    return -point_hessian(f, stacked0)


def fd_mc_grid_per_sample(model: SystemModel, start: int, horizon: int, k: int,
                          est: ExpectationEstimator, transition: bool) -> np.ndarray:
    """The finite-difference Monte-Carlo grid of one factor at time ``k``,
    from the same draws as the library's, one sample at a time: chunks of
    trajectories up to ``horizon`` on the substreams of the provider's
    first time ``start``, each sample's Hessian from scalar log-density
    values of one-sample batches, checked finite and added in sample
    order."""
    point_hessian_of = _transition_point_hessian if transition else _measurement_point_hessian
    total = 0.0
    for c, size in enumerate(_split(est.samples, _blocks.CHUNK_SIZE)):
        batch = model.simulate(horizon, size, _substream(est.seed, _PURPOSE_SAMPLE, start, c))
        for s in range(size):
            h = point_hessian_of(model, batch, s, k)
            assert np.all(np.isfinite(h)), f"non-finite curvature at sample {s}"
            total = total + h
    return symmetrize(total / est.samples)
