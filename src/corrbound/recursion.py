"""Recursive computation of posterior information submatrices.

The carried matrix summarizes, at time ``k``, everything the past contributes
to the information about the last ``window`` states.  One step folds in the
time-``k`` transition and measurement factors, advances the carry by
marginalizing the state that dropped out of the window, and emits the
information submatrix for the new state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .blocks import BlockProvider, ExpectationEstimator, factor_frame
from .linalg import (
    check_psd,
    psd_inverse,
    schur_complement_keep_last,
    schur_complement_remove_first,
)
from .models import SystemModel
from .profiles import CorrelationProfile

PSD_REL_TOL = 1e-10


@dataclass
class RecursionState:
    """Everything needed to advance the recursion one step."""

    k: int
    carry: np.ndarray
    profile: CorrelationProfile


@dataclass(frozen=True)
class TraceEntry:
    step: int
    time_index: int
    info: np.ndarray
    bound: np.ndarray
    bound_sqrt_diag: np.ndarray


@dataclass(eq=False)
class PCRBTrace:
    """Per-step information submatrices and the bounds they imply.

    Steps that repeat share one stored result: ``rows`` holds each distinct
    ``(info, bound, bound_sqrt_diag)`` once, with read-only arrays, and
    ``index[s - 1]`` is the row of recursion step ``s`` (1-based), which
    reaches time index ``start + s``.
    """

    rows: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    index: np.ndarray
    start: int = 0
    mc_resampled: int = 0

    def __post_init__(self):
        self.index = np.array(self.index, dtype=np.intp)
        self.index.setflags(write=False)

    def __len__(self) -> int:
        return len(self.index)

    @cached_property
    def entries(self) -> list[TraceEntry]:
        """One entry per step; repeated steps share their arrays."""
        rows, start = self.rows, self.start
        return [TraceEntry(s, start + s, *rows[i])
                for s, i in enumerate(self.index.tolist(), 1)]

    def info_at(self, step: int) -> np.ndarray:
        """Information submatrix of recursion step ``step`` (1-based)."""
        if not 1 <= step <= len(self):
            raise IndexError(f"step {step} outside the trace's steps 1..{len(self)}")
        return self.rows[self.index[step - 1]][0]

    def component_bound_sqrt(self, component: int) -> np.ndarray:
        return np.array([row[2][component] for row in self.rows])[self.index]


def trace_row(info: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``info``, the bound it implies and the bound's root diagonal, read-only."""
    bound = psd_inverse(info, context="information submatrix")
    row = (info, bound, np.sqrt(np.maximum(np.diag(bound), 0.0)))
    for a in row:
        a.setflags(write=False)
    return row


# ---------------------------------------------------------------------------
# Reuse of repeated steps
# ---------------------------------------------------------------------------


def _hold(blocks: tuple[np.ndarray, ...]) -> list[tuple]:
    """What :func:`_same_blocks` compares later steps' blocks against.

    Each array is held by its exact bytes, dtype and shape as they are now.
    One that owns its data and is read-only (a :class:`BlockProvider` block)
    cannot change while held, so it also matches by identity alone.
    """
    return [(a if a.flags.owndata and not a.flags.writeable else None,
             a.dtype, a.shape, a.tobytes()) for a in blocks]


def _same_blocks(blocks: tuple[np.ndarray, ...], held: list[tuple]) -> bool:
    if len(blocks) != len(held):
        return False
    for a, (frozen, dtype, shape, data) in zip(blocks, held):
        if a is frozen:
            continue
        if a.dtype != dtype or a.shape != shape or a.tobytes() != data:
            return False
    return True


def _distinct_steps(carry: np.ndarray, times: range, blocks_at, compute
                    ) -> tuple[list[tuple[np.ndarray, ...]], list[int]]:
    """Trace rows of the steps at ``times`` and the row of each step.

    ``compute(k, carry, *blocks_at(k))`` returns the next carry and the
    step's information submatrix, and must be a pure function of ``carry``
    and the blocks.  A time-invariant model's recursion settles, in floating
    point, into a fixed point or a short cycle, after which its steps repeat
    inputs byte for byte; such a step takes the stored next carry and row of
    the earlier step instead of calling ``compute``.

    The carry is keyed by its exact bytes (it keeps one dtype and shape from
    step to step).  The stored results are cleared whenever the blocks
    differ from the previous step's (:func:`_same_blocks`), so blocks that
    change at every step (Monte-Carlo curvature) keep at most one.  A step
    handed the very tuple of the step before, whose arrays all match by
    identity, skips even that comparison.  Every check ``compute`` makes
    (PSD, pivot rcond, finiteness, shape) runs once on each distinct input;
    a repeat returns only what an identical input already passed, because
    an input that failed raised and stored nothing.  Stored carries and
    rows are read-only, since later steps share them.
    """
    rows: list[tuple[np.ndarray, ...]] = []
    index: list[int] = []
    seen: dict[bytes, tuple[int, np.ndarray, bytes]] = {}
    held: list[tuple] | None = None
    last = None  # the previous step's blocks, if identity alone matches them
    key = carry.tobytes()
    for k in times:
        blocks = blocks_at(k)
        if blocks is not last:
            if held is None or not _same_blocks(blocks, held):
                held = _hold(blocks)
                seen.clear()
            frozen = type(blocks) is tuple and all(h[0] is not None for h in held)
            last = blocks if frozen else None
        found = seen.get(key)
        if found is None:
            carry_next, info = compute(k, carry, *blocks)
            carry_next.setflags(write=False)
            found = seen[key] = (len(rows), carry_next, carry_next.tobytes())
            rows.append(trace_row(info))
        row, carry, key = found
        index.append(row)
    return rows, index


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


def init_state(model: SystemModel) -> RecursionState:
    """Carry matrix at the model's start time, from the prior window.

    The joint information of the prior window is reduced to the trailing
    ``window`` states by marginalizing the leading ones, which is exactly
    what the full-horizon construction would produce before any dynamics
    factor is applied.
    """
    profile = model.profile
    m = profile.window
    r = model.state_dim
    joint = model.prior.information()
    carry = schur_complement_keep_last(joint, m * r, context="prior window")
    check_psd(carry, rel_tol=PSD_REL_TOL, context="carry matrix")
    return RecursionState(k=model.start_time, carry=carry, profile=profile)


# ---------------------------------------------------------------------------
# Step
# ---------------------------------------------------------------------------


def step(state: RecursionState, b: np.ndarray, c: np.ndarray
         ) -> tuple[np.ndarray, RecursionState]:
    """Advance one step with the time-``k`` factor blocks.

    Returns the information submatrix for the new state and the updated
    recursion state.  Eliminating the state that leaves the window from the
    frame gives the new carry over ``x[k+2-window] .. x[k+1]``; by the
    quotient property of Schur complements, the information submatrix of
    ``x[k+1]`` is then the Schur complement of the new carry's last block.
    At window 1 the new carry is that submatrix.
    """
    profile = state.profile
    m = profile.window
    r = state.carry.shape[0] // m
    frame = factor_frame(b, c, profile)
    frame[:-r, :-r] += state.carry
    carry_next = schur_complement_remove_first(frame, r, context="carry pivot")
    if m == 1:
        j_next = carry_next
    else:
        j_next = schur_complement_keep_last(carry_next, r, context="information pivot")
    # Only J is checked.  At window > 1, write the new carry as
    # C = [[A, B], [B', D]] with J = D - B' A^-1 B; a check of C cannot fire
    # once J's has passed:
    # * the information pivot A has factored, so A is positive definite;
    # * minimizing v' C v over the leading part v1 of v leaves v2' J v2, so
    #   if C has a negative eigenvalue, lambda_min(J) <= lambda_min(C);
    # * J <= D, the trailing block of C, so lambda_max(J) <= lambda_max(C),
    #   and J's floor, -rel_tol * max(lambda_max, 1), is no looser than C's.
    check_psd(j_next, rel_tol=PSD_REL_TOL, context="information submatrix")
    return j_next, RecursionState(k=state.k + 1, carry=carry_next, profile=profile)


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------


def run(model: SystemModel, est: ExpectationEstimator, horizon: int,
        stepper=None, provider: BlockProvider | None = None) -> PCRBTrace:
    """Run ``horizon`` recursion steps from the model's prior window.

    ``stepper`` (default :func:`step`) must be a pure function of the
    carried matrix and the blocks ``b`` and ``c``: it is called only on a
    ``(carry, b, c)`` not seen since the blocks last changed, and a step
    whose three arrays repeat an earlier step's byte for byte reuses that
    step's new carry and trace row (see :func:`_distinct_steps`).  Every check still runs once on every
    distinct input.  The trace stores each distinct row once, with
    read-only arrays, and an index of the row of every step.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    stepper = stepper or step
    state = init_state(model)
    start, profile = state.k, state.profile
    if provider is None:
        provider = BlockProvider(model, est, start, start + horizon)

    def compute(k: int, carry: np.ndarray, b: np.ndarray, c: np.ndarray):
        info, state_next = stepper(RecursionState(k, carry, profile), b, c)
        return state_next.carry, info

    rows, index = _distinct_steps(state.carry, range(start, start + horizon),
                                  provider.blocks, compute)
    return PCRBTrace(rows, index, start, provider.report.resampled)
