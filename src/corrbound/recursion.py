"""Recursive computation of posterior information submatrices.

The carried matrix summarizes, at time ``k``, everything the past contributes
to the information about the last ``window`` states.  One step folds in the
time-``k`` transition and measurement factors, advances the carry by
marginalizing the state that dropped out of the window, and emits the
information submatrix for the new state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

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


@dataclass
class PCRBTrace:
    """Per-step information submatrices and the bounds they imply."""

    entries: list[TraceEntry] = field(default_factory=list)
    mc_resampled: int = 0

    def __len__(self) -> int:
        return len(self.entries)

    def info_at(self, step: int) -> np.ndarray:
        """Information submatrix of recursion step ``step`` (1-based)."""
        if not 1 <= step <= len(self.entries):
            raise IndexError(
                f"step {step} outside the trace's steps 1..{len(self.entries)}"
            )
        return self.entries[step - 1].info

    def component_bound_sqrt(self, component: int) -> np.ndarray:
        return np.array([e.bound_sqrt_diag[component] for e in self.entries])


def _entry_arrays(info: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``info``, the bound it implies and the bound's root diagonal."""
    bound = psd_inverse(info, context="information submatrix")
    return info, bound, np.sqrt(np.maximum(np.diag(bound), 0.0))


def trace_entry(step: int, time_index: int, info: np.ndarray) -> TraceEntry:
    return TraceEntry(step, time_index, *_entry_arrays(info))


# ---------------------------------------------------------------------------
# Reuse of repeated steps
# ---------------------------------------------------------------------------


def _exact_key(a: np.ndarray) -> tuple:
    return a.dtype, a.shape, a.tobytes()


class _StepTable:
    """Results of a loop's steps, kept by the exact bytes of their inputs.

    A time-invariant model's recursion settles, in floating point, into a
    fixed point or a short cycle, after which its steps repeat inputs byte
    for byte.  :meth:`result` returns the stored result of an earlier step
    whose inputs were identical instead of computing it again.

    The key is every array the step reads: the carried matrix and the
    blocks (arrays fixed for the whole loop may be left out).  It is exact
    bytes, with dtype and shape, so a hit is an input the step has already
    seen, and the step must be a pure function of those arrays.  Every
    check the step makes (PSD, pivot rcond, finiteness, shape) runs once on
    each distinct input; a hit returns only what an identical input already
    passed, because an input that failed raised and stored nothing.  The
    stored arrays are made read-only, since later steps and trace entries
    share them.

    The table is cleared whenever the blocks differ from the previous
    step's.  Blocks that change at every step (Monte-Carlo curvature) keep
    at most one entry.  Under fixed blocks there is one entry per computed
    step, and each holds two carries beyond the arrays its trace entry
    already keeps.
    """

    def __init__(self):
        self._blocks: list[tuple] | None = None
        self._results: dict[tuple, tuple[np.ndarray, ...]] = {}

    def result(self, carry: np.ndarray, blocks: tuple[np.ndarray, ...],
               compute) -> tuple[np.ndarray, ...]:
        """``compute()``, or its stored value for byte-identical ``carry`` and ``blocks``."""
        blocks_key = [_exact_key(a) for a in blocks]
        if blocks_key != self._blocks:
            self._blocks = blocks_key
            self._results.clear()
        key = _exact_key(carry)
        found = self._results.get(key)
        if found is None:
            found = compute()
            for a in found:
                a.setflags(write=False)
            self._results[key] = found
        return found


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


def _computed_step(stepper, state: RecursionState, b: np.ndarray, c: np.ndarray
                   ) -> tuple[np.ndarray, ...]:
    info, state_next = stepper(state, b, c)
    return (state_next.carry, *_entry_arrays(info))


def run(model: SystemModel, est: ExpectationEstimator, horizon: int,
        stepper=None, provider: BlockProvider | None = None) -> PCRBTrace:
    """Run ``horizon`` recursion steps from the model's prior window.

    ``stepper`` (default :func:`step`) must be a pure function of the
    carried matrix and the blocks ``b`` and ``c``: a step whose three arrays
    repeat an earlier step's byte for byte reuses that step's new carry,
    information and bound instead of calling ``stepper`` (see
    :class:`_StepTable`).  Every check still runs once on every distinct
    input.  The entries' arrays are read-only, and repeated steps share
    them.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    stepper = stepper or step
    state = init_state(model)
    start = state.k
    if provider is None:
        provider = BlockProvider(model, est, start, start + horizon)
    trace = PCRBTrace()
    table = _StepTable()
    for s in range(1, horizon + 1):
        b, c = provider.blocks(state.k)
        carry, *arrays = table.result(state.carry, (b, c),
                                      partial(_computed_step, stepper, state, b, c))
        state = RecursionState(k=state.k + 1, carry=carry, profile=state.profile)
        trace.entries.append(TraceEntry(s, state.k, *arrays))
    trace.mc_resampled = provider.report.resampled
    return trace
