"""Recursive computation of posterior information submatrices.

The carried matrix summarizes, at time ``k``, everything the past contributes
to the information about the last ``window`` states.  One step folds in the
time-``k`` transition and measurement factors, advances the carry by
marginalizing the state that dropped out of the window, and emits the
information submatrix for the new state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
        return self.entries[step - 1].info

    def component_bound_sqrt(self, component: int) -> np.ndarray:
        return np.array([e.bound_sqrt_diag[component] for e in self.entries])


def trace_entry(step: int, time_index: int, info: np.ndarray) -> TraceEntry:
    bound = psd_inverse(info, context="information submatrix")
    return TraceEntry(
        step=step,
        time_index=time_index,
        info=info,
        bound=bound,
        bound_sqrt_diag=np.sqrt(np.maximum(np.diag(bound), 0.0)),
    )


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
    """Run ``horizon`` recursion steps from the model's prior window."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    stepper = stepper or step
    state = init_state(model)
    start = state.k
    if provider is None:
        provider = BlockProvider(model, est, start, start + horizon)
    trace = PCRBTrace()
    for s in range(1, horizon + 1):
        b, c = provider.blocks(state.k)
        info, state = stepper(state, b, c)
        trace.entries.append(trace_entry(s, state.k, info))
    trace.mc_resampled = provider.report.resampled
    return trace
