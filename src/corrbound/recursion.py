"""Recursive computation of posterior information submatrices.

The carried matrix summarizes, at time ``k``, everything the past contributes
to the information about the last ``window`` states.  One step folds in the
time-``k`` transition and measurement factors, advances the carry by
marginalizing the state that dropped out of the window, and emits the
information submatrix for the new state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .blocks import BlockProvider, ExpectationEstimator, factor_frame
from .errors import require_int
from .linalg import (
    RCOND_FLOOR,
    check_psd,
    cholesky_inverse,
    inverse_rcond,
    psd_inverse,
    schur_complement_keep_last,
    schur_complement_remove_first,
)
from .models import SystemModel
from .profiles import CorrelationProfile

PSD_REL_TOL = 1e-10


@dataclass(eq=False)
class PCRBTrace:
    """Per-step information submatrices and the bounds they imply.

    Steps that repeat share one stored result.  ``info`` and ``bound``,
    ``(rows, *stack, r, r)``, and the bound's root diagonal ``root``,
    ``(rows, *stack, r)``, hold each distinct result once, read-only, and
    ``index[s - 1]`` is the row of recursion step ``s`` (1-based), which
    reaches time index ``start + s``.
    """

    info: np.ndarray
    bound: np.ndarray
    root: np.ndarray
    index: np.ndarray
    start: int = 0
    mc_resampled: int = 0

    def __post_init__(self):
        self.index = np.array(self.index, dtype=np.intp)
        self.index.setflags(write=False)

    def __len__(self) -> int:
        return len(self.index)

    def info_at(self, step: int) -> np.ndarray:
        """Information submatrix of recursion step ``step`` (1-based)."""
        if not 1 <= step <= len(self):
            raise IndexError(f"step {step} outside the trace's steps 1..{len(self)}")
        return self.info[self.index[step - 1]]

    def component_bound_sqrt(self, component: int) -> np.ndarray:
        """Root bound of ``component`` at every step, ``(steps, *stack)``
        for a trace of stacked recursions."""
        return self.root[self.index, ..., component]


def trace_rows(infos: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``infos`` stacked, the bounds they imply and the bounds' root
    diagonals, read-only.  All bounds come from one stacked inversion, and
    the first submatrix that cannot be inverted raises."""
    info = np.array(infos)
    bound = psd_inverse(info, context="information submatrix")
    root = np.sqrt(np.maximum(np.diagonal(bound, axis1=-2, axis2=-1), 0.0))
    for a in (info, bound, root):
        a.setflags(write=False)
    return info, bound, root


# ---------------------------------------------------------------------------
# Step loops
# ---------------------------------------------------------------------------


def _distinct_steps(carry: np.ndarray, blocks: tuple, compute, steps: int
                    ) -> tuple[list[np.ndarray], np.ndarray]:
    """Information submatrices of the distinct steps of ``steps`` steps on
    the one block tuple ``blocks``, and the row of each step.

    ``compute(carry, *blocks)`` returns the next carry and the step's
    information submatrix, and must be a pure function of its arguments;
    each block is read-only and owns its data, as a :class:`BlockProvider`'s
    ``pair`` is.  A time-invariant model's recursion settles, in floating
    point, into a fixed point or a short cycle, after which its carry
    repeats byte for byte.  The carry is keyed by its exact bytes (it keeps
    one dtype and shape from step to step, except that an unstacked first
    carry may be shared by a stack; its bytes can match only a one-member
    stack's carry, which steps to the same values).  Once a carry repeats,
    the remaining steps are the cycle that began at that carry's first
    step: the loop stops there and the index tiles that cycle, so the
    settled tail is not stepped, looked up or hashed.  Every check
    ``compute`` makes (PSD, pivot rcond, finiteness, shape) runs once on
    each distinct input, and a tiled step repeats an input that passed.
    A failing step raises as in :func:`_every_step`.
    """
    infos: list[np.ndarray] = []
    first: dict[bytes, int] = {}  # carry bytes -> the step that had them
    key = carry.tobytes()
    try:
        while len(infos) < steps and key not in first:
            first[key] = len(infos)
            carry, info = compute(carry, *blocks)
            key = carry.tobytes()
            infos.append(info)
    except Exception:
        if infos:
            trace_rows(infos)  # an earlier step's uninvertible submatrix raises first
        raise
    stepped = len(infos)
    cycle = first.get(key, 0)  # where the cycle begins; unused if none repeated
    tail = cycle + np.arange(steps - stepped) % (stepped - cycle)
    return infos, np.concatenate([np.arange(stepped), tail])


def _every_step(carry: np.ndarray, blocks_seq, compute
                ) -> tuple[list[np.ndarray], np.ndarray]:
    """Information submatrices of one computed step per block tuple of
    ``blocks_seq``, and the row of each step.

    ``compute`` is as in :func:`_distinct_steps`.  The bounds are formed
    after the loop, in one stacked inversion (:func:`trace_rows`); if a
    step raises, the bounds before it are formed first, so the earliest
    failure is the one raised.
    """
    infos: list[np.ndarray] = []
    try:
        for blocks in blocks_seq:
            carry, info = compute(carry, *blocks)
            infos.append(info)
    except Exception:
        if infos:
            trace_rows(infos)  # an earlier step's uninvertible submatrix raises first
        raise
    return infos, np.arange(len(infos))


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


def init_state(model: SystemModel) -> np.ndarray:
    """Carry matrix at the model's start time, from the prior window.

    The joint information of the prior window is reduced to the trailing
    ``window`` states by marginalizing the leading ones, which is exactly
    what the full-horizon construction would produce before any dynamics
    factor is applied: the prior's blocks are independent, so that is the
    joint's trailing blocks.  The carry spans ``x[start + 1 - window] ..
    x[start]``, with ``start = model.start_time``.
    """
    n = model.profile.window * model.state_dim
    carry = model.prior.information()[-n:, -n:].copy()
    check_psd(carry, rel_tol=PSD_REL_TOL, context="carry matrix")
    return carry


# ---------------------------------------------------------------------------
# Step
# ---------------------------------------------------------------------------


def step(profile: CorrelationProfile, carry: np.ndarray, b: np.ndarray, c: np.ndarray
         ) -> tuple[np.ndarray, np.ndarray]:
    """Advance the carry over ``x[k+1-window] .. x[k]`` one step with the
    time-``k`` factor blocks ``b`` and ``c``.

    Returns the next carry and the information submatrix of ``x[k+1]``, and
    reads nothing but its arguments.  Eliminating the state that leaves the
    window from the frame gives the new carry over ``x[k+2-window] ..
    x[k+1]``; by the quotient property of Schur complements, the information
    submatrix of ``x[k+1]`` is then the Schur complement of the new carry's
    last block.  At window 1 the new carry is that submatrix.

    One Cholesky factorization per step gives both.  With ``frame = L L^T``
    and the leaving state first, as :func:`corrbound.blocks.factor_frame`
    lays it out, the new carry is ``L``'s trailing block ``L2`` times
    ``L2^T``, and the submatrix is ``L``'s last ``r x r`` block times its
    transpose.  The diagonal blocks of the one ``inv(L)`` are the inverse
    factors of both pivots, the leaving state's block of the frame and the
    new carry less its last block, so they give each pivot's exact 1-norm
    reciprocal condition.  A pivot passes when that is at least
    ``RCOND_FLOOR``.  When the factorization fails or a pivot does not
    pass, the step falls back to explicit Schur complements, which decide
    as :func:`corrbound.linalg.psd_solve` does and name the pivot or the
    submatrix that fails.

    ``c`` may carry leading stack axes, one recursion per member, and
    ``carry`` then has the same stack axes or none (one carry shared by
    every member); both results have the stack axes.  Only a member whose
    factorization or pivot fails takes the Schur path, and the first such
    member in stack order that fails there raises.
    """
    m = profile.window
    r = carry.shape[-1] // m
    frame = factor_frame(b, c, profile)
    frame[..., :-r, :-r] += carry
    return _frame_step(frame, m, r)


def _frame_step(frame: np.ndarray, m: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`step` on an overlaid frame or a stack of them."""
    factors = cholesky_inverse(frame)
    if factors is not None:
        lower, lower_inv = factors
        tail = lower[..., r:, r:]
        carry_next = tail @ tail.mT
        # Each pivot's inverse is G^T G, with G its diagonal block of inv(L).
        g = lower_inv[..., :r, :r]
        passed = inverse_rcond(frame[..., :r, :r], g.mT @ g) >= RCOND_FLOOR
        if m == 1:
            info = carry_next
        else:
            g = lower_inv[..., r:-r, r:-r]
            passed &= inverse_rcond(carry_next[..., :-r, :-r],
                                    g.mT @ g) >= RCOND_FLOOR
            last = lower[..., -r:, -r:]
            info = last @ last.mT
        # No PSD check here; _schur_step's comment says why none is needed.
        if passed if frame.ndim == 2 else passed.all():
            return carry_next, info
    if frame.ndim == 2:
        return _schur_step(frame, m, r)
    # A stack: members that passed keep their results, and the others step
    # alone, in stack order, so the first of them to fail raises.  A failed
    # stacked factorization does not say which member failed.
    results = [(carry_next[i], info[i]) if factors is not None and passed[i].all()
               else _frame_step(member, m, r) for i, member in enumerate(frame)]
    return np.stack([a for a, _ in results]), np.stack([j for _, j in results])


def _schur_step(frame: np.ndarray, m: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`step` by explicit Schur complements, for a frame whose
    factorization failed or whose pivot did not pass: it raises naming the
    carry pivot, the information pivot or the information submatrix, or
    returns what their checks accept."""
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
    # On step's one-factorization path J's check cannot fire either, so it
    # is not made: J (like C) is a block of the computed factor times its
    # own transpose, so a negative eigenvalue can only be that product's
    # rounding, about machine epsilon times lambda_max, far inside the floor.
    check_psd(j_next, rel_tol=PSD_REL_TOL, context="information submatrix")
    return carry_next, j_next


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------


def run(model: SystemModel, est: ExpectationEstimator, horizon: int,
        stepper=None, provider: BlockProvider | None = None) -> PCRBTrace:
    """Run ``horizon`` recursion steps from the model's prior window.

    ``stepper`` (default :func:`step`) is called as ``stepper(profile,
    carry, b, c)``, returns ``(carry_next, J)`` as :func:`step` does, and
    must be a pure function of its arguments.  When ``provider`` is a
    :class:`BlockProvider` whose blocks are one pair at every time of the
    run, the loop gets that pair and stops at the first repeated carry,
    tiling its cycle over the remaining steps (see :func:`_distinct_steps`);
    every check still runs once on every distinct input.  Any other
    provider is asked for the blocks of every step, and every step is
    computed (:func:`_every_step`), so a time it does not cover raises
    where the loop reaches it.  The trace stacks each distinct step's
    results once, read-only, with an index of the row of every step.
    """
    require_int(horizon, "horizon", 1)
    start = model.start_time
    carry = init_state(model)
    if provider is None:
        provider = BlockProvider(model, est, start, start + horizon)
    compute = partial(stepper or step, model.profile)
    if (isinstance(provider, BlockProvider) and provider.pair is not None
            and provider.start <= start and start + horizon <= provider.stop):
        infos, index = _distinct_steps(carry, provider.pair, compute, horizon)
    else:
        infos, index = _every_step(
            carry, map(provider.blocks, range(start, start + horizon)), compute)
    return PCRBTrace(*trace_rows(infos), index, start, provider.report.resampled)
