"""Brute-force reference: full-horizon joint information and direct reduction.

The joint information matrix over all states up to a horizon is assembled
factor by factor from the same conditional-density factorization the
recursion uses; the information submatrix for the last state then falls out
of a single Schur complement.  Agreement with the recursion is the package's
primary correctness check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import BlockProvider, ExpectationEstimator
from .errors import InvariantViolationError
from .linalg import check_psd, schur_complement_keep_last, symmetrize
from .models import SystemModel

# Building the joint costs O((k r)^3); past this horizon the recursion is the
# only sensible tool and agreement at small horizons already pins the algebra.
MAX_ORACLE_HORIZON = 24


@dataclass
class JointInformation:
    """Joint information matrix over states ``x[0] .. x[horizon]``."""

    horizon: int
    block_dim: int
    matrix: np.ndarray

    def validate(self) -> None:
        m = self.matrix
        if not np.allclose(m, m.T, rtol=0.0, atol=1e-9 * max(1.0, float(np.abs(m).max()))):
            raise InvariantViolationError("joint information matrix is not symmetric")
        check_psd(m, rel_tol=1e-9, context="joint information matrix")


def _place(matrix: np.ndarray, grid: np.ndarray, first_state: int, r: int) -> None:
    """Add ``grid``, whose block slots are consecutive states from
    ``first_state``, into the joint."""
    lo = first_state * r
    hi = lo + grid.shape[0]
    matrix[lo:hi, lo:hi] += grid


def factor_state_indices(model: SystemModel, k: int) -> tuple[list[int], list[int]]:
    """State indices covered by the transition and measurement factors at time ``k``."""
    p = model.profile
    trans = list(range(k - p.l2_eff + 1, k + 2))
    meas = list(range(k - p.l3_eff + 2, k + 2))
    return trans, meas


def _check_horizon(model: SystemModel, k: int) -> None:
    if k < model.start_time:
        raise ValueError(f"horizon {k} precedes the prior window end {model.start_time}")
    if k > MAX_ORACLE_HORIZON:
        raise ValueError(
            f"horizon {k} exceeds the brute-force cap {MAX_ORACLE_HORIZON}"
        )


def _prefixes(model: SystemModel, est: ExpectationEstimator, k: int,
              provider: BlockProvider | None):
    """Yield ``(t, view)`` for every ``t`` from the window end to ``k``: the
    joint over ``x[0] .. x[t]``, unsymmetrized, as a view of one matrix that
    later prefixes keep adding to.

    The factors are placed in time order.  The factors at times before ``t``
    reach no state past ``x[t]``, and the ones at ``t`` and later are not
    placed yet, so every entry of the view has received the same additions,
    in the same order, as an assembly that stopped at ``t``.
    """
    _check_horizon(model, k)
    start = model.start_time
    r = model.state_dim
    if provider is None and k > start:
        provider = BlockProvider(model, est, start, k)
    matrix = np.zeros(((k + 1) * r, (k + 1) * r))
    w = model.prior.window_len
    matrix[: w * r, : w * r] = model.prior.information()
    for t in range(start, k + 1):
        if t > start:
            b, c = provider.blocks(t - 1)
            trans_states, meas_states = factor_state_indices(model, t - 1)
            _place(matrix, b, trans_states[0], r)
            _place(matrix, c, meas_states[0], r)
        n = (t + 1) * r
        yield t, matrix[:n, :n]


def _joint(t: int, r: int, prefix: np.ndarray) -> JointInformation:
    joint = JointInformation(horizon=t, block_dim=r, matrix=symmetrize(prefix))
    joint.validate()
    return joint


def build_joint(model: SystemModel, est: ExpectationEstimator, k: int,
                provider: BlockProvider | None = None) -> JointInformation:
    """Joint information over ``x[0] .. x[k]`` under the factorized density."""
    for t, prefix in _prefixes(model, est, k, provider):
        pass  # the last prefix is the whole joint
    return _joint(t, model.state_dim, prefix)


def schur_submatrix(joint: JointInformation) -> np.ndarray:
    """Information submatrix for the final state of the joint."""
    if joint.matrix.shape[0] == joint.block_dim:
        return joint.matrix.copy()
    return schur_complement_keep_last(joint.matrix, joint.block_dim,
                                      context="joint information")


def information_sequence(model: SystemModel, est: ExpectationEstimator, k_max: int,
                         provider: BlockProvider | None = None) -> dict[int, np.ndarray]:
    """Oracle information submatrices for every time from the window end to ``k_max``.

    One assembly serves every time: each prefix of it is validated and
    reduced on its own.
    """
    r = model.state_dim
    return {t: schur_submatrix(_joint(t, r, prefix))
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
    assembly and marginalization algebra from Monte-Carlo noise.
    """
    from . import recursion

    start = model.start_time
    if k_max <= start:
        raise ValueError("k_max must exceed the prior window end")
    provider = BlockProvider(model, est, start, k_max)
    oracle_seq = information_sequence(model, est, k_max, provider=provider)
    trace = recursion.run(model, est, k_max - start, provider=provider)
    deviations: dict[int, float] = {}
    for entry in trace.entries:
        deviations[entry.time_index] = max_relative_deviation(
            entry.info, oracle_seq[entry.time_index]
        )
    return deviations
