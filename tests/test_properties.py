"""Property-based checks over random linear-Gaussian models and configs.

Each model is drawn as a ``linear_gaussian_ma`` JSON config: lags 0-3 in one
of the three step layouts, state dimension 1-4, and SPD noise and prior
covariances of drawn condition numbers.  Draws are derandomized, so a run is repeatable,
and no example database is kept.
"""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

import corrbound as cb
from corrbound import cli
from corrbound.errors import CorrboundError, SingularMatrixError
from reference_steps import CaseTag, schur_form_step, select_case

# Hypothesis still caches the constants it parses from source files; keep that
# cache out of the working tree.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "corrbound-hypothesis")
PROPERTY_SETTINGS = settings(
    derandomize=True, database=None, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)

# (l2, l3) pairs with lags 0-3, grouped by the step layout they select.
LAYOUT_LAGS = {
    case: [(l2, l3) for l2 in range(4) for l3 in range(4)
           if select_case(cb.CorrelationProfile(0, l2, l3, 0)) is case]
    for case in CaseTag
}


def _spd(rng: np.random.Generator, dim: int, log_cond: float) -> list:
    """SPD matrix with 2-norm condition number ``10**log_cond`` (1 if dim is 1)."""
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    logs = rng.uniform(-log_cond / 2, log_cond / 2, size=dim)
    logs[0], logs[-1] = -log_cond / 2, log_cond / 2
    if dim == 1:
        logs[0] = 0.0
    cov = (q * 10.0 ** logs) @ q.T
    return (0.5 * (cov + cov.T)).tolist()


@st.composite
def linear_configs(draw, case: CaseTag, min_log_cond: float, max_log_cond: float):
    """A ``linear_gaussian_ma`` model config whose lags select ``case``."""
    l2, l3 = draw(st.sampled_from(LAYOUT_LAGS[case]))
    l1, l4 = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    r, n = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    log_conds = draw(st.lists(st.floats(min_log_cond, max_log_cond), min_size=3, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    l2e, l3e = max(l2, 1), max(l3, 1)

    def coeffs(count, rows, cols, scale):
        return [rng.normal(scale=scale, size=(rows, cols)).tolist() for _ in range(count)]

    return {
        "kind": "linear_gaussian_ma",
        "state_dim": r,
        "meas_dim": n,
        "lags": {"l1": l1, "l2": l2, "l3": l3, "l4": l4},
        "transition_coeffs": coeffs(l2e, r, r, 0.6 / l2e),
        "transition_meas_coeffs": coeffs(l4, r, n, 0.1),
        "process_cov": _spd(rng, r, log_conds[0]),
        "measurement_state_coeffs": coeffs(l3e, n, r, 0.8 / l3e),
        "measurement_meas_coeffs": coeffs(l1, n, n, 0.1),
        "measurement_cov": _spd(rng, n, log_conds[1]),
        "prior": {"mean": [0.0] * r, "cov": _spd(rng, r, log_conds[2])},
    }


def _block(rng: np.random.Generator, dim: int, kind: str) -> np.ndarray:
    """Symmetric ``dim x dim`` block with largest eigenvalue about 1: well
    conditioned, near-singular (smallest eigenvalue 1e-17 to 1e-11, across
    the pivot gate's floor) or with one negative eigenvalue."""
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    eigs = 10.0 ** rng.uniform(-3.0, 0.0, size=dim)
    eigs[0] = 1.0
    if kind == "near":
        eigs[-1] = 10.0 ** rng.uniform(-17.0, -11.0)
    elif kind == "indefinite":
        eigs[-1] = -(10.0 ** rng.uniform(-9.0, 0.0))
    out = (q * eigs) @ q.T
    return 0.5 * (out + out.T)


def _coupled(pivot: np.ndarray, rest: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``[[P, P W], [W' P, W' P W + S]]``, whose Schur complement of ``P``
    is ``S`` however close ``P`` is to singular."""
    pw = pivot @ w
    out = np.block([[pivot, pw], [pw.T, w.T @ pw + rest]])
    return 0.5 * (out + out.T)


def _frame(rng: np.random.Generator, window: int, r: int, kinds: list[str]) -> np.ndarray:
    """Step frame whose carry pivot P, new carry's information pivot A and
    information submatrix J have the conditioning ``kinds`` names, in turn."""
    j0 = _block(rng, r, kinds[2])
    carry_next = j0
    if window > 1:
        a = _block(rng, (window - 1) * r, kinds[1])
        carry_next = _coupled(a, j0, rng.normal(size=((window - 1) * r, r)))
    return _coupled(_block(rng, r, kinds[0]), carry_next, rng.normal(size=(r, window * r)))


BLOCK_KINDS = st.lists(st.sampled_from(["well", "near", "indefinite"]), min_size=3, max_size=3)


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(window=st.integers(1, 3), dim=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       kinds=BLOCK_KINDS)
def test_step_matches_schur_form(window, dim, seed, kinds):
    # The frame's carry pivot P, the new carry's information pivot A and J
    # each draw their own conditioning.  Both forms must return the same
    # carry and J, or raise the same class naming the same matrix.  The
    # values are compared on the frame's scale: a near-singular J is a
    # cancellation, known only to rounding of the frame's entries.
    rng = np.random.default_rng(seed)
    r = dim
    frame = _frame(rng, window, r, kinds)
    # Split the frame so that factor_frame rebuilds it exactly.
    profile = cb.CorrelationProfile(0, window, 0, 0)
    carry, c = frame[:-r, :-r].copy(), frame[-r:, -r:].copy()
    b = frame.copy()
    b[:-r, :-r] = 0.0
    b[-r:, -r:] = 0.0

    def outcome(stepper):
        try:
            return stepper(profile, carry, b, c), None
        except CorrboundError as exc:
            names = ("carry pivot", "information pivot", "information submatrix")
            return None, (type(exc), [n for n in names if str(exc).startswith(n)])

    got, got_error = outcome(cb.step)
    want, want_error = outcome(schur_form_step)
    assert got_error == want_error
    if want is not None:
        for g, w in zip(got, want, strict=True):
            assert np.max(np.abs(g - w)) <= 1e-10 * np.max(np.abs(frame))


def _step_outcome(*args):
    """``cb.step(*args)``, or the class and message of what it raises."""
    try:
        return cb.step(*args), None
    except CorrboundError as exc:
        return None, (type(exc), str(exc))


@settings(PROPERTY_SETTINGS, max_examples=150)
@given(window=st.integers(1, 3), dim=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       kinds=st.lists(BLOCK_KINDS, min_size=1, max_size=4), shared=st.booleans())
def test_stacked_step_matches_each_member(window, dim, seed, kinds, shared):
    # A stack of frames, each member with its own conditioning, steps as
    # its members do one at a time: fast path, Schur path or error.  With
    # l3 = window + 1 the measurement grid covers the whole frame, so the
    # members share a zero transition grid and differ in c (and in the
    # carry, unless one carry is shared).
    rng = np.random.default_rng(seed)
    r = dim
    frames = np.array([_frame(rng, window, r, k) for k in kinds])
    profile = cb.CorrelationProfile(0, 1, window + 1, 0)
    assert profile.window == window
    b = np.zeros((2 * r, 2 * r))
    if shared:
        carry = _block(rng, window * r, "well")
    else:
        carry = np.array([_block(rng, window * r, "well") for _ in kinds])
    c = frames.copy()
    c[..., :-r, :-r] -= carry
    got, got_error = _step_outcome(profile, carry, b, c)
    alone = [_step_outcome(profile, carry if shared else carry[i], b, c[i])
             for i in range(len(kinds))]
    errors = [error for _, error in alone if error is not None]
    if errors:
        assert got_error == errors[0]
        return
    assert got_error is None
    for i, (want, _) in enumerate(alone):
        scale = np.max(np.abs(frames[i]))
        for g, w in zip(got, want, strict=True):
            assert g.shape == (len(kinds),) + w.shape
            assert np.max(np.abs(g[i] - w)) <= 1e-12 * scale


def _run_cli(config: dict, capsys) -> tuple[int, str, str]:
    """``corrbound run --config`` on ``config``: exit code, stdout, stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        capsys.readouterr()
        code = cli.main(["run", "--config", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("case", list(CaseTag), ids=lambda c: c.value)
@settings(PROPERTY_SETTINGS, max_examples=5)
@given(data=st.data())
def test_recursion_matches_banded_oracle_at_long_horizon(case, data):
    model = cb.model_from_config(data.draw(linear_configs(case, 0.0, 6.0)))
    k_max = model.start_time + 500
    deviations = cb.verify_recursion(model, cb.ExpectationEstimator(), k_max)
    assert sorted(deviations) == list(range(model.start_time + 1, k_max + 1))
    assert max(deviations.values()) <= 1e-8


@settings(PROPERTY_SETTINGS, max_examples=30)
@given(data=st.data())
def test_near_singular_covariances_refuse_or_stay_finite(data, capsys):
    case = data.draw(st.sampled_from(list(CaseTag)))
    config = data.draw(linear_configs(case, 8.0, 17.0))
    est = cb.ExpectationEstimator()
    try:
        model = cb.model_from_config(config)
        trace = cb.run(model, est, 40)
        oracle_seq = cb.information_sequence(model, est, model.start_time + 40)
    except SingularMatrixError:
        refused = True
    else:
        refused = False
        assert all(np.isfinite(a).all() for a in (trace.info, trace.bound, trace.root))
        assert all(np.isfinite(j).all() for j in oracle_seq.values())
    code, out, err = _run_cli({"model": config, "horizon": 40}, capsys)
    if refused:
        assert code == 3 and err.startswith("numerical error:")
    else:
        assert code == 0
        values = [float(v) for line in out.splitlines()[1:] for v in line.split(",")]
        assert all(math.isfinite(v) for v in values)


# (path into the config, text the error must contain)
CONFIG_FIELDS = [
    (("model",), "model"),
    (("model", "kind"), "model.kind"),
    (("model", "state_dim"), "model.state_dim"),
    (("model", "meas_dim"), "model.meas_dim"),
    (("model", "lags"), "model.lags"),
    (("model", "lags", "l2"), "model.lags.l2"),
    (("model", "lags", "l3"), "model.lags.l3"),
    (("model", "transition_coeffs"), "model.transition_coeffs"),
    (("model", "process_cov"), "model.process_cov"),
    (("model", "measurement_state_coeffs"), "model.measurement_state_coeffs"),
    (("model", "measurement_cov"), "model.measurement_cov"),
    (("model", "prior"), "model.prior"),
    (("model", "prior", "mean"), "model.prior.mean"),
    (("model", "prior", "cov"), "model.prior.cov"),
    (("model", "prior", "bogus"), "bogus"),
    (("model", "bogus"), "bogus"),
    (("horizon",), "horizon"),
    (("estimator",), "estimator"),
    (("estimator", "mode"), "mode"),
    (("estimator", "samples"), "estimator.samples"),
    (("estimator", "workers"), "estimator.workers"),
    (("output", "format"), "output.format"),
    (("baselines",), "baselines"),
    (("component",), "component"),
    (("sweep", "max_sensors"), "sweep.max_sensors"),
    (("bogus",), "bogus"),
]
# Never a valid value for any field above.
BAD_VALUES = ["bad", True, {"x": 1}, -1.5, [["x"]]]


@settings(PROPERTY_SETTINGS, max_examples=60)
@given(data=st.data())
def test_malformed_config_is_config_error_naming_the_field(data, capsys):
    case = data.draw(st.sampled_from(list(CaseTag)))
    config = {
        "model": data.draw(linear_configs(case, 0.0, 2.0)),
        "horizon": 5,
        "estimator": {"mode": "monte_carlo", "samples": 100, "workers": 1},
        "output": {"format": "csv"},
        "baselines": [],
        "component": 0,
        "sweep": {"max_sensors": 2},
    }
    path, field = data.draw(st.sampled_from(CONFIG_FIELDS))
    parent = config
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = data.draw(st.sampled_from(BAD_VALUES))
    code, _, err = _run_cli(config, capsys)
    assert code == 1, err
    assert err.startswith("configuration error:") and field in err, err
