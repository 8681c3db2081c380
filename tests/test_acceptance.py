"""Acceptance suite: one test per release criterion, with a printed verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is fixed here, not tuned at runtime.
"""

import time

import numpy as np
import pytest

import corrbound as cb
from corrbound import oracle
from conftest import (
    CASE_SPANNING_PROFILES,
    blocks_at,
    build_example1_stacked,
    max_trace_deviation,
    random_linear_model,
    simple_scalar_model,
)
from reference_steps import (
    CaseTag,
    classical_step,
    contract_through_inverse,
    partitioned_inverse,
    select_case,
    step_autocorrelated_measurement_state,
    step_autocorrelated_process,
    step_cross_correlated,
)

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def _verdict(label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {label}" + (f" ({detail})" if detail else ""))
    assert ok, f"{label}: {detail}"


def test_criterion_1_oracle_equivalence(example1):
    """Recursion equals the full-horizon reference on the kinematic example
    and on random linear models spanning all three lag cases."""
    started = time.perf_counter()
    est = cb.ExpectationEstimator()
    worst = max(cb.verify_recursion(example1, est, 12).values())
    cases_seen = {select_case(example1.profile)}
    rng = np.random.default_rng(2024)
    for i, lags in enumerate(CASE_SPANNING_PROFILES):
        profile = cb.CorrelationProfile(*(min(l, 3) for l in lags))
        r = int(rng.integers(1, 4))
        n = int(rng.integers(1, 3))
        model = random_linear_model(profile, r, n, 3000 + i)
        k_max = min(12, model.start_time + 9)
        worst = max(worst, max(cb.verify_recursion(model, est, k_max).values()))
        cases_seen.add(select_case(profile))
    elapsed = time.perf_counter() - started
    assert cases_seen == {CaseTag.GREATER, CaseTag.LESS, CaseTag.EQUAL}
    _verdict(
        "criterion 1: oracle equivalence over all lag cases",
        worst < 1e-8 and elapsed < 30.0,
        f"worst rel dev {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_reduction_to_classical():
    """With no correlation, the unified path, the measurement-only path and
    the classical recursion coincide."""
    est = cb.ExpectationEstimator()
    worst = 0.0
    for seed in range(10):
        model = random_linear_model(cb.CorrelationProfile(), 2, 2, 4000 + seed)
        unified = cb.run(model, est, 20)
        special = cb.run(model, est, 20, stepper=step_autocorrelated_measurement_state)
        worst = max(worst, max_trace_deviation(unified, special))
        b, c = blocks_at(model, 0, est)
        j = np.linalg.inv(model.prior.covariances[0])
        for info in unified.info[unified.index]:
            j = classical_step(j, b, c)
            scale = max(np.max(np.abs(info)), 1.0)
            worst = max(worst, float(np.max(np.abs(j - info))) / scale)
    _verdict("criterion 2: reduction to the classical recursion",
             worst < 1e-12, f"worst rel dev {worst:.2e}")


def test_criterion_3_specialized_paths_cross_validate():
    """Each specialized recursion matches the unified one on its profile family."""
    est = cb.ExpectationEstimator()
    worst = 0.0
    for lag in (0, 1, 2, 3):
        model = random_linear_model(cb.CorrelationProfile(0, 0, lag, 0), 2, 2, 5000 + lag)
        worst = max(worst, max_trace_deviation(
            cb.run(model, est, 20),
            cb.run(model, est, 20, stepper=step_cross_correlated)))
    for lag in (0, 1, 2):
        model = random_linear_model(cb.CorrelationProfile(0, lag, 0, 0), 2, 2, 5100 + lag)
        worst = max(worst, max_trace_deviation(
            cb.run(model, est, 20),
            cb.run(model, est, 20, stepper=step_autocorrelated_process)))
    for lag in (0, 1, 2):
        model = random_linear_model(cb.CorrelationProfile(lag, 0, 0, 0), 2, 2, 5200 + lag)
        worst = max(worst, max_trace_deviation(
            cb.run(model, est, 20),
            cb.run(model, est, 20, stepper=step_autocorrelated_measurement_state)))
    _verdict("criterion 3: specialized paths match the unified recursion",
             worst < 1e-12, f"worst rel dev {worst:.2e}")


def test_criterion_4_scalar_fixed_point():
    """Scalar uncorrelated model converges to the golden-ratio fixed point."""
    model = simple_scalar_model()
    trace = cb.run(model, cb.ExpectationEstimator(), 40)
    err = abs(trace.info_at(40)[0, 0] - GOLDEN)
    _verdict("criterion 4: scalar golden-ratio fixed point",
             err < 1e-10, f"|J_40 - phi| = {err:.2e}")


def test_criterion_5_example1_convergence_and_gaps(example1):
    """All four bounds converge; the unified bound sits away from every baseline."""
    started = time.perf_counter()
    est = cb.ExpectationEstimator()
    traces = {
        "unified": cb.run(example1, est, 40),
        "ignore": cb.pcrb_ignore_correlation(example1, 40),
        "augmented": cb.pcrb_augmented(example1, 40),
        "prewhitened": cb.pcrb_prewhiten(example1, 40),
    }
    converged = True
    for trace in traces.values():
        last, prev = trace.info_at(len(trace)), trace.info_at(len(trace) - 1)
        converged &= np.linalg.norm(last - prev) / np.linalg.norm(last) < 1e-6
    reference = traces["unified"].component_bound_sqrt(0)[-1]
    gaps = {
        name: abs(traces[name].component_bound_sqrt(0)[-1] - reference) / reference
        for name in ("ignore", "augmented", "prewhitened")
    }
    elapsed = time.perf_counter() - started
    ok = converged and all(g > 0.01 for g in gaps.values()) and elapsed < 5.0
    _verdict(
        "criterion 5: kinematic example converges with distinct baselines",
        ok,
        "gaps " + ", ".join(f"{k}={v:.1%}" for k, v in gaps.items())
        + f", {elapsed:.1f}s",
    )


def test_criterion_6_monte_carlo_soundness(example2):
    """Sampled measurement curvature is reproducible, tight, and unbiased."""
    started = time.perf_counter()
    k = 10

    estimates = [
        blocks_at(
            example2, k,
            cb.ExpectationEstimator(mode="monte_carlo", samples=100_000, seed=s),
        )[1]
        for s in range(20)
    ]
    arr = np.stack(estimates)
    mean = arr.mean(axis=0)
    sd = arr.std(axis=0, ddof=1)
    nonzero = np.abs(mean) > 1e-12 * np.abs(mean).max()
    cov_max = float((sd[nonzero] / np.abs(mean[nonzero])).max())
    zeros_silent = float(sd[~nonzero].max(initial=0.0)) == 0.0

    est_small = cb.ExpectationEstimator(mode="monte_carlo", samples=100_000, seed=0)
    est_big = cb.ExpectationEstimator(mode="monte_carlo", samples=1_000_000, seed=77)
    small = cb.BlockProvider(example2, est_small, k, k + 1)
    big = cb.BlockProvider(example2, est_big, k, k + 1)
    c_small, se_small = small.measurement(k), small.measurement_stderr(k)
    c_big, se_big = big.measurement(k), big.measurement_stderr(k)
    combined = np.sqrt(se_small**2 + se_big**2)
    diff = np.abs(c_small - c_big)
    within_se = bool(np.all(diff[combined > 0] <= 3.0 * combined[combined > 0]))

    trace = cb.run(example2, est_small, 40)
    psd = all(np.linalg.eigvalsh(info)[0] > 0 for info in trace.info[trace.index])

    elapsed = time.perf_counter() - started
    ok = cov_max < 0.02 and zeros_silent and within_se and psd and elapsed < 120.0
    _verdict(
        "criterion 6: Monte-Carlo measurement curvature is sound",
        ok,
        f"CoV {cov_max:.2%}, 3SE check {within_se}, PSD {psd}, {elapsed:.0f}s",
    )


def test_criterion_7_partitioned_matrix_identities():
    """Block-inverse reconstruction and the contraction identity hold on
    random matrices."""
    rng = np.random.default_rng(7000)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 13))
        split = int(rng.integers(1, n))
        a = rng.normal(size=(n, n))
        spd = a @ a.T + 0.5 * np.eye(n)
        reconstructed = partitioned_inverse(spd, split)
        direct = np.linalg.inv(spd)
        worst = max(worst, float(np.max(np.abs(reconstructed - direct)))
                    / max(1.0, float(np.max(np.abs(direct)))))
    for _ in range(100):
        n = int(rng.integers(2, 7))
        split = int(rng.integers(1, n))
        a = rng.normal(size=(n, n))
        spd = a @ a.T + 0.5 * np.eye(n)
        b = rng.normal(size=(2, n))
        c = rng.normal(size=(n, 2))
        direct, factored = contract_through_inverse(b, spd, c, split)
        worst = max(worst, float(np.max(np.abs(direct - factored)))
                    / max(1.0, float(np.max(np.abs(direct)))))
    _verdict("criterion 7: partitioned-matrix identities",
             worst < 1e-10, f"worst rel dev {worst:.2e}")


def test_criterion_8_sensor_sweep_monotonicity(example1, example2):
    """Average bound decreases strictly with the sensor count for both
    example families; the two-sensor stack is verified against the
    full-horizon reference."""
    started = time.perf_counter()
    est1 = cb.ExpectationEstimator()
    sweep1 = cb.sweep(example1, 16, horizon=40, component=0, est=est1)
    mono1 = bool(np.all(np.diff(sweep1) < -1e-12))

    est2 = cb.ExpectationEstimator(mode="monte_carlo", samples=20_000, seed=13)
    sweep2 = cb.sweep(example2, 16, horizon=40, component=0, est=est2)
    mono2 = bool(np.all(np.diff(sweep2) < -1e-12))

    stacked = build_example1_stacked(2)
    stack_dev = max(cb.verify_recursion(stacked, cb.ExpectationEstimator(), 12).values())

    elapsed = time.perf_counter() - started
    ok = mono1 and mono2 and stack_dev < 1e-8 and elapsed < 10.0
    _verdict(
        "criterion 8: sensor sweeps are strictly monotone",
        ok,
        f"stack dev {stack_dev:.2e}; "
        f"1-vs-16 sensor bound {sweep1[0]:.2f}->{sweep1[-1]:.2f}"
        f", {elapsed:.1f}s",
    )


def test_criterion_9_bit_identical_outputs(tmp_path):
    """Identical configuration and seed produce bit-identical files,
    independent of worker count."""
    from corrbound import cli

    base = ["run", "--model", "example2", "--horizon", "10",
            "--samples", "40000", "--seed", "11"]
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    assert cli.main(base + ["--workers", "1", "--out", str(paths[0])]) == 0
    assert cli.main(base + ["--workers", "1", "--out", str(paths[1])]) == 0
    assert cli.main(base + ["--workers", "4", "--out", str(paths[2])]) == 0
    payloads = [p.read_bytes() for p in paths]
    ok = payloads[0] == payloads[1] == payloads[2]

    cmp_paths = [tmp_path / name for name in ("x.csv", "y.csv")]
    cmp_base = ["compare", "--model", "example1", "--horizon", "20"]
    assert cli.main(cmp_base + ["--out", str(cmp_paths[0])]) == 0
    assert cli.main(cmp_base + ["--out", str(cmp_paths[1])]) == 0
    ok = ok and cmp_paths[0].read_bytes() == cmp_paths[1].read_bytes()
    _verdict("criterion 9: bit-identical outputs across reruns and workers", ok)
