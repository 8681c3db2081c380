"""The benchmark's workloads: CLI commands, their sizes and output checks.

Every workload is a closed loop with one client: an iteration runs its CLI
commands through ``corrbound.cli.main`` in this process, and the next one
starts when it ends.  Each iteration's outputs are checked outside the
timed region; an error raised, a nonzero exit code or a failed check makes
the iteration a failure.
"""

from __future__ import annotations

import gzip
import io
import math
import re
import resource
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from tracing import Tracer, install_hooks, layer_metrics

HERE = Path(__file__).resolve().parent
REFERENCE_CSV = HERE / "reference" / "e1_compare_h3000.csv.gz"

# Fewest timed iterations per run, so the reported median has a middle.
MIN_ITERATIONS = 3

# The committed example1 compare reference may drift by floating-point
# rounding only; any change of the algebra moves it by far more.
REFERENCE_REL_TOL = 1e-12
ORACLE_TOL = 1e-8
# Central differences of the linear-Gaussian example1 log-densities are
# exact up to rounding, which moves the bound by about 1e-7 relative.
FDMC_REL_TOL = 1e-5


@dataclass
class Iteration:
    wall_s: float
    cpu_s: float
    codes: list[int] = field(default_factory=list)
    stdout: list[str] = field(default_factory=list)
    stderr: list[str] = field(default_factory=list)
    error: str | None = None


def call_cli(main, commands: list[list[str]]) -> Iteration:
    """Run ``commands`` one after another, timing them together."""
    it = Iteration(0.0, 0.0)
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    try:
        for argv in commands:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                it.codes.append(main(argv))
            it.stdout.append(out.getvalue())
            it.stderr.append(err.getvalue())
    except Exception as exc:  # the program raised: this iteration failed
        it.error = f"{type(exc).__name__}: {exc}"
    it.wall_s = time.perf_counter() - wall0
    it.cpu_s = time.process_time() - cpu0
    return it


def _read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [[float(v) for v in line.split(",")] for line in lines[1:]]


def _sqrt_bounds(path: Path) -> list[list[float]]:
    header, rows = _read_csv(path)
    cols = [i for i, name in enumerate(header) if name.startswith("sqrt_bound_")]
    return [[row[i] for i in cols] for row in rows]


def _worst_rel_dev(got: list[list[float]], want: list[list[float]]) -> float:
    return max(abs(g - w) / max(abs(w), 1e-300)
               for grow, wrow in zip(got, want) for g, w in zip(grow, wrow))


class Workload:
    """One CLI workload.  ``sizes`` holds the full and the tiny (smoke) sizes."""

    name = ""
    model = ""  # builtin model, built during set-up
    workers = 1  # most sampling threads any command of the run uses
    sizes: dict[str, dict[str, int]] = {}

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        self.size = self.sizes["tiny" if tiny else "full"]
        self.workdir = workdir
        self.expected: bytes | None = None  # the warm-up's output bytes

    def out(self, name: str) -> Path:
        return self.workdir / f"{self.name}-{name}"

    def commands(self) -> list[list[str]]:
        raise NotImplementedError

    def prepare(self, main) -> None:
        """Untimed work before the first iteration."""

    def check(self, it: Iteration) -> str | None:
        """Failure reason for one iteration's outputs, or None."""
        raise NotImplementedError

    def finish(self, main) -> str | None:
        """Untimed run-level check after the last iteration."""
        return None

    def _same_as_first(self, path: Path) -> str | None:
        data = path.read_bytes()
        if self.expected is None:
            self.expected = data
        elif data != self.expected:
            return f"{path.name} differs from the warm-up output (same seed)"
        return None


class E1CompareLong(Workload):
    name = "e1-compare-long"
    model = "example1"
    sizes = {"full": {"horizon": 3000, "oracle_horizon": 24},
             "tiny": {"horizon": 50, "oracle_horizon": 6}}

    def commands(self):
        seed = str(self.seed)
        return [
            ["compare", "--model", "example1", "--horizon", str(self.size["horizon"]),
             "--seed", seed, "--out", str(self.out("compare.csv"))],
            ["oracle-verify", "--model", "example1",
             "--horizon", str(self.size["oracle_horizon"]), "--seed", seed],
        ]

    def prepare(self, main):
        with gzip.open(REFERENCE_CSV, "rt", encoding="utf-8") as f:
            lines = f.read().splitlines()
        self.ref_header = lines[0].split(",")
        self.ref_rows = [[float(v) for v in line.split(",")] for line in lines[1:]]

    def check(self, it):
        header, rows = _read_csv(self.out("compare.csv"))
        if header != self.ref_header or len(rows) != self.size["horizon"]:
            return "compare CSV header or row count differs from the reference"
        dev = _worst_rel_dev(rows, self.ref_rows[: len(rows)])
        if not dev <= REFERENCE_REL_TOL:
            return f"compare CSV deviates from the reference by {dev:.3e} relative"
        found = re.search(r"worst deviation (\S+)", it.stdout[1])
        if found is None:
            return "oracle-verify printed no worst deviation"
        if not float(found.group(1)) <= ORACLE_TOL:
            return f"oracle-verify worst deviation {found.group(1)} > {ORACLE_TOL:g}"
        return None


class E2McRun(Workload):
    name = "e2-mc-run"
    model = "example2"
    workers = 2  # the run-level workers=2 comparison
    sizes = {"full": {"samples": 50_000, "horizon": 40},
             "tiny": {"samples": 3_000, "horizon": 10}}

    def commands(self, workers: int = 1, out: str = "run.csv"):
        return [["run", "--model", "example2", "--samples", str(self.size["samples"]),
                 "--horizon", str(self.size["horizon"]), "--workers", str(workers),
                 "--seed", str(self.seed), "--out", str(self.out(out))]]

    def check(self, it):
        bounds = _sqrt_bounds(self.out("run.csv"))
        if len(bounds) != self.size["horizon"]:
            return "run CSV has the wrong number of rows"
        if not all(math.isfinite(v) and v > 0 for row in bounds for v in row):
            return "run CSV holds a non-finite or non-positive bound"
        return self._same_as_first(self.out("run.csv"))

    def finish(self, main):
        # Acceptance criterion 9: the same seed gives the same bytes at any
        # worker count.
        it = call_cli(main, self.commands(workers=2, out="run-w2.csv"))
        if it.error or it.codes != [0]:
            return f"workers=2 run failed: {it.error or it.stderr}"
        if self.out("run-w2.csv").read_bytes() != self.expected:
            return "workers=1 and workers=2 outputs differ for the same seed"
        return None


class E2SensorSweep(Workload):
    name = "e2-sensor-sweep"
    model = "example2"
    workers = 2
    sizes = {"full": {"max_m": 8, "samples": 10_000, "horizon": 40},
             "tiny": {"max_m": 3, "samples": 1_000, "horizon": 10}}

    def commands(self):
        return [["sensors", "--model", "example2", "--max-m", str(self.size["max_m"]),
                 "--samples", str(self.size["samples"]),
                 "--horizon", str(self.size["horizon"]), "--workers", "2",
                 "--seed", str(self.seed), "--out", str(self.out("sweep.csv"))]]

    def check(self, it):
        _, rows = _read_csv(self.out("sweep.csv"))
        if [int(r[0]) for r in rows] != list(range(1, self.size["max_m"] + 1)):
            return "sweep CSV does not list every sensor count once, in order"
        bounds = [r[1] for r in rows]
        if not all(math.isfinite(v) and v > 0 for v in bounds):
            return "sweep CSV holds a non-finite or non-positive bound"
        if not all(b < a for a, b in zip(bounds, bounds[1:])):
            return "average bound is not strictly decreasing in the sensor count"
        return self._same_as_first(self.out("sweep.csv"))


class E1Fdmc(Workload):
    name = "e1-fdmc"
    model = "example1"
    sizes = {"full": {"samples": 2_000, "horizon": 40},
             "tiny": {"samples": 50, "horizon": 10}}

    def commands(self):
        return [["run", "--model", "example1", "--mode", "finite_difference_mc",
                 "--samples", str(self.size["samples"]),
                 "--horizon", str(self.size["horizon"]),
                 "--seed", str(self.seed), "--out", str(self.out("fdmc.csv"))]]

    def prepare(self, main):
        it = call_cli(main, [["run", "--model", "example1",
                              "--horizon", str(self.size["horizon"]),
                              "--out", str(self.out("analytic.csv"))]])
        if it.error or it.codes != [0]:
            raise RuntimeError(f"analytic example1 reference run failed: {it.error}")
        self.analytic = _sqrt_bounds(self.out("analytic.csv"))

    def check(self, it):
        bounds = _sqrt_bounds(self.out("fdmc.csv"))
        if len(bounds) != len(self.analytic):
            return "finite-difference run has the wrong number of rows"
        dev = _worst_rel_dev(bounds, self.analytic)
        if not dev <= FDMC_REL_TOL:
            return f"finite-difference bound deviates from the analytic one by {dev:.3e}"
        return self._same_as_first(self.out("fdmc.csv"))


WORKLOADS = {w.name: w for w in (E1CompareLong, E2McRun, E2SensorSweep, E1Fdmc)}


def _verdict(workload: Workload, it: Iteration) -> str | None:
    if it.error is not None:
        return it.error
    for code, err in zip(it.codes, it.stderr):
        if code != 0:
            return f"exit code {code}: {err.strip()[-300:]}"
    try:
        return workload.check(it)
    except (OSError, ValueError, IndexError) as exc:
        return f"output unreadable: {type(exc).__name__}: {exc}"


def curvature_rel_se(providers) -> float | None:
    """Largest relative standard error of the sampled curvature diagonal."""
    worst = None
    for provider in providers:
        for k in range(provider.start, provider.stop):
            se = provider.measurement_stderr(k)
            if se is None:
                continue
            grid = provider.measurement(k)
            mean = grid.dense() if hasattr(grid, "dense") else grid
            for j in range(len(se)):
                if mean[j][j] > 0:
                    rel = float(se[j][j] / mean[j][j])
                    worst = rel if worst is None else max(worst, rel)
    return worst


def run(workload: Workload, main, seconds: float, trace: bool) -> dict:
    """Warm up, then iterate for about ``seconds``; returns results and metrics.

    With ``trace`` the iterations alternate traced and untraced, starting
    traced, so the traced run also measures the tracing overhead.
    """
    workload.prepare(main)
    commands = workload.commands()

    # The warm-up fills caches, fixes the expected output bytes and, through
    # the provider hook alone, captures the sampled curvature blocks.
    capture = Tracer()
    remove = install_hooks(capture, layers={"blocks"})
    try:
        warm = call_cli(main, commands)
    finally:
        remove()
    run_failure = _verdict(workload, warm)
    rel_se = curvature_rel_se(p for _, p in capture.providers) if run_failure is None else None

    tracer = Tracer()
    iterations: list[Iteration] = []
    failures: list[str | None] = []
    traced_walls: dict[int, float] = {}
    started = time.perf_counter()
    while True:
        n = len(iterations)
        traced = trace and n % 2 == 0
        if traced:
            tracer.iteration = n
            remove = install_hooks(tracer)
            try:
                it = call_cli(tracer.wrap("cli.main", main), commands)
            finally:
                remove()
            traced_walls[n] = it.wall_s
        else:
            it = call_cli(main, commands)
        iterations.append(it)
        failures.append(_verdict(workload, it))
        elapsed = time.perf_counter() - started
        typical = statistics.median(i.wall_s for i in iterations)
        if len(iterations) >= MIN_ITERATIONS and elapsed + typical > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if run_failure is None:
        run_failure = workload.finish(main)
    if run_failure is not None:
        failures = [f or run_failure for f in failures]

    untraced = [it.wall_s for n, it in enumerate(iterations) if n not in traced_walls]
    result = {
        "iterations": len(iterations),
        "failed": sum(f is not None for f in failures),
        "failures": sorted({f for f in failures if f is not None}),
        "walls": [it.wall_s for it in iterations],
        "cpus": [it.cpu_s for it in iterations],
        "curv_rel_se": rel_se,
        "tracer": tracer,
    }
    if trace:
        result["layers"] = layer_metrics(tracer, traced_walls, untraced)
        result["absent"] = dict(tracer.absent)
    else:
        result["wall_s"] = statistics.median(result["walls"])
        result["cpu_s"] = statistics.median(result["cpus"])
        result["peak_rss_mb"] = peak_rss_mb
    return result
