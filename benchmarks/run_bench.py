#!/usr/bin/env python3
"""Benchmark of the corrbound CLI, one workload per process.

    python3 benchmarks/run_bench.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run_bench.py --workload all --seed N --seconds S --trace 0|1
    python3 benchmarks/run_bench.py --smoke

Run from the root of a source checkout; the package is imported from
``src/``.  The workload's CLI commands are called in-process after import,
in a closed loop, for about ``--seconds``.  With ``--trace 0`` the run
reports the end-to-end metrics, with ``--trace 1`` the per-layer metrics of
a traced run.  Each metric is printed as ``metric NAME VALUE UNIT``, and the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--workload all`` runs every
workload in its own process; ``--smoke`` does so at tiny sizes, traced and
untraced, and fails unless every metric of ``BENCHMARK.json`` is printed
with its unit.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Neither module imports numpy, so the BLAS thread setting can still follow.
import workloads
from tracing import PER_LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"

# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_REPEATS = 5
# A run that has not ended by then is killed by the default SIGALRM action.
RUN_LIMIT_S = 175

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _fix_blas_threads(workers: int) -> int:
    """Cap BLAS threads so that workers x BLAS threads <= nproc.

    Must run before numpy is imported; child interpreters inherit it.
    """
    threads = max(1, _nproc() // workers)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def _runtime_blas_threads() -> dict[str, int]:
    """Thread count each loaded OpenBLAS reports (empty where unknown)."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return {}
    found = {}
    for lib in sorted(set(re.findall(r"/\S*openblas\S*\.so\S*", maps))):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = fn()
                break
    return found


def _source_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "corrbound").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed: int, workers: int, blas_threads: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "seed": seed,
        "nproc": _nproc(),
        "workers": workers,
        "OPENBLAS_NUM_THREADS": blas_threads,
        "blas_threads_runtime": _runtime_blas_threads(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "commit": _source_commit(),
        "src_sha256": _source_digest(),
    }


def measure_setup(model: str) -> list[float]:
    """Wall time of fresh interpreters that import the CLI and build ``model``."""
    code = ("import corrbound.cli\n"
            "from corrbound.models import model_from_config\n"
            f"model_from_config({{'kind': 'builtin_{model}'}})\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                       timeout=60, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - started)
    return times


def run_one(args) -> int:
    if not (SRC / "corrbound" / "__init__.py").is_file():
        print(f"no corrbound sources under {SRC}", file=sys.stderr)
        return 2
    signal.alarm(RUN_LIMIT_S)
    workload_cls = workloads.WORKLOADS[args.workload]
    blas_threads = _fix_blas_threads(workload_cls.workers)
    setup = [] if args.trace else measure_setup(workload_cls.model)

    sys.path.insert(0, str(SRC))
    import corrbound.cli

    if not Path(corrbound.cli.__file__).resolve().is_relative_to(SRC):
        print(f"corrbound imported from {corrbound.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workload = workload_cls(args.seed, args.tiny, OUT)
    result = workloads.run(workload, corrbound.cli.main, args.seconds, bool(args.trace))
    env = environment(args.seed, workload_cls.workers, blas_threads)

    n, failed = result["iterations"], result["failed"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{n} iterations, {failed} failed")
    print("env " + json.dumps(env, sort_keys=True))
    for reason in result["failures"]:
        print(f"failure: {reason}")
    if args.trace:
        metrics = {name: {"value": value, "unit": PER_LAYER_UNITS[name][0]}
                   for name, value in result["layers"].items()}
        for layer, why in result["absent"].items():
            print(f"absent layer {layer}: {why}")
        spans = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl"
        result["tracer"].write_spans(spans)
        print(f"# spans written to {spans.relative_to(ROOT)}")
    else:
        values = {"wall_s": result["wall_s"], "cpu_s": result["cpu_s"],
                  "peak_rss_mb": result["peak_rss_mb"], "setup_s": statistics.median(setup)}
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in values.items()}
    notes = {"wall_s": f"median of {n} iterations", "cpu_s": f"median of {n} iterations",
             "setup_s": f"median of {len(setup)} fresh interpreters"}
    for name, metric in metrics.items():
        print(f"metric {name} {metric['value']:.6g} {metric['unit']} {notes.get(name, '')}".rstrip())
    # Printed but not in the JSON metrics: failed_frac is carried by
    # attempted/failed, and curv_rel_se exists on sampled workloads only.
    print(f"metric failed_frac {failed / n:.6g} ratio ({failed} of {n})")
    if result["curv_rel_se"] is not None:
        print(f"metric curv_rel_se {result['curv_rel_se']:.6g} ratio")

    record = {"workload": args.workload, "trace": args.trace, "env": env,
              "iteration_wall_s": result["walls"], "iteration_cpu_s": result["cpus"],
              "setup_s": setup, "failures": result["failures"],
              "curv_rel_se": result["curv_rel_se"], "metrics": metrics}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": n, "failed": failed,
                      "metrics": metrics}))
    return 0


def _child(workload: str, seed: int, seconds: float, trace: int, tiny: bool):
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        argv.append("--tiny")
    return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_LIMIT_S + 10)


def run_all(args) -> int:
    """Every workload in its own process; with --smoke, check the output."""
    spec = json.loads(SPEC.read_text()) if args.smoke else {}
    problems = []
    traces = (0, 1) if args.smoke else (args.trace,)
    for name in workloads.WORKLOADS:
        for trace in traces:
            proc = _child(name, args.seed, args.seconds, trace, args.tiny or args.smoke)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                problems.append(f"{name} trace={trace}: exit {proc.returncode}: "
                                f"{proc.stderr.strip()[-500:]}")
                continue
            if args.smoke:
                problems += _smoke_problems(name, trace, proc.stdout, spec)
    for problem in problems:
        print(f"PROBLEM {problem}")
    return 1 if problems else 0


def _smoke_problems(name: str, trace: int, stdout: str, spec: dict) -> list[str]:
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    printed = {m.group(1): m.group(3) for m in
               re.finditer(r"^metric (\S+) (\S+) (\S+)", stdout, re.MULTILINE)}
    wanted = [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]
    problems = []
    if set(result["metrics"]) != {metric for metric, _ in wanted}:
        problems.append(f"{name} trace={trace}: JSON metrics differ from BENCHMARK.json")
    if not trace:
        wanted.append(("failed_frac", "ratio"))
        if name.startswith("e2-"):
            wanted.append(("curv_rel_se", "ratio"))
    for metric, unit in wanted:
        if printed.get(metric) != unit:
            problems.append(f"{name} trace={trace}: {metric} not printed with unit {unit}")
    if not result["correct"] or result["failed"]:
        problems.append(f"{name} trace={trace}: {result['failed']} failed iteration(s)")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1, help="seed of every sampled input")
    parser.add_argument("--seconds", type=float, default=30.0, help="timed loop length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes (harness tests)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run of every workload, traced and untraced, with checks")
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = min(args.seconds, 1.0)
        return run_all(args)
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload: choose 'all' or one of {sorted(workloads.WORKLOADS)}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
