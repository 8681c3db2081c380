"""Harness self-test: every workload at tiny size, traced and untraced.

Run with ``python -m pytest benchmarks``.
"""

import subprocess
import sys
from pathlib import Path

RUN_BENCH = Path(__file__).resolve().parent / "run_bench.py"


def test_smoke_emits_every_metric_with_its_unit():
    proc = subprocess.run([sys.executable, str(RUN_BENCH), "--smoke"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]


def test_refuses_to_run_without_sources(tmp_path):
    copy = tmp_path / "benchmarks"
    copy.mkdir()
    for path in RUN_BENCH.parent.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    proc = subprocess.run([sys.executable, str(copy / "run_bench.py"),
                           "--workload", "e1-fdmc", "--seed", "1", "--seconds", "1"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
