"""The benchmark's own test: its smoke mode must pass.

Smoke mode runs every workload at tiny sizes, traced and untraced, and fails
when a metric is missing, when BENCHMARK.json names a metric the benchmark
does not emit, or when a traced function records no call on a workload
that reaches it (a missed import binding).
"""

import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def test_smoke_mode_reports_every_metric_and_layer():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          cwd=HERE.parent, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "smoke ok"

