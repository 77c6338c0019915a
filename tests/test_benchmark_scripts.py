"""The in-process call timer under benchmarks/ runs, so that it cannot rot unseen."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_calls_times_every_series_on_this_checkout():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "calls.py"), "--rounds", "2", "--passes", "2",
         "--inversions", "3", "--searches", "2", f"a={ROOT}", f"b={ROOT}"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for series in ("estimate_beta warm", "estimate_beta cold",
                   "find_singularities warm", "find_singularities cold"):
        row = next(line for line in lines if line.startswith(series)).split()
        # two medians in µs, the ratio and the wins of each checkout
        assert float(row[2]) > 0.0 and float(row[3]) > 0.0
        assert sum(map(int, row[5].split("/"))) == 2
    assert lines[-1] == "results and messages: identical across checkouts and rounds"
