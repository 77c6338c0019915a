"""Record wall time, peak RSS and output digests of weaklight command runs.

Run from anywhere; each positional argument names a checkout to measure:

    python3 benchmarks/record.py --out BENCH.json change=.
    python3 benchmarks/record.py --out BENCH.json --repeat 3 parent=../old@1a2810c change=.

``LABEL=CHECKOUT[@SHA]``: the checkout's ``src`` directory goes on the
PYTHONPATH of a fresh ``python -m weaklight`` process for every run.  The SHA
is read with git when the checkout is a repository; give it after ``@`` for
an exported tree.  Runs of several checkouts alternate case by case and
repeat by repeat, and their order reverses from one repeat to the next, so
slow drift of the host and the order of runs affect them alike.

Each subcommand runs at its default size (``estimate-beta`` with the README's
example flags), plus 1001x1001 and 1415x1415 ``contour`` runs (twice the
cells: the README's per-cell contour cost is the slope between them), a
2^18-sample ``pulse``, a ``pulse`` at the ``--samples`` cap of 2^20 and a
1,000,001-beta ``angle-sweep``.
For each run the recorder takes the wall time from spawn to exit, the
child's peak RSS (``ru_maxrss`` from ``os.wait4``), and the size and sha256
of the file written with ``-o``.  A run that fails, or whose output differs
between repeats, stops the recording with exit status 1.  The JSON written
to ``--out`` also holds the Python, numpy and scipy versions and nproc.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

CASES = {
    "contour": ["contour"],
    "spectrum": ["spectrum"],
    "angle-sweep": ["angle-sweep"],
    "pulse": ["pulse"],
    "singularities": ["singularities"],
    "estimate-beta": ["estimate-beta", "--omega", "1", "--tau", "54.86",
                      "--bracket", "0.6:0.78"],
    "contour-1001x1001": ["contour", "--omega", "0.5:1.5:1001",
                          "--beta", "0:3.141592653589793:1001"],
    "contour-1415x1415": ["contour", "--omega", "0.5:1.5:1415",
                          "--beta", "0:3.141592653589793:1415"],
    "pulse-2^18": ["pulse", "--samples", "262144"],
    "pulse-2^20": ["pulse", "--samples", "1048576"],
    "angle-sweep-1000001": ["angle-sweep", "--beta", "0:1:1000001"],
}


def _checkout(spec):
    """(label, checkout directory, git SHA or None, uncommitted src changes or None)."""
    label, sep, rest = spec.partition("=")
    if not sep or not label:
        raise SystemExit(f"record: expected LABEL=CHECKOUT[@SHA], got {spec!r}")
    path, _, sha = rest.partition("@")
    root = Path(path).resolve()
    if not (root / "src" / "weaklight" / "cli.py").is_file():
        raise SystemExit(f"record: {root} holds no src/weaklight")
    dirty = None
    if not sha:
        head = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if head.returncode == 0:
            sha = head.stdout.strip()
            status = subprocess.run(["git", "-C", str(root), "status", "--porcelain", "--", "src"],
                                    capture_output=True, text=True)
            dirty = bool(status.stdout.strip())
    return label, root, sha or None, dirty


def _run(root, argv, out_path):
    """One fresh process: (wall seconds, peak RSS in MB, output bytes, sha256)."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    args = [sys.executable, "-m", "weaklight"] + argv + ["-o", str(out_path)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, args, env)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise RuntimeError(f"exit status {code}: {' '.join(args)}")
    digest = hashlib.sha256()
    size = 0
    with open(out_path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
            size += len(block)
    os.unlink(out_path)
    # ru_maxrss is in KiB on Linux
    return wall, usage.ru_maxrss / 1024.0, size, digest.hexdigest()


def record(checkouts, repeat, workdir):
    rows = {(label, case): {"checkout": label, "case": case, "argv": argv,
                            "wall_s": [], "peak_rss_mb": []}
            for case, argv in CASES.items() for label, _, _, _ in checkouts}
    for case in CASES:
        for i in range(repeat):
            # the first checkout of one repeat runs last in the next
            for label, root, _, _ in (checkouts if i % 2 == 0 else checkouts[::-1]):
                row = rows[(label, case)]
                wall, rss, size, sha = _run(root, CASES[case], Path(workdir) / "out")
                if row.setdefault("sha256", sha) != sha or row.setdefault("out_bytes", size) != size:
                    raise RuntimeError(f"{label} {case}: output differs between repeats")
                row["wall_s"].append(round(wall, 4))
                row["peak_rss_mb"].append(round(rss, 1))
                print(f"{case:18s} {label:8s} {wall:8.3f} s {rss:8.1f} MB {size:>10d} B",
                      file=sys.stderr)
    for row in rows.values():
        row["median_wall_s"] = round(statistics.median(row["wall_s"]), 4)
        row["median_peak_rss_mb"] = round(statistics.median(row["peak_rss_mb"]), 1)
    return list(rows.values())


def main(argv=None):
    p = argparse.ArgumentParser(description="record wall time, peak RSS and output "
                                            "digests of weaklight runs")
    p.add_argument("checkouts", nargs="+", metavar="LABEL=CHECKOUT[@SHA]")
    p.add_argument("--out", required=True, help="JSON file to write")
    p.add_argument("--repeat", type=int, default=3, help="runs per case and checkout")
    args = p.parse_args(argv)
    if args.repeat < 1:
        p.error("--repeat must be at least 1")
    checkouts = [_checkout(spec) for spec in args.checkouts]
    with tempfile.TemporaryDirectory() as workdir:
        try:
            rows = record(checkouts, args.repeat, workdir)
        except RuntimeError as exc:
            print(f"record: {exc}", file=sys.stderr)
            return 1
    doc = {
        "recorder": "benchmarks/record.py",
        "env": {"python": platform.python_version(), "numpy": metadata.version("numpy"),
                "scipy": metadata.version("scipy"), "nproc": os.cpu_count(),
                "machine": platform.machine()},
        "repeat": args.repeat,
        "checkouts": {label: {"sha": sha, "uncommitted_src_changes": dirty}
                      for label, _, sha, dirty in checkouts},
        "outputs_match": {case: len({r["sha256"] for r in rows if r["case"] == case}) == 1
                          for case in CASES},
        "runs": rows,
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
