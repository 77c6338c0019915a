"""End-to-end and per-layer benchmark of weaklight: sweep, pulse and search.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Each workload runs in fresh interpreters (``worker.py``): several that only
set up, for the median set-up time, and one that also runs the closed loop.
Every output is checked; any failed op makes the exit status 1.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Each result is also saved, with the
environment it was taken in, under ``.perfbench/results/``.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "pulse", "search")
SETUP_SAMPLES = 5

# Functions each workload must reach; a wrapped function that records no
# call here means the tracer missed a binding.
EXPECTED_CALLS = {
    "sweep": ["cli.parse", "cli.execute", "weakmeas.contour_grid", "weakmeas.sweep_angle",
              "weakmeas.phase_spectrum", "weakmeas.transfer_line", "crystal.phase_arrays",
              "crystal.delay_arrays", "crystal.load_tabulated", "backends.bilinear_grid"],
    "pulse": ["cli.parse", "cli.execute", "pulse.gaussian_pulse", "pulse.propagate",
              "pulse.peak_time", "fourier.dft_forward", "backends.fft_butterflies",
              "weakmeas.transfer_line", "weakmeas.group_delay", "crystal.phases",
              "crystal.group_delays", "crystal.phase_arrays", "backends.bilinear_grid"],
    "search": ["weakmeas.find_singularities", "weakmeas.estimate_beta",
               "weakmeas.group_delay", "weakmeas.transfer", "crystal.phases",
               "crystal.group_delays", "crystal.phase_arrays", "crystal.delay_arrays",
               "backends.bilinear_grid"],
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _worker(args, timeout):
    cmd = [sys.executable, str(HERE / "worker.py")] + [str(a) for a in args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out after {timeout} s: {' '.join(args)}") from None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with status {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def _git_sha():
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256():
    """Digest of the package sources, so results name the code they measured."""
    h = hashlib.sha256()
    src = ROOT / "src" / "weaklight"
    for path in sorted(src.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx", ".c"):
            h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed, worker_env):
    """The worker's backend and library versions, plus this checkout and host."""
    return worker_env | {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "seed": seed,
    }


def run_workload(workload, seed, seconds, trace, smoke=False):
    """Fresh-process runs of one workload; returns the result record."""
    common = ["--workload", workload, "--seed", seed] + (["--smoke"] if smoke else [])
    budget = 60 + 2 * seconds
    if trace:
        spans = ROOT / ".perfbench" / f"spans-{workload}.csv"
        main = _worker(common + ["--seconds", seconds, "--trace", "--spans", spans], budget)
        setups = []
    else:
        setups = [_worker(common + ["--setup-only"], 60)["setup_s"]
                  for _ in range(0 if smoke else SETUP_SAMPLES - 1)]
        main = _worker(common + ["--seconds", seconds], budget)
        setups.append(main["metrics"]["setup_s"]["value"])
        main["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s",
                                      "n": len(setups)}
    attempted, failed = main["attempted"], main["failed"]
    return {
        "workload": workload, "trace": bool(trace), "seconds": seconds,
        "env": environment(seed, main["env"]),
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "rounds": main["rounds"], "ops_per_round": main["ops"],
        "fail_ratio": {"value": failed / attempted, "unit": "ratio", "n": attempted},
        "metrics": main["metrics"], "calls": main.get("calls"),
    }


def _save(record):
    out = ROOT / ".perfbench" / "results"
    out.mkdir(parents=True, exist_ok=True)
    name = f"{record['workload']}-seed{record['env']['seed']}-trace{int(record['trace'])}.json"
    (out / name).write_text(json.dumps(record, indent=1) + "\n")


def _print_summary(record):
    w = record["workload"]
    for name, m in list(record["metrics"].items()) + [("fail_ratio", record["fail_ratio"])]:
        n = f"  (n={m['n']})" if "n" in m else ""
        print(f"{w:7s} {name:58s} {m['value']:>16.6g} {m['unit']}{n}")


def _result_line(records, prefix):
    metrics = {}
    for r in records:
        for name, m in r["metrics"].items():
            key = f"{r['workload']}.{name}" if prefix else name
            metrics[key] = {"value": m["value"], "unit": m["unit"]}
    return {"correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": metrics}


def smoke():
    """Tiny sizes: BENCHMARK.json's metrics are emitted with their units, and every
    traced function records a call on each workload that reaches it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the benchmark's")
    for workload in WORKLOADS:
        for trace in (False, True):
            record = run_workload(workload, 1, 0, trace, smoke=True)
            if not record["correct"]:
                problems.append(f"{workload}: {record['failed']} ops failed")
            got = {name: m["unit"] for name, m in record["metrics"].items()}
            if got != want[trace]:
                diff = sorted(set(got.items()) ^ set(want[trace].items()))
                problems.append(f"{workload} trace={int(trace)}: metrics differ: {diff}")
        problems += [f"{workload}: {fn} recorded no call" for fn in EXPECTED_CALLS[workload]
                     if record["calls"].get(fn, 0) < 1]
    for p in problems:
        print("smoke:", p, file=sys.stderr)
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problems")
    return 1 if problems else 0


def main(argv=None):
    p = argparse.ArgumentParser(description="weaklight end-to-end and per-layer benchmark")
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes; check that every metric and layer is reported")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "weaklight" / "__init__.py").is_file():
        print(f"perfbench: no weaklight sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        chosen = WORKLOADS if args.workload == "all" else (args.workload,)
        records = []
        for workload in chosen:
            record = run_workload(workload, args.seed, args.seconds, args.trace)
            _save(record)
            records.append(record)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for r in records:
        print("# env " + json.dumps(r["env"]))
        _print_summary(r)
    result = _result_line(records, prefix=len(records) > 1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
