"""Run one workload in this (fresh) interpreter and print its result as JSON.

Set-up is the time from here to ready inputs: importing ``weaklight`` from
the checkout's ``src`` plus generating the seeded inputs.  The closed loop
then runs the workload's op schedule in rounds, one op at a time, until the
time budget is spent; the round in progress is always completed, so every op
kind runs equally often.

Untraced, the result holds the end-to-end metrics.  Traced (``--trace``),
round 0 is traced (cold caches included), then untraced and traced rounds
alternate; traced output must match untraced output byte for byte, and the
ratio of their warm round times is the tracing overhead.
"""

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Span storage is bounded: a traced run stops adding rounds past this many spans.
SPAN_BUDGET = 200_000


def _import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import weaklight
    if Path(weaklight.__file__).resolve().parent != ROOT / "src" / "weaklight":
        raise RuntimeError(f"weaklight imported from {weaklight.__file__}, not the checkout")
    return weaklight


def _clear_caches(package_modules):
    for module in package_modules:
        for value in list(vars(module).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


class Loop:
    """Closed loop over an op schedule; collects latencies and checks outputs."""

    def __init__(self, ops, workloads):
        self.ops = ops
        self.wk = workloads
        self.reference = {}
        self.attempted = 0
        self.failed = 0
        self.latencies_ns = [[] for _ in ops]     # per op, one entry per successful run
        self.rounds = []        # (traced, wall_ns, busy_ns, ok_ops, ok_samples)
        self.modules = [m for n, m in sys.modules.items()
                        if n == "weaklight" or n.startswith("weaklight.")]

    def _one(self, i, op, tracer):
        if op.cold:
            _clear_caches(self.modules)
        self.attempted += 1
        try:
            t0 = time.perf_counter_ns()
            result = op.call() if tracer is None else tracer.call(f"op.{op.kind}", op.call)
            dt = time.perf_counter_ns() - t0
            data = op.output(result)
            fingerprint = self.wk.digest(data)
            if i not in self.reference:
                op.verify(result, data)
                self.reference[i] = fingerprint
            else:
                self.wk.check(self.reference[i] == fingerprint,
                              f"{op.kind}: output differs from its first run")
        except (Exception, SystemExit):
            # the loop must keep running: record the failure and go on
            self.failed += 1
            if self.failed <= 5:
                print(f"op {i} ({op.kind}) failed:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
            return None
        self.latencies_ns[i].append(dt)
        return dt

    def round(self, tracer=None):
        start = time.perf_counter_ns()
        busy = ok = samples = 0
        for i, op in enumerate(self.ops):
            dt = self._one(i, op, tracer)
            if dt is not None:
                busy += dt
                ok += 1
                samples += op.samples
        self.rounds.append((tracer is not None, time.perf_counter_ns() - start, busy, ok, samples))


def _p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def end_to_end(loop, setup_s):
    # On a shared host the CPU speed drifts in phases of seconds.  A mean moves
    # in proportion to the time spent in a slow phase, where a quantile of raw
    # latencies jumps between phases.  So each op's latency is its mean over
    # the run, and the percentiles are taken over the op mix, each op counted
    # once per run; throughputs are totals over the whole run.
    lat_ms = [statistics.fmean(runs) / 1e6 for runs in loop.latencies_ns for _ in runs]
    busy_s = sum(r[2] for r in loop.rounds) / 1e9
    samples = sum(r[4] for r in loop.rounds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n_ops = len(lat_ms)
    return {
        "setup_s": {"value": setup_s, "unit": "s", "n": 1},
        "ops_per_s": {"value": n_ops / busy_s, "unit": "1/s", "n": n_ops},
        "samples_per_s": {"value": samples / busy_s, "unit": "1/s", "n": samples},
        "op_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms", "n": n_ops},
        "op_p90_ms": {"value": _p90(lat_ms), "unit": "ms", "n": n_ops},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB", "n": 1},
    }


def run(args):
    t0 = time.perf_counter()
    weaklight = _import_package()
    import workloads

    work_root = ROOT / ".perfbench"
    work_root.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        ops = workloads.build(args.workload, args.seed, work, smoke=args.smoke)
        setup_s = time.perf_counter() - t0
        import numpy
        import scipy
        out = {"setup_s": setup_s,
               "env": {"backend": weaklight.active_backend(),
                       "python": platform.python_version(),
                       "numpy": numpy.__version__, "scipy": scipy.__version__}}
        if args.setup_only:
            return out
        loop = Loop(ops, workloads)
        # Freeze what set-up created, so that a full collection does not rescan
        # the imported modules at some seed-dependent point of the schedule.
        gc.collect()
        gc.freeze()
        deadline = time.perf_counter() + args.seconds
        if not args.trace:
            while True:
                loop.round()
                if time.perf_counter() >= deadline:
                    break
            out["metrics"] = end_to_end(loop, setup_s)
        else:
            out["metrics"], out["calls"] = traced(loop, deadline, args.spans)
        out.update(attempted=loop.attempted, failed=loop.failed,
                   rounds=len(loop.rounds), ops=len(ops))
        return out
    finally:
        shutil.rmtree(work, ignore_errors=True)


def traced(loop, deadline, spans_path):
    import tracing
    tracer = tracing.Tracer()
    while True:
        use = tracer if len(loop.rounds) % 2 == 0 else None
        if use is not None:
            tracer.install()
        try:
            loop.round(use)
        finally:
            tracer.uninstall()
        n = len(loop.rounds)
        if n >= 3 and (time.perf_counter() >= deadline or len(tracer) >= SPAN_BUDGET):
            break
    traced_rounds = [r for r in loop.rounds if r[0]]
    warm_traced = [wall for is_traced, wall, *_ in loop.rounds[1:] if is_traced]
    untraced = [wall for is_traced, wall, *_ in loop.rounds if not is_traced]
    overhead = statistics.median(warm_traced) / statistics.median(untraced)
    op_wall = sum(busy for _, _, busy, _, _ in traced_rounds)
    metrics = tracer.layer_metrics(len(traced_rounds), op_wall, overhead)
    if spans_path:
        tracer.write(spans_path)
    return metrics, tracer.calls_by_function()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans", help="write the span dump here (traced runs)")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
