"""Time single estimate_beta and find_singularities calls, checkout against checkout.

Run from anywhere; each positional argument names a checkout to measure:

    python3 benchmarks/calls.py change=.
    python3 benchmarks/calls.py --rounds 10 parent=../old change=.

A library call on the search path takes about 100-200 µs, which the 200 ms
start-up of a CLI process hides, so ``record.py`` cannot see it.  Here each
round runs every checkout once, in a fresh Python process with the
checkout's ``src`` first on ``sys.path``, in an order that reverses from one
round to the next.  A process builds the same seeded corpus (inversions on
both branches of the V/V delay at omega = 1, and zero searches on the
linear model and on a tabulated one), calls each function once on all of it
to warm up, then times it in passes over the corpus.  The package keeps
nothing between calls, so the warm-up fills only the first-use state of
the interpreter and numpy, which a fresh CLI process pays once.

A series is the mean time per call of its fastest pass.  The script prints
each series' median over the rounds per checkout, the ratio to the first
checkout, and in how many rounds each checkout was the fastest.  Each
process also hashes every result and message of its corpus; the script
exits with status 1 if the checkouts disagree.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

PI = math.pi


def _corpus(inversions, searches):
    """The seeded calls, as (function name, args, kwargs) tuples."""
    import numpy as np
    import weaklight as wl

    rng = np.random.default_rng(2025)
    vv = wl.selection("V", "V")
    calls = []
    # the delay of the default model at omega = 1 under V/V, and brackets on
    # one side of its singularity at pi/4
    branches = (
        ((0.15, 0.24), lambda b: (rng.uniform(0.10, b - 0.01), rng.uniform(b + 0.002, 0.249))),
        ((0.253, 0.35), lambda b: (rng.uniform(0.2505, b - 0.002), rng.uniform(b + 0.01, 0.40))),
    )
    for i in range(inversions):
        (lo, hi), bracket_of = branches[i % 2]
        b = rng.uniform(lo, hi)
        tau = 9.5 * PI + 0.5 * PI / math.cos(2.0 * b * PI)
        bracket = tuple(x * PI for x in bracket_of(b))
        calls.append(("estimate_beta", (wl.DEFAULT_MODEL, 1.0, vv, tau, bracket), {}))
    # TE - TM = pi * omega plus a small wiggle, so the zeros sit near omega = 1
    w = np.linspace(0.05, 2.0, 160)
    table = wl.TabulatedDispersion(w, 10.0 * PI * w + 0.03 * np.sin(2.0 * w),
                                   9.0 * PI * w + 0.02 * np.sin(3.0 * w))
    for i in range(searches):
        model = (wl.DEFAULT_MODEL, table)[i % 2]
        omega_range = (1.0 - rng.uniform(0.3, 0.5), 1.0 + rng.uniform(0.3, 0.5))
        beta_range = (rng.uniform(0.05, 0.5), PI - rng.uniform(0.05, 0.5))
        calls.append(("find_singularities", (model, omega_range, beta_range, vv),
                      {"scan": int(rng.integers(60, 121)), "tol": 1e-10}))
    return calls


def _outcome(fun, args, kwargs):
    try:
        result = fun(*args, **kwargs)
    except Exception as exc:  # a refusal is an outcome too
        return f"{type(exc).__name__}: {exc}"
    if isinstance(result, float):
        return result.hex()
    return repr([(s.omega.hex(), s.beta.hex(), s.residual_abs_t.hex()) for s in result])


def child(inversions, searches, passes):
    """Time the corpus in this process and print one JSON line: per-call µs and a digest."""
    import hashlib
    import time

    import weaklight as wl

    calls = _corpus(inversions, searches)
    digest = hashlib.sha256()
    for name, args, kwargs in calls:
        digest.update(_outcome(getattr(wl, name), args, kwargs).encode())
    best = {}
    for _ in range(passes):
        for name in ("estimate_beta", "find_singularities"):
            fun = getattr(wl, name)
            mine = [(args, kwargs) for n, args, kwargs in calls if n == name]
            total = 0.0
            for args, kwargs in mine:
                t0 = time.perf_counter()
                try:
                    fun(*args, **kwargs)
                except Exception:  # a refusal is timed as a call
                    pass
                total += time.perf_counter() - t0
            best[name] = min(best.get(name, math.inf), total / len(mine) * 1e6)
    print(json.dumps({"us_per_call": best, "digest": digest.hexdigest()}))


def _checkout(spec):
    label, sep, path = spec.partition("=")
    root = Path(path).resolve()
    if not sep or not label or not (root / "src" / "weaklight" / "__init__.py").is_file():
        raise SystemExit(f"calls: expected LABEL=CHECKOUT with a src/weaklight, got {spec!r}")
    return label, root


def main(argv=None):
    p = argparse.ArgumentParser(description="time estimate_beta and find_singularities calls "
                                            "in fresh processes, checkout against checkout")
    p.add_argument("checkouts", nargs="*", metavar="LABEL=CHECKOUT")
    p.add_argument("--rounds", type=int, default=10, help="fresh processes per checkout")
    p.add_argument("--passes", type=int, default=6, help="timed passes per series and process")
    p.add_argument("--inversions", type=int, default=192, help="estimate_beta calls in the corpus")
    p.add_argument("--searches", type=int, default=96,
                   help="find_singularities calls in the corpus")
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if min(args.rounds, args.passes, args.inversions, args.searches) < 1:
        p.error("--rounds, --passes, --inversions and --searches must be at least 1")
    if args.child:
        child(args.inversions, args.searches, args.passes)
        return 0
    if not args.checkouts:
        p.error("name at least one LABEL=CHECKOUT")
    checkouts = [_checkout(spec) for spec in args.checkouts]
    runs = {label: [] for label, _ in checkouts}
    digests = {}
    for r in range(args.rounds):
        for label, root in (checkouts if r % 2 == 0 else checkouts[::-1]):
            cmd = [sys.executable, __file__, "--child", "--passes", str(args.passes),
                   "--inversions", str(args.inversions), "--searches", str(args.searches)]
            env = dict(os.environ, PYTHONPATH=str(root / "src"))
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"calls: {label} exited with status {proc.returncode}", file=sys.stderr)
                return 1
            doc = json.loads(proc.stdout.strip().splitlines()[-1])
            runs[label].append(doc["us_per_call"])
            digests.setdefault(label, set()).add(doc["digest"])
    labels = [label for label, _ in checkouts]
    series = list(runs[labels[0]][0])
    print(f"{args.rounds} rounds, {args.inversions} inversions and {args.searches} searches "
          "per process; µs per call, median over rounds")
    print(f"{'series':28s}" + "".join(f"{label:>12s}" for label in labels)
          + (f"{'ratio':>8s}  wins " + "/".join(labels) if len(labels) > 1 else ""))
    for s in series:
        medians = [statistics.median(run[s] for run in runs[label]) for label in labels]
        line = f"{s:28s}" + "".join(f"{m:12.1f}" for m in medians)
        if len(labels) > 1:
            wins = [0] * len(labels)
            for r in range(args.rounds):
                times = [runs[label][r][s] for label in labels]
                wins[times.index(min(times))] += 1
            line += f"{medians[-1] / medians[0]:8.3f}  " + "/".join(map(str, wins))
        print(line)
    agree = len(set().union(*digests.values())) == 1
    print("results and messages: " + ("identical" if agree else "DIFFER") + " across "
          + ("checkouts and rounds" if len(labels) > 1 else "rounds"))
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
