"""Compare two sets of saved benchmark results, metric by metric.

    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR

Each directory holds result files as ``run.py`` saves them under
``.perfbench/results/``.  For every workload and metric, prints each side's
median and quartiles and the change of the medians against the bound in
``BENCHMARK.json``.  Results taken on different kernel backends, or with
different Python, numpy or scipy versions, are refused (exit 2).
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUST_MATCH = ("backend", "python", "numpy", "scipy")


def load(directory):
    records = [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*.json"))]
    if not records:
        raise SystemExit(f"compare: no results in {directory}")
    return records


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    sides = [load(d) for d in argv]
    envs = {tuple(r["env"][k] for k in MUST_MATCH) for side in sides for r in side}
    if len(envs) > 1:
        print(f"compare: results come from different environments {sorted(envs)}; "
              f"refusing to compare ({', '.join(MUST_MATCH)})", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}

    values = {}
    for side, records in enumerate(sides):
        for r in records:
            for name, m in r["metrics"].items():
                values.setdefault((r["workload"], name), ([], []))[side].append(m["value"])
    for (workload, name), (before, after) in sorted(values.items()):
        if not before or not after:
            continue
        line = f"{workload:7s} {name:58s}"
        for vals in (before, after):
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
            line += f"  {q[1]:12.6g} [{q[0]:.6g}, {q[2]:.6g}] n={len(vals)}"
        b0, b1 = statistics.median(before), statistics.median(after)
        if b0:
            change = (b1 - b0) / abs(b0)
            line += f"  {change:+.2%}"
            if name in bounds:
                bound, better = bounds[name]
                worse = -change if better == "higher" else change
                line += "  REGRESSION" if worse > bound else "  within bound"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
