"""Summarise saved benchmark runs, or compare two sets of them.

    python3 perfbench/compare.py A1.out A2.out ...            # one set
    python3 perfbench/compare.py A1.out ... --vs B1.out ...   # A is the parent

Each file is the standard output of one ``run.py`` call.  For every metric
the summary gives the median, the quartiles (``statistics.quantiles`` with
n=4) and their distance as a share of the median, next to the metric's
bound from BENCHMARK.json.  With ``--vs`` it also gives the change of the
median, signed so that a positive change is worse, and marks a change worse
than the bound.  Runs measured on different mpmath backends are refused:
gmpy changes every mpmath number, so their timings and counts do not
compare.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")


def load_run(path: str) -> tuple[dict, dict]:
    """(host, result) of one saved run."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    host = next((json.loads(line[5:]) for line in lines
                 if line.startswith("host ")), None)
    if host is None or not lines:
        raise SystemExit(f"{path}: no host line or no result")
    return host, json.loads(lines[-1])


def summarise(runs: list[dict]) -> dict:
    values = {}
    for r in runs:
        for name, m in r["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    out = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                     else (vals[0], vals[0], vals[0]))
        out[name] = {"median": med, "q1": q1, "q3": q3, "n": len(vals),
                     "spread": (q3 - q1) / med if med else 0.0}
    return out


def main(argv: list[str]) -> int:
    if "--vs" in argv:
        i = argv.index("--vs")
        groups = [argv[:i], argv[i + 1:]]
    else:
        groups = [argv]
    if not all(groups):
        print(__doc__)
        return 2
    loaded = [[load_run(p) for p in g] for g in groups]
    backends = {h["mpmath_backend"] for g in loaded for h, _ in g}
    if len(backends) > 1:
        print(f"refused: runs mix mpmath backends {sorted(backends)}")
        return 2
    hosts = {json.dumps(h, sort_keys=True) for g in loaded for h, _ in g}
    for h in sorted(hosts):
        print(f"host {h}")

    with open(BENCHMARK) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    summaries = []
    for g in loaded:
        results = [r for _, r in g]
        bad = sum(1 for r in results if not r["correct"])
        print(f"set of {len(results)} runs: {bad} not correct, "
              f"{sum(r['failed'] for r in results)} failed of "
              f"{sum(r['attempted'] for r in results)} attempted")
        summaries.append(summarise(results))

    worse_any = False
    for name, a in summaries[0].items():
        spec_m = bounds.get(name, {})
        bound = spec_m.get("bound")
        line = (f"{name:36s} median {a['median']:.6g} q1 {a['q1']:.6g} "
                f"q3 {a['q3']:.6g} spread {a['spread']:.4f}")
        if bound is not None:
            line += f" bound {bound} ({a['spread'] / bound:.2f} of bound)"
        if len(summaries) == 2 and name in summaries[1]:
            b = summaries[1][name]
            change = (b["median"] - a["median"]) / a["median"] if a["median"] else 0.0
            if spec_m.get("better") == "higher":
                change = -change
            line += f" | vs {b['median']:.6g} worse by {change:+.4f}"
            if bound is not None and change > bound:
                line += " WORSE THAN BOUND"
                worse_any = True
        print(line)
    return 1 if worse_any else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
