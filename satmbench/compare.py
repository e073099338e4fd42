#!/usr/bin/env python3
"""Compare two sets of SATM benchmark runs (README.md, "Comparing").

    python3 satmbench/compare.py BASE.jsonl CHANGE.jsonl [--trace 0|1]

Each file holds run records as run.py appends them (one JSON object per
line). Prints one row per workload and metric: each side's median and
quartiles, pair wins, and a verdict:

  better      the change wins at least 9 of 10 pairs and the medians differ
              by more than the base's own quartile spread;
  worse       the change's median is worse than the base's by more than the
              metric's bound;
  unresolved  the base's quartile spread exceeds the bound, so a
              difference within it cannot be told from noise (unless every
              change run beats every base run);
  within      none of the above: no worse than the bound allows.

Pairs are the i-th runs of each side in seed order. Metrics without a
bound (per-layer ones) get better/unresolved/within on the same wins rule
with a bound of zero. Uses the Python standard library only.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(path, trace):
    """{workload: [record, ...]} sorted by seed."""
    runs = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        rec = json.loads(line)
        if "metrics" not in rec or rec.get("trace", 0) != trace:
            continue
        runs.setdefault(rec["workload"], []).append(rec)
    for recs in runs.values():
        recs.sort(key=lambda r: r.get("seed", 0))
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, change, better, bound):
    """Applies the rule in the module docstring to two value lists."""
    sign = 1 if better == "higher" else -1
    b1, bmed, b3 = quartiles(base)
    _, cmed, _ = quartiles(change)
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    losses = sum(1 for b, c in pairs if sign * (c - b) < 0)
    spread = (b3 - b1) / abs(bmed) if bmed else 0.0
    worse_by = sign * (bmed - cmed) / abs(bmed) if bmed else 0.0
    all_better = all(sign * (c - b) > 0 for b in base for c in change)
    if pairs and wins >= 0.9 * len(pairs) and abs(cmed - bmed) > (b3 - b1):
        v = "better"
    elif worse_by > bound and (spread <= bound or all(
            sign * (b - c) > 0 for b in base for c in change)):
        v = "worse"
    elif spread > bound and not all_better:
        v = "unresolved"
    else:
        v = "within"
    return {"wins": wins, "losses": losses, "pairs": len(pairs),
            "spread": spread, "worse_by": worse_by, "verdict": v}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads(SPEC.read_text())
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    base = load_runs(args.base, args.trace)
    change = load_runs(args.change, args.trace)

    header = ("workload", "metric", "base q1/med/q3", "change q1/med/q3",
              "wins", "worse_by", "spread", "verdict")
    print("%-10s %-40s %-28s %-28s %-7s %-8s %-7s %s" % header)
    worst = "within"
    for wl in sorted(set(base) & set(change)):
        for m in metrics:
            name = m["name"]
            bv = [r["metrics"][name]["value"] for r in base[wl]
                  if name in r["metrics"]]
            cv = [r["metrics"][name]["value"] for r in change[wl]
                  if name in r["metrics"]]
            if not bv or not cv:
                continue
            res = verdict(bv, cv, m.get("better", "lower"), m.get("bound", 0))
            fmt = lambda q: "%.4g/%.4g/%.4g" % q
            print("%-10s %-40s %-28s %-28s %-7s %-8s %-7s %s" % (
                wl, name, fmt(quartiles(bv)), fmt(quartiles(cv)),
                "%d/%d" % (res["wins"], res["pairs"]),
                "%+.3f" % res["worse_by"], "%.3f" % res["spread"],
                res["verdict"]))
            if res["verdict"] == "worse":
                worst = "worse"
    return 1 if worst == "worse" else 0


if __name__ == "__main__":
    sys.exit(main())
