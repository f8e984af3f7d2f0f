#!/usr/bin/env python3
"""Compares a parent set and a change set of e2e_ledger result files.

    compare.py --parent P1.out P2.out ... --change C1.out C2.out ...

Each file is the stdout of one `run.sh ... --trace 0` run: a `meta {...}`
line naming the workload, and the JSON result as the last line. Runs pair
up in the order given (parent[i] with change[i]), so make them alternating:
parent, change, change, parent, ...

For every workload and end-to-end metric it prints both medians with their
quartiles, the change/parent ratio with a bootstrap 95% interval, and a
verdict:

  gain        >= 10 pairs, the change wins >= 9/10 of them (ties count for
              neither side), and the medians differ by more than the
              parent's interquartile range;
  REGRESSION  the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json;
  unresolved  either side's spread (IQR / median) exceeds the bound, unless
              every change run beats every parent run;
  ok          none of the above.

Exit status: 1 if any regression or any run with "correct": false, else 0.
Python 3 standard library only.
"""
import argparse
import json
import os
import random
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCH = os.path.join(HERE, "..", "..", "BENCHMARK.json")


def load_run(path):
    """Returns (meta, result) of one result file."""
    meta = None
    last = None
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line.startswith("meta "):
                meta = json.loads(line[5:])
            elif line:
                last = line
    if meta is None or last is None:
        raise ValueError(f"{path}: no meta line or no result line")
    return meta, json.loads(last)


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def bootstrap_ratio(parent, change, rounds=2000, seed=0):
    """95% percentile interval of median(change) / median(parent)."""
    rng = random.Random(seed)
    ratios = []
    for _ in range(rounds):
        p = statistics.median(rng.choices(parent, k=len(parent)))
        c = statistics.median(rng.choices(change, k=len(change)))
        if p != 0:
            ratios.append(c / p)
    ratios.sort()
    if not ratios:
        return float("nan"), float("nan")
    n = len(ratios)
    return ratios[int(0.025 * n)], ratios[int(0.975 * n) - 1]


def verdict(parent, change, lower_is_better, bound):
    pairs = list(zip(parent, change))
    better = (lambda c, p: c < p) if lower_is_better else (lambda c, p: c > p)
    wins = sum(1 for p, c in pairs if better(c, p))
    mp, mc = statistics.median(parent), statistics.median(change)
    p1, p3 = quartiles(parent)
    c1, c3 = quartiles(change)
    spread = max((p3 - p1) / mp if mp else 0.0, (c3 - c1) / mc if mc else 0.0)
    worse_by = ((mc - mp) if lower_is_better else (mp - mc)) / mp if mp else 0.0
    all_better = all(better(c, p) for c in change for p in parent)
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
            and abs(mc - mp) > (p3 - p1) and worse_by < 0):
        result = "gain"
    elif worse_by > bound:
        result = "REGRESSION"
    elif spread > bound and not all_better:
        result = "unresolved"
    else:
        result = "ok"
    return result, wins, len(pairs), spread


def fmt(x):
    return f"{x:.4g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    ap.add_argument("--bench", default=DEFAULT_BENCH,
                    help="BENCHMARK.json with the metric bounds")
    args = ap.parse_args()

    with open(args.bench, encoding="utf-8") as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]

    sides = {"parent": {}, "change": {}}
    status = 0
    for side, paths in (("parent", args.parent), ("change", args.change)):
        for path in paths:
            meta, result = load_run(path)
            if meta.get("trace"):
                print(f"skipping traced run {path}")
                continue
            if not result.get("correct"):
                print(f"INVALID: {path} reports correct=false")
                status = 1
            key = meta["workload"]
            entry = sides[side].setdefault(key, {"labels": set(), "runs": []})
            entry["labels"].add(f"{meta['scheduler']}@{meta['git_sha']}"
                                f" flight={meta['s3_flight']}")
            entry["runs"].append(result["metrics"])

    for workload in sorted(set(sides["parent"]) | set(sides["change"])):
        if workload not in sides["parent"] or workload not in sides["change"]:
            print(f"{workload}: present on one side only")
            continue
        p_entry, c_entry = sides["parent"][workload], sides["change"][workload]
        rows = []
        summary = {"gain": [], "REGRESSION": [], "unresolved": [], "ok": []}
        for m in metrics:
            name = m["name"]
            parent = [r[name]["value"] for r in p_entry["runs"] if name in r]
            change = [r[name]["value"] for r in c_entry["runs"] if name in r]
            if not parent or not change:
                continue
            lower = m["better"] == "lower"
            result, wins, pairs, spread = verdict(parent, change, lower,
                                                  m["bound"])
            summary[result].append(name)
            if result == "REGRESSION":
                status = 1
            mp, mc = statistics.median(parent), statistics.median(change)
            p1, p3 = quartiles(parent)
            c1, c3 = quartiles(change)
            lo, hi = bootstrap_ratio(parent, change)
            rows.append(
                f"  {name:15s} parent {fmt(mp)} [{fmt(p1)}, {fmt(p3)}] "
                f"change {fmt(mc)} [{fmt(c1)}, {fmt(c3)}] {m['unit']}  "
                f"ratio {mc / mp if mp else float('nan'):.3f} "
                f"(95% {lo:.3f}-{hi:.3f})  wins {wins}/{pairs}  "
                f"spread {spread:.3f}/bound {m['bound']}  {result}")
        print(f"{workload}: parent {len(p_entry['runs'])} runs "
              f"({', '.join(sorted(p_entry['labels']))}), change "
              f"{len(c_entry['runs'])} runs "
              f"({', '.join(sorted(c_entry['labels']))}) | "
              + "; ".join(f"{k} {','.join(v)}" for k, v in summary.items()
                          if v))
        print("\n".join(rows))
    return status


if __name__ == "__main__":
    sys.exit(main())
