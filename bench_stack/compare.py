#!/usr/bin/env python3
"""Compare two benchmark result sets: parent and change.

    python3 bench_stack/compare.py PARENT_DIR CHANGE_DIR [--benchmark BENCHMARK.json]

Each directory holds the BENCH_stack_<workload>_s<seed>_t0.json records
run.py writes (run.py --out DIR). For every workload and end-to-end
metric it prints both sides' median and quartiles, the share of pairs
(runs with the same seed on both sides) the change won, and a verdict
against the metric's bound from BENCHMARK.json:

  unresolved   the parent's own spread (quartile distance over median)
               exceeds the bound, so a difference cannot be called —
               unless every change run reads better than every parent
               run, which is called better;
  regression   the change's median is worse than the parent's by more
               than the bound;
  gain         the change won at least 9 in 10 pairs and the medians
               differ by more than the parent's quartile distance;
  same         otherwise.

Exits 1 when any verdict is a regression.
"""
import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    """workload -> seed -> metric -> value"""
    runs = {}
    for path in glob.glob(os.path.join(directory, "BENCH_stack_*_t0.json")):
        with open(path) as f:
            record = json.load(f)
        meta = record["meta"]
        runs.setdefault(meta["workload"], {})[meta["seed"]] = {
            name: m["value"] for name, m in record["metrics"].items()}
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.benchmark) as f:
        spec = json.load(f)
    parent, change = load(args.parent), load(args.change)
    regressions = 0
    header = (f"{'workload':18} {'metric':18} {'parent q1/med/q3':>32} "
              f"{'change q1/med/q3':>32} {'won':>6} {'bound':>6}  verdict")
    print(header)
    print("-" * len(header))
    for workload in [w["name"] for w in spec["workloads"]]:
        p_runs, c_runs = parent.get(workload, {}), change.get(workload, {})
        if not p_runs or not c_runs:
            print(f"{workload:18} (no runs on {'parent' if not p_runs else 'change'} side)")
            continue
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            lower = m["better"] == "lower"
            p = [r[name] for r in p_runs.values() if name in r]
            c = [r[name] for r in c_runs.values() if name in r]
            if not p or not c:
                continue
            pq, cq = quartiles(p), quartiles(c)
            wins = pairs = 0
            for seed in sorted(set(p_runs) & set(c_runs)):
                a, b = p_runs[seed].get(name), c_runs[seed].get(name)
                if a is None or b is None:
                    continue
                pairs += 1
                if (b < a) if lower else (b > a):
                    wins += 1
            p_med, c_med = pq[1], cq[1]
            worse = (c_med - p_med) if lower else (p_med - c_med)
            spread = (pq[2] - pq[0]) / p_med if p_med else 0.0
            all_better = (max(c) < min(p)) if lower else (min(c) > max(p))
            if spread > bound:
                verdict = "better" if all_better else "unresolved"
            elif p_med and worse > bound * abs(p_med):
                verdict = "regression"
                regressions += 1
            elif pairs and wins >= 0.9 * pairs and -worse > pq[2] - pq[0]:
                verdict = "gain"
            else:
                verdict = "same"
            fmt = lambda q: f"{q[0]:.4g}/{q[1]:.4g}/{q[2]:.4g}"
            won = f"{wins}/{pairs}" if pairs else "-"
            print(f"{workload:18} {name:18} {fmt(pq):>32} {fmt(cq):>32} "
                  f"{won:>6} {bound:>6}  {verdict}")
    sys.exit(1 if regressions else 0)


if __name__ == "__main__":
    main()
