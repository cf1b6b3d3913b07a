#!/usr/bin/env python3
"""Compare two sets of mlad_bench results, workload by workload.

  python3 bench/e2e/compare.py BEFORE AFTER [--benchmark BENCHMARK.json]

BEFORE and AFTER are each a result file written by `run.py --json` or a
directory of them (one file per run, e.g. one per seed). With several runs of
a workload on a side, that side's value is the median of the runs' medians
and its spread the distance between their first and third quartiles, both as
Python's statistics.quantiles(n=4) gives them; with one run, its in-run
median and quartiles are used.

For every workload and end-to-end metric it prints both medians and spreads,
the relative change and a verdict against the bound in BENCHMARK.json:
"better" or "worse" when the change exceeds the bound, "within bound"
otherwise, and "unresolved" when either side's spread exceeds the bound
(unless every run of AFTER beats every run of BEFORE). Per-layer metrics of
traced runs are listed with their change and no verdict. It also reports
whether the alarm digests of runs with the same workload and seed agree.

Exit status: 1 if any metric is "worse", else 0. Standard library only.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                                 "BENCHMARK.json")


def load(path):
    files = []
    if os.path.isdir(path):
        files = sorted(os.path.join(path, f) for f in os.listdir(path)
                       if f.endswith(".json"))
    else:
        files = [path]
    runs = []
    for f in files:
        with open(f) as fh:
            doc = json.load(fh)
        if doc.get("bench") == "mlad_bench":
            runs.append(doc)
    if not runs:
        sys.exit("compare.py: no mlad_bench results in %s" % path)
    return runs


def side(runs, metric):
    """(median, spread, values) of one metric over a side's runs."""
    values = [r["metrics"][metric]["median"] for r in runs
              if metric in r["metrics"]]
    if not values:
        return None
    if len(values) == 1:
        m = runs[0]["metrics"][metric]
        return m["median"], m["q3"] - m["q1"], values
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q3 - q1, values


def verdict(a, b, bound, better):
    (ma, sa, va), (mb, sb, vb) = a, b
    sign = 1.0 if better == "higher" else -1.0
    if ma == 0:
        return "unresolved", 0.0
    change = (mb - ma) / abs(ma)
    gain = sign * change
    if abs(sa) > bound * abs(ma) or abs(sb) > bound * abs(mb):
        if len(va) > 1 and len(vb) > 1 and \
                min(sign * v for v in vb) > max(sign * v for v in va):
            return "better (every run)", change
        return "unresolved", change
    if gain > bound:
        return "better", change
    if gain < -bound:
        return "worse", change
    return "within bound", change


def fmt(x):
    return "%.6g" % x


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("before")
    ap.add_argument("after")
    ap.add_argument("--benchmark", default=DEFAULT_BENCHMARK)
    args = ap.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    layers = {m["name"]: m for m in bench["per_layer"]}
    before, after = load(args.before), load(args.after)

    hosts = {json.dumps(r["host"], sort_keys=True) for r in before + after}
    if len(hosts) > 1:
        print("warning: results come from different hosts or builds:")
        for h in sorted(hosts):
            print("  " + h)

    worse = 0
    order = [w["name"] for w in bench["workloads"]]
    workloads = sorted({r["workload"] for r in before} & {r["workload"] for r in after},
                       key=lambda w: order.index(w) if w in order else len(order))
    for workload in workloads:
        for traced, table in ((False, bounds), (True, layers)):
            a = [r for r in before if r["workload"] == workload and r["trace"] == traced]
            b = [r for r in after if r["workload"] == workload and r["trace"] == traced]
            if not a or not b:
                continue
            print("\n%s%s  (%d vs %d runs)" % (workload, " [traced]" if traced else "",
                                               len(a), len(b)))
            print("  %-28s %14s %11s %14s %11s %9s  %s" % (
                "metric", "before", "spread", "after", "spread", "change", "verdict"))
            for name, spec in table.items():
                sa, sb = side(a, name), side(b, name)
                if sa is None or sb is None:
                    continue
                if traced:
                    change = (sb[0] - sa[0]) / abs(sa[0]) if sa[0] else 0.0
                    v = ""
                else:
                    v, change = verdict(sa, sb, spec["bound"], spec["better"])
                    v += " (bound %g)" % spec["bound"]
                    worse += v.startswith("worse")
                print("  %-28s %14s %11s %14s %11s %+8.2f%%  %s" % (
                    name, fmt(sa[0]), fmt(sa[1]), fmt(sb[0]), fmt(sb[1]),
                    100.0 * change, v))
            seeds = {r["seed"]: r["alarm_digest"] for r in a}
            pairs = [(seeds[r["seed"]], r["alarm_digest"]) for r in b
                     if r["seed"] in seeds]
            if pairs:
                same = sum(x == y for x, y in pairs)
                print("  alarm digests: %d of %d same-seed runs agree" % (same, len(pairs)))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
