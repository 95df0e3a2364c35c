#!/usr/bin/env python3
"""Summarise and compare benchmark result files.

A result file holds the standard output of any number of runs of
hgpbench/run.py, appended one after another:

    python3 hgpbench/run.py --workload drift_1e5 --seed 3 --seconds 30 --trace 0 >> new.txt

Then:

    python3 hgpbench/compare.py report new.txt
        per workload: median and quartiles of every metric, and the tracing
        overhead (traced trace.op_ms.p50 minus untraced op_ms.p50)

    python3 hgpbench/compare.py compare old.txt new.txt
        per workload and metric: both sides' medians and quartiles and a
        verdict.  Exact counts (unit count or ratio, read over a fixed
        prefix of ops) are compared seed by seed and must be equal.  Other
        metrics are "unresolved" when either side's spread (quartile
        distance over median) is wider than the metric's bound, unless every
        run of one side beats every run of the other.

Bounds come from BENCHMARK.json in the current directory; per-layer
metrics, which have none there, are held to the widest end-to-end bound.
"""

import json
import statistics
import sys

EXACT_UNITS = ("count", "ratio")


def load(path):
    """{(workload, trace): [(seed, {metric: (value, unit)}), ...]}"""
    runs = {}
    header = None
    with open(path) as f:
        for line in f:
            if line.startswith("# inputs "):
                header = dict(kv.split("=", 1) for kv in line.split()[2:])
            elif line.startswith("{") and header is not None:
                result = json.loads(line)
                metrics = {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()}
                metrics["failed_share"] = (result["failed"] / max(1, result["attempted"]), "ratio")
                if not result["correct"]:
                    print("warning: %s seed %s reported correct=false"
                          % (header["workload"], header["seed"]))
                key = (header["workload"], header["trace"])
                runs.setdefault(key, []).append((header["seed"], metrics))
                header = None
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def bench_spec():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    return bounds, better, max(bounds.values())


def fmt(values):
    q1, med, q3 = quartiles(values)
    return "%12.4g [%.4g, %.4g]" % (med, q1, q3)


def report(path):
    runs = load(path)
    for (workload, trace), rs in sorted(runs.items()):
        print("== %s trace=%s (%d runs)" % (workload, trace, len(rs)))
        for name in rs[0][1]:
            values = [m[name][0] for _, m in rs if name in m]
            print("  %-30s %s %-6s spread %.3f"
                  % (name, fmt(values), rs[0][1][name][1], spread(values)))
    for (workload, trace), rs in sorted(runs.items()):
        plain = runs.get((workload, "0"))
        if trace == "1" and plain:
            traced = statistics.median(m["trace.op_ms.p50"][0] for _, m in rs)
            untraced = statistics.median(m["op_ms.p50"][0] for _, m in plain)
            print("tracing overhead on %s: %.2f ms per op (%.1f%% of the untraced op_ms.p50)"
                  % (workload, traced - untraced, 100.0 * (traced - untraced) / untraced))


def verdict(unit, old, new, bound, lower_better):
    if unit in EXACT_UNITS:
        common = sorted(set(old) & set(new))
        if not common:
            return "no common seed"
        return "same" if all(old[s] == new[s] for s in common) else "DIFFERS"
    o, n = list(old.values()), list(new.values())
    sign = 1.0 if lower_better else -1.0
    all_better = max(sign * v for v in n) < min(sign * v for v in o)
    all_worse = min(sign * v for v in n) > max(sign * v for v in o)
    if spread(o) > bound or spread(n) > bound:
        if all_better:
            return "better (every run)"
        if all_worse:
            return "WORSE (every run)"
        return "unresolved"
    mo, mn = statistics.median(o), statistics.median(n)
    q1, _, q3 = quartiles(o)
    change = sign * (mn - mo)
    if change > bound * abs(mo):
        return "REGRESSED"
    pairs = set(old) & set(new)
    wins = sum(1 for s in pairs if sign * new[s] < sign * old[s])
    if -change > (q3 - q1) and pairs and wins >= 0.9 * len(pairs):
        return "improved"
    return "within bound"


def compare(old_path, new_path):
    bounds, better, widest = bench_spec()
    old, new = load(old_path), load(new_path)
    for key in sorted(set(old) & set(new)):
        workload, trace = key
        print("== %s trace=%s (%d old runs, %d new runs)"
              % (workload, trace, len(old[key]), len(new[key])))
        for name, (_, unit) in old[key][0][1].items():
            o = {s: m[name][0] for s, m in old[key] if name in m}
            n = {s: m[name][0] for s, m in new[key] if name in m}
            if not n:
                continue
            lower = better.get(name, "lower") == "lower"
            v = verdict(unit, o, n, bounds.get(name, widest), lower)
            change = statistics.median(n.values()) / statistics.median(o.values()) - 1 \
                if statistics.median(o.values()) else 0.0
            print("  %-30s old %s  new %s  %+7.1f%%  %s"
                  % (name, fmt(list(o.values())), fmt(list(n.values())), 100 * change, v))


def main(argv):
    if len(argv) == 3 and argv[1] == "report":
        report(argv[2])
    elif len(argv) == 4 and argv[1] == "compare":
        compare(argv[2], argv[3])
    else:
        print(__doc__)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
