#!/usr/bin/env python3
"""Compares perfbench results of two builds (an interleaved A/B run).

    python3 perfbench/compare.py PARENT_RESULTS_DIR CHANGE_RESULTS_DIR

Each directory is a perfbench results folder (.bench_build/perfbench/results of one
checkout). For every workload and metric found on both sides it prints each side's
median and quartiles, the change of the median as a share of the parent's median, and
how many same-seed pairs the change wins (direction from BENCHMARK.json; ties count
for neither side).
Results are compared only when their manifests agree on host CPUs, build type, compiler
and workload config hash; the commit and seed may differ. Exits nonzero when a
manifest differs or a side holds a failed run.
"""

import glob
import json
import os
import statistics
import sys

COMPARED_MANIFEST_KEYS = ("host_cpus", "build_type", "compiler", "config_hash")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def directions():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def load(folder):
    runs = {}
    for path in sorted(glob.glob(os.path.join(folder, "*-trace*-seed*.json"))):
        if path.endswith(".spans.json"):
            continue
        with open(path, encoding="utf-8") as f:
            result = json.load(f)
        runs.setdefault((result["workload"], result["trace"]), []).append(result)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = load(argv[1]), load(argv[2])
    better = directions()
    status = 0
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        sides = (parent[key], change[key])
        manifests = {tuple(r["manifest"][k] for k in COMPARED_MANIFEST_KEYS)
                     for side in sides for r in side}
        if len(manifests) != 1:
            print("%s trace %d: manifests differ, not compared: %s"
                  % (workload, trace, sorted(manifests)))
            status = 1
            continue
        if any(r["cells_failed"] for side in sides for r in side):
            print("%s trace %d: a run has failed cells, not compared" % (workload, trace))
            status = 1
            continue
        print("%s (trace %d): %d parent runs, %d change runs"
              % (workload, trace, len(sides[0]), len(sides[1])))
        for name in sides[0][0]["metrics"]:
            values = [[r["metrics"][name]["value"] for r in side] for side in sides]
            (p1, p2, p3), (c1, c2, c3) = quartiles(values[0]), quartiles(values[1])
            delta = (c2 - p2) / p2 if p2 else float("nan")
            unit = sides[0][0]["metrics"][name]["unit"]
            by_seed = [{r["manifest"]["seed"]: r["metrics"][name]["value"] for r in side}
                       for side in sides]
            pairs = sorted(set(by_seed[0]) & set(by_seed[1]))
            sign = 1 if better.get(name) == "higher" else -1
            wins = sum(1 for s in pairs if sign * (by_seed[1][s] - by_seed[0][s]) > 0)
            print("  %-46s parent %-12.6g [%-.6g, %-.6g]  change %-12.6g [%-.6g, %-.6g]"
                  "  %+.2f%% %s, change wins %d/%d pairs"
                  % (name, p2, p1, p3, c2, c1, c3, 100 * delta, unit, wins, len(pairs)))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
