#!/usr/bin/env python3
"""Compares two benchmark result files against BENCHMARK.json's bounds.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds result records appended by `run.py --out` (one JSON object
per line; sweep.py writes whole sets). For every workload and end-to-end
metric the script prints both medians over the untraced records, their
quartiles, and a verdict:

    worse    NEW's median is worse than BASE's by more than the bound
    better   NEW's median is better by more than BASE's quartile spread
    same     neither
    unsteady BASE's own quartile spread exceeds the bound (unresolved)

It also prints each file's host CPU, nproc, commit(s), SIMD tier and pool
size, and exits with 1 when any metric is worse.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def describe(records):
    seen = {}
    for r in records:
        for key in ("host_cpu", "nproc", "commit", "simd", "pool_threads"):
            seen.setdefault(key, set()).add(str(r.get(key)))
    return ", ".join("%s=%s" % (k, "/".join(sorted(v)))
                     for k, v in seen.items())


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    base, new = load(argv[1]), load(argv[2])
    print("base: %s" % describe(base))
    print("new:  %s" % describe(new))
    worse = False
    header = "%-20s %-18s %12s %25s %12s %25s  %s" % (
        "workload", "metric", "base med", "base q1..q3", "new med",
        "new q1..q3", "verdict")
    print(header)
    for workload in [w["name"] for w in bench["workloads"]]:
        for metric in bench["end_to_end"]:
            name = metric["name"]

            def values(records):
                return [r["result"]["metrics"][name]["value"]
                        for r in records
                        if r["workload"] == workload and r["trace"] == 0
                        and name in r["result"]["metrics"]]

            b, n = values(base), values(new)
            if not b or not n:
                print("%-20s %-18s %s" % (workload, name, "missing"))
                continue
            bq1, bmed, bq3 = quartiles(b)
            nq1, nmed, nq3 = quartiles(n)
            delta = (nmed - bmed) / bmed  # signed change of the median
            worsening = delta if metric["better"] == "lower" else -delta
            spread = (bq3 - bq1) / bmed
            if worsening > metric["bound"]:
                verdict = "worse"
                worse = True
            elif spread > metric["bound"]:
                verdict = "unsteady"
            elif -worsening > spread:
                verdict = "better"
            else:
                verdict = "same"
            verdict += " (%+.1f%%; bound %.0f%%, base spread %.1f%%)" % (
                100 * delta, 100 * metric["bound"], 100 * spread)
            print("%-20s %-18s %12.5g %12.5g..%-12.5g %12.5g %12.5g..%-12.5g"
                  "  %s" % (workload, name, bmed, bq1, bq3, nmed, nq1, nq3,
                            verdict))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
