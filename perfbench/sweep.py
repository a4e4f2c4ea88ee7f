#!/usr/bin/env python3
"""Runs every workload over a range of seeds and prints all metrics.

    python3 perfbench/sweep.py [--seeds 1-3] [--seconds 30] [--trace]
                               [--out RESULTS.jsonl]

For each workload and seed it calls run.py once (appending the result
record to --out, default .bench_out/results.jsonl), then prints every
end-to-end metric by name and unit as the median and quartiles over the
seeds, with attempted and failed training runs. --trace runs the traced
mode instead and prints every per-layer metric. compare.py reads the file.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        first, last = text.split("-", 1)
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-3")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out",
                        default=os.path.join(ROOT, ".bench_out",
                                             "results.jsonl"))
    args = parser.parse_args()
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    status = 0
    for workload in [w["name"] for w in bench["workloads"]]:
        results = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds),
                   "--trace", "1" if args.trace else "0", "--out", args.out]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("%s seed %d: run.py failed (exit %d)"
                      % (workload, seed, proc.returncode))
                status = 1
                continue
            results.append(json.loads(lines[-1]))
        if not results:
            continue
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        correct = all(r["correct"] for r in results)
        print("\n%s: %d seeds, %d training runs attempted, %d failed, "
              "outputs %s" % (workload, len(results), attempted, failed,
                              "correct" if correct else "INCORRECT"))
        status |= 0 if correct and failed == 0 else 1
        names = sorted(results[0]["metrics"])
        if not args.trace:
            names = [m["name"] for m in bench["end_to_end"]]
        for name in names:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            med = statistics.median(values)
            if len(values) > 1:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = "q1 %.5g  q3 %.5g" % (q1, q3)
            else:
                spread = ""
            print("  %-34s %14.6g %-10s %s" % (name, med, unit, spread))
    return status


if __name__ == "__main__":
    sys.exit(main())
