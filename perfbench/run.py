#!/usr/bin/env python3
"""End-to-end FDA benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--out RESULTS.jsonl]

Builds the fda_perf binary from source (CMake, into .bench_build/ at the
repository root), runs the workload as full training runs, checks the
outputs against computations made here, apart from the library, and prints
as its last stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (one untraced round of training
runs at nproc pool threads, sized to --seconds); --trace 1 reports the
per-layer metrics (one traced training run, compared against untraced runs
at nproc pool threads and at one pool thread). --out appends
a result record (host CPU, nproc, commit, SIMD tier, pool size, result) to
a JSON-lines file that compare.py reads.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "fda_perf")
WORKLOADS = ("lenet_sketchfda", "fleet_codec_churn", "densenet_async_tree")
# Measurement budget after the build: every child process is killed past
# this point.
DEADLINE_S = 170.0
BUILD_TIMEOUT_S = 800.0
# Fields of a training run that must repeat exactly for a seed, whatever
# the pool size and whether the run is traced.
DETERMINISTIC = ("reached", "steps", "bytes", "syncs", "sim_s", "rounds",
                 "round_participants", "sync_participants", "bytes_total",
                 "final_accuracy", "heldout_accuracy")
# Held-out accuracy may trail the target by this much: the library detects
# the target on an eval subset of 256-512 samples.
HELDOUT_MARGIN = 0.10
MB = 1e6


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def remaining(start):
    left = DEADLINE_S - (time.monotonic() - start)
    if left <= 1.0:
        raise BenchError("out of time budget")
    return left


def build():
    """Configures (once) and builds fda_perf; build output goes to stderr."""
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        raise BenchError("no CMakeLists.txt at %s: not a fedra checkout" % ROOT)
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "fda_perf", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                      timeout=BUILD_TIMEOUT_S).returncode != 0:
        raise BenchError("build failed")


def run_fda_perf(start, args):
    """Runs fda_perf; returns (run records, summary)."""
    proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True,
                          timeout=remaining(start))
    if proc.returncode != 0:
        raise BenchError("fda_perf %s exited with %d" %
                         (" ".join(args), proc.returncode))
    runs, summary = [], None
    for line in proc.stdout.splitlines():
        obj = json.loads(line)
        if "run" in obj:
            runs.append(obj["run"])
        elif "summary" in obj:
            summary = obj["summary"]
    if summary is None or not runs:
        raise BenchError("fda_perf printed no summary")
    return runs, summary


# ------------------------------------------------- independent references --

def lenet5_dim(channels=1, image=16, classes=10):
    """LeNet-5 parameter count from its architecture (conv5 same, avgpool,
    conv5 valid, avgpool, fc120, fc84, fc)."""
    conv1 = channels * 6 * 25 + 6
    conv2 = 6 * 16 * 25 + 16
    hw = (image // 2 - 4) // 2
    flat = 16 * hw * hw
    return conv1 + conv2 + (flat * 120 + 120) + (120 * 84 + 84) + (
        84 * classes + classes)


def mlp_dim(inputs, hidden, classes):
    dim, prev = 0, inputs
    for width in hidden + [classes]:
        dim += prev * width + width
        prev = width
    return dim


def topk_q_wire_bytes(n, fraction, bits):
    """Wire size of one top-k + b-bit payload: kept values at b bits, a
    4-byte index per kept value, one 4-byte scale."""
    kept = min(n, max(1, int(fraction * n)))
    return (kept * bits + 7) // 8 + kept * 4 + 4


# The workloads' configuration as the checks need it (mirrors
# src/workloads.cc; the checks recompute costs from these numbers).
SPEC = {
    "lenet_sketchfda": {"target": 0.85, "workers": 8, "dim": lenet5_dim(),
                        "sketch": (5, 250)},
    "fleet_codec_churn": {"target": 0.80, "population": 100000,
                          "dim": mlp_dim(16 * 16, [16], 10),
                          "codec": (0.05, 8)},
    "densenet_async_tree": {"target": 0.75},
}


def check_run(workload, run):
    """Output checks of one training run; returns a list of failures."""
    spec = SPEC[workload]
    if "error" in run:
        return ["status: " + run["error"]]
    problems = []
    if not run["reached"]:
        problems.append("target %.2f not reached in the step cap"
                        % spec["target"])
    if run["heldout_accuracy"] < spec["target"] - HELDOUT_MARGIN:
        problems.append("held-out accuracy %.3f below target %.2f - %.2f"
                        % (run["heldout_accuracy"], spec["target"],
                           HELDOUT_MARGIN))
    if "dim" in spec and run["dim"] != spec["dim"]:
        problems.append("model dim %d, expected %d" % (run["dim"], spec["dim"]))
    if workload == "lenet_sketchfda":
        rows, cols = spec["sketch"]
        state_bytes = (1 + rows * cols) * 4
        k, d = spec["workers"], spec["dim"]
        expected = (run["steps"] * k * state_bytes +
                    run["syncs"] * k * d * 4)
        if run["bytes"] != expected:
            problems.append("bytes %d != steps*K*state + syncs*K*d*4 = %d"
                            % (run["bytes"], expected))
    if run.get("rounds_over_bound", 0) > 0:
        problems.append("Round Invariant broken beyond the sketch's eps on "
                        "%d of %d audited rounds"
                        % (run["rounds_over_bound"], run["audited_rounds"]))
    if workload == "fleet_codec_churn":
        fraction, bits = spec["codec"]
        wire = topk_q_wire_bytes(spec["dim"], fraction, bits)
        uplink = run["bytes_model_sync"] - run["bytes_model_downlink"]
        expected = run["sync_participants"] * wire
        if uplink != expected or run["policy_sync_bytes"] != expected:
            problems.append("uplink sync bytes %d (policy %d) != "
                            "participants %d x wire %d = %d"
                            % (uplink, run["policy_sync_bytes"],
                               run["sync_participants"], wire, expected))
    return problems


def deterministic_view(run):
    return {key: run.get(key) for key in DETERMINISTIC}


# ------------------------------------------------------------------ modes --

def untraced(args, start, threads):
    runs, summary = run_fda_perf(start, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--mode", "timed", "--seconds", str(args.seconds),
        "--threads", str(threads)])
    failed, notes = 0, []
    for run in runs:
        problems = check_run(args.workload, run)
        if problems:
            failed += 1
            notes.append("run %d: %s" % (run["run_index"], "; ".join(problems)))
    # `correct` covers the checks across runs; a run failing its own
    # checks counts in `failed`.
    correct = True
    spec = SPEC[args.workload]
    if summary["accuracy_target"] != spec["target"]:
        raise BenchError("fda_perf target %s != %s" %
                         (summary["accuracy_target"], spec["target"]))
    if "population" in spec:
        ceiling = spec["population"] * spec["dim"] * 4 / 8 / MB
        if summary["peak_rss_mb"] >= ceiling:
            correct = False
            notes.append("peak RSS %.1f MB not far below population*d*4/8 ="
                         " %.1f MB" % (summary["peak_rss_mb"], ceiling))

    ok = [r for r in runs if "error" not in r and r["reached"]]
    if not ok:
        raise BenchError("no training run reached its target: %s" % notes)
    # Times and costs to target are means, not medians: they fall on whole
    # evaluation intervals, so a median over runs jumps by an interval from
    # one seed to the next. Set-up time and throughput do not depend on the
    # run's trajectory; their medians shrug off a run the host slowed.
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in ok), "s"),
        "wall_s_to_target": (statistics.fmean(r["wall_s"] for r in ok), "s"),
        "samples_per_s": (statistics.median(r["samples"] / r["wall_s"]
                                            for r in ok), "samples/s"),
        "peak_rss_mb": (summary["peak_rss_mb"], "MB"),
        "steps_to_target": (statistics.fmean(r["steps"] for r in ok),
                            "steps"),
        "comm_mb_to_target": (statistics.fmean(r["bytes"] / MB for r in ok),
                              "MB"),
        "sim_s_to_target": (statistics.fmean(r["sim_s"] for r in ok), "s"),
    }
    return correct, len(runs), failed, metrics, summary, notes


def traced(args, start, threads):
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--run-index", "0"]
    full, full_summary = run_fda_perf(start, base + [
        "--mode", "once", "--threads", str(threads)])
    single, _ = run_fda_perf(start, base + ["--mode", "once", "--threads", "1"])
    spans_dir = os.path.join(OUT_DIR, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir, "%s-seed%d.csv" % (args.workload,
                                                       args.seed))
    trace, _ = run_fda_perf(start, base + ["--mode", "traced", "--threads", "1",
                                         "--spans", spans])
    runs = [full[0], single[0], trace[0]]
    failed, notes = 0, []
    for name, run in zip(("untraced", "one-thread", "traced"), runs):
        problems = check_run(args.workload, run)
        if problems:
            failed += 1
            notes.append("%s: %s" % (name, "; ".join(problems)))
    correct = True
    views = [deterministic_view(run) for run in runs]
    if views[1] != views[0]:
        correct = False
        notes.append("1-thread run differs from %d-thread run" % threads)
    if views[2] != views[0]:
        correct = False
        notes.append("traced run differs from untraced run")
    traced_run = trace[0]
    if "error" in traced_run:
        raise BenchError("traced run failed: %s" % traced_run["error"])
    if (args.workload == "lenet_sketchfda"
            and traced_run["audited_rounds"] == 0):
        correct = False
        notes.append("no round audited")
    layers = dict(traced_run["layers"])
    layers["trace.traced_wall_s"] = traced_run["wall_s"]
    layers["trace.untraced_wall_s"] = single[0]["wall_s"]
    layers["trace.overhead_s"] = traced_run["wall_s"] - single[0]["wall_s"]
    metrics = {}
    for name, value in sorted(layers.items()):
        metrics[name] = (value, unit_of(name))
    return correct, len(runs), failed, metrics, full_summary, notes


def unit_of(name):
    if name.endswith("_s") or ".comm_s." in name:
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "count"


# ----------------------------------------------------------- result file --

def host_cpu():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def commit_id():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return os.environ.get("FEDRA_COMMIT", "unknown")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append a result record to this file")
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in (0, 600]")
    nproc = os.cpu_count() or 1
    try:
        build()
        start = time.monotonic()
        mode = traced if args.trace else untraced
        correct, attempted, failed, metrics, summary, notes = mode(
            args, start, nproc)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError,
            KeyError) as err:
        log("perfbench: %s" % err)
        return 1
    for note in notes:
        log("perfbench: CHECK FAILED: %s" % note)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    if args.out:
        record = {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "host_cpu": host_cpu(), "nproc": nproc, "commit": commit_id(),
            "simd": summary["simd"], "pool_threads": summary["pool_threads"],
            "fedra_simd_env": os.environ.get("FEDRA_SIMD", ""),
            "result": result,
        }
        with open(args.out, "a") as f:
            f.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
