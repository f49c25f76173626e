#!/usr/bin/env python3
"""socbuf's benchmark driver.

    python3 pipebench/run.py --workload vi-cluster --seed 2005 \
        --seconds 45 --trace 0

Run from the repository root. Builds the `pipebench` binary (and the socbuf
library under it) from source into $CARGO_TARGET_DIR (default
.bench_build), writes the workload's scenario file from the seed, then:

  --trace 0  repeats end-to-end samples (1-thread and 4-thread
             Session::run with tracing off) for about --seconds seconds
             and reports the median of every end-to-end metric;
  --trace 1  runs the traced replay once and reports every per-layer
             metric (spans go to <build>/runs/trace-*.json).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Progress and build output go to
standard error.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("vi-cluster", "insertion-search")
# Set-ups timed before each sample, each in a fresh process (the set-up a
# user's program pays); setup_s is their median over the run. One process
# varies by up to 2x, so the median needs many processes to be steady.
SETUPS_PER_SAMPLE = 10
# Hard cap per child process, so one run always ends within its limit.
CHILD_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"pipebench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configure once, then build the pipebench target; returns the binary."""
    for needed in ("CMakeLists.txt",
                   os.path.join("src", "session", "session.hpp")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"socbuf sources not found ({needed} missing under {ROOT})", 2)
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "pipebench",
                  "-j", "4"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return os.path.join(out_dir, "pipebench")


def call(args):
    """Run pipebench and return its last stdout line parsed as JSON."""
    try:
        done = subprocess.run(args, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(args)}")
    if done.returncode != 0:
        fail(f"exit {done.returncode}: {' '.join(args)}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"no output: {' '.join(args)}")
    return json.loads(lines[-1])


def declared_metrics(key):
    """Metric names BENCHMARK.json declares under `key`, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        return [m["name"] for m in json.load(f)[key]]


def end_to_end(binary, workload, scenario_file, seconds):
    samples = []
    setups = []
    start = time.monotonic()
    while True:
        for _ in range(SETUPS_PER_SAMPLE):
            setups.append(call([binary, "setup", scenario_file])["setup_s"])
        samples.append(call([binary, "sample", workload, scenario_file]))
        elapsed = time.monotonic() - start
        mean = elapsed / len(samples)
        print(f"pipebench: {workload} sample {len(samples)}: "
              f"serial {samples[-1]['serial_wall_s']:.3f} s, "
              f"4 threads {samples[-1]['wall_s']:.3f} s", file=sys.stderr)
        if elapsed + 0.5 * mean >= seconds:
            break

    losses = {s["resized_loss"] for s in samples}
    correct = all(not s["failures"] for s in samples) and len(losses) == 1
    for s in samples:
        for f in s["failures"]:
            print(f"pipebench: check failed: {f}", file=sys.stderr)
    if len(losses) != 1:
        print(f"pipebench: resized_loss not deterministic: {sorted(losses)}",
              file=sys.stderr)

    def med(key):
        return statistics.median(s[key] for s in samples)

    metrics = {
        "wall_s": {"value": med("wall_s"), "unit": "s"},
        "serial_wall_s": {"value": med("serial_wall_s"), "unit": "s"},
        "peak_rss_mb": {"value": med("peak_rss_mb"), "unit": "MB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "resized_loss": {"value": samples[0]["resized_loss"],
                         "unit": "packets"},
    }
    attempted = sum(s["jobs"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    if not correct:
        failed = attempted
    return correct, attempted, failed, metrics


def per_layer(binary, workload, scenario_file, trace_file):
    result = call([binary, "trace", workload, scenario_file, trace_file])
    for f in result["failures"]:
        print(f"pipebench: check failed: {f}", file=sys.stderr)
    print(f"pipebench: spans written to {trace_file}", file=sys.stderr)
    return (not result["failures"], result["jobs"], result["failed"],
            result["metrics"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    out_dir = build_dir()
    binary = build(out_dir)
    work_dir = os.path.join(out_dir, "runs")
    os.makedirs(work_dir, exist_ok=True)
    tag = f"{args.workload}-{args.seed}"
    scenario_file = os.path.join(work_dir, f"workload-{tag}.json")
    done = subprocess.run([binary, "generate", args.workload, str(args.seed),
                           scenario_file], stderr=sys.stderr)
    if done.returncode != 0:
        fail("workload generation failed")

    if args.trace:
        correct, attempted, failed, metrics = per_layer(
            binary, args.workload, scenario_file,
            os.path.join(work_dir, f"trace-{tag}.json"))
        key = "per_layer"
    else:
        correct, attempted, failed, metrics = end_to_end(
            binary, args.workload, scenario_file, args.seconds)
        key = "end_to_end"
    declared = declared_metrics(key)
    if declared is not None and sorted(declared) != sorted(metrics):
        fail(f"metrics differ from BENCHMARK.json's {key}: "
             f"{sorted(set(declared) ^ set(metrics))}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
