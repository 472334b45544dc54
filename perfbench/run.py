#!/usr/bin/env python3
"""Whole-system benchmark runner (see README.md in this directory).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a source checkout. Builds the library and the
benchmark binary from source into $CARGO_TARGET_DIR (default .bench_build)
on first use, runs one workload, checks that the result carries exactly
the metrics BENCHMARK.json declares, stores the full record with its
provenance under <build dir>/results/, and prints the result JSON object as
the last line of standard output.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configures (once) and builds; returns the benchmark binary's path.
    On an unchanged tree the build step finds nothing to do."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources at {ROOT / 'src'}; run from a full checkout")
    out = build_dir()
    binary = out / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1)])
    with open(log, "w") as log_file:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log_file,
                                      stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail(f"build timed out after {BUILD_TIMEOUT_S} s (log: {log})")
            if done.returncode != 0:
                tail = log.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build step failed: {' '.join(step)} (log: {log})")
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def git_describe():
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(binary, args):
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--git", git_describe()]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        print(done.stdout, end="")
        fail(f"{args.workload} exited with code {done.returncode}")
    print("\n".join(lines[:-1]))

    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    declared = declared_metrics(args.trace == 1)
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    if reported != declared:
        fail(f"reported metrics {reported} differ from BENCHMARK.json {declared}")

    provenance = {}
    witnesses = {}
    samples = {}
    for line in lines[:-1]:
        if line.startswith("provenance "):
            provenance = json.loads(line[len("provenance "):])
        elif line.startswith("witness "):
            _, name, value = line.split(" ", 2)
            witnesses[name] = value
        elif line.startswith("samples "):
            _, name, *values = line.split()
            samples[name] = [float(v) for v in values]
    results = build_dir() / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"provenance": provenance,
                                  "witnesses": witnesses,
                                  "samples": samples,
                                  "result": result}, indent=1) + "\n")
    print(json.dumps(result))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check the allocation counter and its exact repeat")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    started = time.monotonic()
    binary = build()
    print(f"build: up to date after {time.monotonic() - started:.1f} s",
          file=sys.stderr)
    if args.selftest:
        sys.exit(subprocess.run([str(binary), "--selftest"],
                                timeout=RUN_TIMEOUT_S).returncode)
    run(binary, args)


if __name__ == "__main__":
    main()
