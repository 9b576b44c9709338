#!/usr/bin/env python3
"""End-to-end serving benchmark runner.

Builds the e2ebench binary (an optimized build of the tetri libraries
plus the benchmark's own probes) under .bench_build/, runs one
workload, and prints the run's context lines, a machine fingerprint
and, last, one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage, from the repository root:

    python3 e2ebench/run.py --workload sim-steady-flux --seed 1 \
        --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer
metrics (see e2ebench/METRICS.md). Exits 0 when the outputs verified,
1 when a check failed, 2 when the benchmark could not be built or run.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

WORKLOADS = ("sim-steady-flux", "sim-burst-sd3", "rt-closed-flux")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD_DIR, "e2ebench")


def die(message, code=2):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log_path, timeout):
    with open(log_path, "a") as log:
        log.write("$ " + " ".join(cmd) + "\n")
        log.flush()
        try:
            result = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=timeout, check=False)
        except subprocess.TimeoutExpired:
            return False
    return result.returncode == 0


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no tetri sources at src/; run from a full checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run_logged(cmd, log_path, BUILD_TIMEOUT_S):
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            die("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    remaining = max(1.0, deadline - time.monotonic())
    if not run_logged(["cmake", "--build", BUILD_DIR, "-j", jobs],
                      log_path, remaining):
        die("build failed; see " + log_path)


def source_digest():
    """sha256 over the benchmark and program sources; a source checkout
    need not be a git repository, so the commit alone may be unknown."""
    h = hashlib.sha256()
    for top in ("src", os.path.basename(BENCH_DIR)):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0:
        die("--seconds must be positive")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        die("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        die("run printed no result (exit code %d)" % proc.returncode)

    correct = bool(result["correct"]) and proc.returncode == 0
    expected = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        print("metric set differs from BENCHMARK.json: got %s, expected %s"
              % (sorted(got.items()), sorted(expected.items())))
        correct = False

    for line in lines[:-1]:
        print(line)
    fingerprint = {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "compiler": result["info"].get("compiler"),
        "build_type": result["info"].get("build_type"),
        "commit": commit(),
        "source_digest": source_digest(),
    }
    print("fingerprint: " + json.dumps(fingerprint, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": result["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
