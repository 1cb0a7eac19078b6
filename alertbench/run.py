#!/usr/bin/env python3
"""Alert-path benchmark entry point.

Builds the testbed libraries and the benchmark binary from source into
.bench_build/alertbench (CMake; Ninja when available), then runs one
measurement:

    python3 alertbench/run.py --workload live_flows --seed 1 --seconds 40 --trace 0

Every metric is printed by name with its unit; the last line of standard
output is one JSON object with keys correct, attempted, failed and metrics.
The exit code is nonzero when the build fails or any output check fails.

    python3 alertbench/run.py --check

builds, runs the recorder self-tests, and runs every workload briefly on
the default seed and on a held-out seed so the output checks and the
workload-shape guards are exercised on both.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "alertbench")
WORKLOADS = ("live_flows", "paced_attack")
DEFAULT_SEED = 1
HELD_OUT_SEED = 1009
RUN_TIMEOUT_S = 175


def log(message):
    print(f"alertbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                          stdout=sys.stderr).returncode == 0


def source_id():
    """Git commit when available (with a digest of any uncommitted change),
    else a digest of the benchmarked sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True)
        if result.returncode == 0:
            ident = "git:" + result.stdout.strip()
            status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                                    capture_output=True).stdout
            if status:
                diff = subprocess.run(["git", "-C", ROOT, "diff", "HEAD"],
                                      capture_output=True).stdout
                ident += "+dirty:" + hashlib.sha256(status + diff).hexdigest()[:16]
            return ident
    digest = hashlib.sha256()
    for top in ("src", "alertbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "sha256:" + digest.hexdigest()[:16]


def run(workload, seed, seconds, trace):
    """Run the binary; keep provenance and result in .bench_build/results."""
    command = [os.path.join(BUILD, "alertbench"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--source-id", source_id()]
    if trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--spans", os.path.join(traces, f"{workload}-{seed}.tsv")]
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S, cwd=ROOT,
                                capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        log(f"{workload} seed {seed} exceeded {RUN_TIMEOUT_S}s")
        return None
    lines = result.stdout.strip().splitlines()
    try:
        record = {"provenance": json.loads(lines[0])["provenance"],
                  "result": json.loads(lines[-1])}
        results = os.path.join(ROOT, ".bench_build", "results")
        os.makedirs(results, exist_ok=True)
        name = f"{workload}-{seed}-trace{trace}.json"
        with open(os.path.join(results, name), "w") as handle:
            json.dump(record, handle, indent=1)
    except (IndexError, ValueError, KeyError):
        pass  # no result to keep; the exit code reports the failure
    return result


def check():
    tests = subprocess.run([os.path.join(BUILD, "alertbench_tests")])
    ok = tests.returncode == 0
    for workload in WORKLOADS:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            result = run(workload, seed, 1, 0)
            last = result.stdout.strip().splitlines()[-1] if result and result.stdout else ""
            try:
                passed = (result is not None and result.returncode == 0
                          and json.loads(last)["correct"] is True)
            except (ValueError, KeyError):
                passed = False
            print(f"{workload:14s} seed {seed:5d}: {'ok' if passed else 'FAILED'}")
            if not passed and result is not None:
                sys.stdout.write(result.stdout)
            ok = ok and passed
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true",
                        help="self-tests plus every workload on two seeds")
    args = parser.parse_args()
    if not args.check and args.workload is None:
        parser.error("--workload is required")
    if not build():
        log("build failed")
        return 1
    if args.check:
        return 0 if check() else 1
    result = run(args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        return 1
    sys.stderr.write(result.stderr)
    sys.stdout.write(result.stdout)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
