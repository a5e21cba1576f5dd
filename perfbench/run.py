#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload explain_fresh --seed 1 --seconds 10 --trace 0

Builds perfbench/ (a CMake package that compiles ../src itself) into the
directory named by CARGO_TARGET_DIR, default .bench_build, at the repository
root; runs one workload; checks that the program reported every metric that
BENCHMARK.json declares for the mode (end_to_end with --trace 0, per_layer
with --trace 1), with its unit, and no other; and prints the program's
result object as the last line of standard output.

Exit codes: 0 correct run, 1 an op failed, 2 bad usage, 3 build failed,
4 the program crashed, timed out or reported the wrong metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(code, message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures and builds the perfbench binary; returns its path."""
    out = build_dir()
    configure = ["cmake", "-S", BENCH_DIR, "-B", out,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(out, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (configure,
                ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]):
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(3, "build step %s failed: %s" % (cmd[:2], e))
        if done.returncode != 0:
            fail(3, "build step %s exited %d" % (cmd[:2], done.returncode))
    return os.path.join(out, "perfbench")


def check_result(line, declared):
    """Parses the result line and checks it against the declared metrics."""
    try:
        result = json.loads(line)
    except ValueError:
        return None, "last line is not JSON: %r" % line[:200]
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return None, "result keys differ from the contract"
    if not isinstance(result["correct"], bool):
        return None, "correct is not a boolean"
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            return None, "%s is not a whole number" % key
    if result["attempted"] < 1:
        return None, "no op attempted"
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        missing = sorted(set(declared) - set(metrics))
        extra = sorted(set(metrics) - set(declared))
        return None, "metrics differ: missing %s, undeclared %s" % (missing,
                                                                   extra)
    for name, unit in declared.items():
        m = metrics[name]
        if set(m) != {"value", "unit"} or m["unit"] != unit:
            return None, "metric %s has the wrong shape or unit" % name
        if not isinstance(m["value"], (int, float)) or isinstance(
                m["value"], bool):
            return None, "metric %s is not a number" % name
    return result, None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail(2, "--seed must be >= 0 and --seconds > 0")

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(2, "workload %r is not declared in BENCHMARK.json" %
             args.workload)
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    declared = {m["name"]: m["unit"] for m in section}

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(4, "benchmark did not finish: %s" % e)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode not in (0, 1) or not lines[-1]:
        sys.stderr.write(done.stdout)
        fail(4, "benchmark exited %d without a result" % done.returncode)
    result, error = check_result(lines[-1], declared)
    if error:
        sys.stderr.write(done.stdout)
        fail(4, error)
    for line in lines[:-1]:
        print(line)
    print(lines[-1], flush=True)
    return 0 if result["correct"] and done.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
