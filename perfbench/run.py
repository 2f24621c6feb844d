#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (a CMake package that compiles the
project's sources from ../src) into the directory named by
CARGO_TARGET_DIR, or .bench_build at the repository root, then runs the
benchmark binary, spe_perfbench, with the given arguments. It prints one
metric per line and a JSON result object as the last line of stdout; this
script checks that object's metric names against BENCHMARK.json and passes
the binary's exit status on. Build output goes to stderr.
"""

import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configures (once) and builds spe_perfbench; returns its path."""
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", out_dir, "--target", "spe_perfbench", "-j", "4"],
        stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(out_dir, "spe_perfbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Returns an error string, or None when the result line is well formed."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line of the benchmark output is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys differ from correct/attempted/failed/metrics"
    declared = declared_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != declared:
        return "metrics differ from BENCHMARK.json: %s" % sorted(
            set(got.items()) ^ set(declared.items()))
    return None


def main(argv):
    # A terminated run.py still stops and reaps its children: SystemExit
    # unwinds through subprocess's cleanup and the finally below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        exe = build(build_dir())
    except (OSError, subprocess.SubprocessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    proc = subprocess.Popen([exe] + argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: spe_perfbench exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stdout.write(stdout)
        return proc.returncode or 1
    error = check_result(lines[-1], "--trace" in argv and
                         argv[argv.index("--trace") + 1:][:1] == ["1"])
    if error:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print("perfbench: %s" % error, file=sys.stderr)
        return 1
    sys.stdout.write(stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
