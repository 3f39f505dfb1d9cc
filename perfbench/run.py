#!/usr/bin/env python3
"""Builds and runs the online-path benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which compiles the
repository's src/ libraries) into .bench_build/perfbench; later calls only
re-check the build. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. After each run this script checks
that the metric names printed are exactly the ones BENCHMARK.json lists
for that mode, and fails the run otherwise.
"""

import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", BUILD, "-j", "4", "--target", "perfbench",
           "perfbench_selftest"]
    return subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) == 0


def listed_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv):
    binary = os.path.join(BUILD, "perfbench")
    before = os.path.getmtime(binary) if os.path.exists(binary) else None
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 3
    if before != os.path.getmtime(binary):
        # A compile just kept every core busy; let the host settle so the
        # first measurement after a build is not an outlier.
        time.sleep(10)
    if argv == ["--selftest"]:
        return subprocess.call([os.path.join(BUILD, "perfbench_selftest"),
                                os.path.join(ROOT, "BENCHMARK.json")])
    proc = subprocess.run([binary] + argv,
                          stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print(lines[-1])
        return proc.returncode or 1
    trace = "--trace" in argv and argv[argv.index("--trace") + 1] != "0"
    printed = set(result["metrics"])
    expected = listed_names(trace)
    code = proc.returncode
    if printed != expected:
        print("# CHECK FAILED: printed metrics differ from BENCHMARK.json: "
              "unlisted %s, missing %s" % (sorted(printed - expected),
                                           sorted(expected - printed)))
        result["correct"] = False
        code = code or 1
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
