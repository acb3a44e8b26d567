#!/usr/bin/env python3
"""Serving benchmark: the one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. It builds the library and the benchmark from
source into .bench_build/perfbench (CMake, Release), trains the workload's DNN
once into the benchmark's own model cache (.bench_build/perfbench/work/models),
then runs the workload. Everything the run prints goes to stdout; the last
line is the JSON result. The result is checked against BENCHMARK.json: with
--trace 0 it must carry exactly the end_to_end metrics, with --trace 1
exactly the per_layer metrics, each with its declared unit.

Exit status: 0 when every check passed; 1 when the build, the answers, the
request ledger, the generator-lag check or the result format failed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_DIR = os.path.join(BUILD_DIR, "work")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def build():
    """Configure once, then an incremental build of the benchmark target."""
    generated = ("Makefile", "build.ninja")
    if not any(os.path.exists(os.path.join(BUILD_DIR, f)) for f in generated):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise BenchError("build failed")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    section = bench["per_layer"] if trace else bench["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def check_result(line, trace):
    """Raise BenchError unless `line` is a well-formed result for this mode."""
    try:
        result = json.loads(line)
    except ValueError as e:
        raise BenchError("last line is not JSON: %s" % e)
    if not isinstance(result, dict) or sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise BenchError("result keys are not correct/attempted/failed/metrics")
    if not isinstance(result["correct"], bool):
        raise BenchError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool) or result[key] < 0:
            raise BenchError("%s is not a whole number" % key)
    if result["attempted"] < 1:
        raise BenchError("nothing attempted")
    declared = declared_metrics(trace)
    got = result["metrics"]
    missing = sorted(set(declared) - set(got))
    extra = sorted(set(got) - set(declared))
    if missing or extra:
        raise BenchError("metrics differ from BENCHMARK.json: missing %s, extra %s" % (missing, extra))
    for name, unit in declared.items():
        entry = got[name]
        if entry.get("unit") != unit or not isinstance(entry.get("value"), (int, float)):
            raise BenchError("metric %s: bad value or unit %r" % (name, entry))
    return result


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    build()
    common = ["--workload", args.workload, "--work-dir", WORK_DIR]
    prep = subprocess.run([BINARY, "prepare"] + common, stdout=sys.stderr, stderr=sys.stderr)
    if prep.returncode != 0:
        raise BenchError("model preparation failed")
    cmd = [BINARY, "run"] + common + [
        "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          universal_newlines=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        raise BenchError("benchmark exited with %d and no result" % proc.returncode)
    result = check_result(lines[-1], args.trace)
    if proc.returncode != 0 or not result["correct"]:
        return 1
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        sys.exit(1)
