#!/usr/bin/env python3
"""Build and run the end-to-end benchmark of the systolic DP library.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which compiles ../src) in
Release mode under .bench_build/perfbench; later calls only check that the
build is up to date.  The benchmark binary runs one workload on one thread
and prints its ledger (traced runs), a metadata record, and as the last
line the result object.  This script checks that object against
BENCHMARK.json before passing the output on, and exits non-zero without a
result when the build, the run or that check fails.  Artifacts (result,
ledger, spans) go to .bench_out/.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_out"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, timeout):
    """Run a build step; its output goes to stderr only on failure."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"failed ({proc.returncode}): {' '.join(cmd)}")


def build(targets):
    if not (BUILD / "build.ninja").exists() and not (BUILD / "Makefile").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_logged(cmd, BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", str(BUILD), "--target", *targets,
                "-j", jobs], BUILD_TIMEOUT_S)


def git_commit():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def source_digest():
    """sha256 over the library and benchmark sources, so a result names
    the code it measured even where there is no git history."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        res = json.loads(line)
    except json.JSONDecodeError as e:
        return f"last line is not JSON: {e}"
    if not isinstance(res, dict) or set(res) != {"correct", "attempted",
                                                 "failed", "metrics"}:
        return "result keys are not exactly correct/attempted/failed/metrics"
    if res["attempted"] < 1:
        return "no problem was attempted"
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        return (f"metrics differ from BENCHMARK.json: missing {missing}, "
                f"extra {extra}, or a unit differs")
    return None


def selftest():
    build(["perfbench_tests"])
    binary = BUILD / "perfbench_tests"
    if not binary.exists():
        fail("perfbench_tests was not built (GTest not found?)")
    return subprocess.run([str(binary)], cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    build(["perfbench"])
    OUT.mkdir(exist_ok=True)
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(OUT),
           "--commit", git_commit(), "--source-digest", source_digest()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark run exceeded {RUN_TIMEOUT_S} s", 3)
    if proc.returncode != 0:
        fail(f"benchmark exited with {proc.returncode}", 3)
    lines = proc.stdout.rstrip("\n").split("\n")
    err = check_result(lines[-1], args.trace == 1)
    if err:
        sys.stderr.write(proc.stdout)
        fail(err, 4)
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
