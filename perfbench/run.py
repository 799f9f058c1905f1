#!/usr/bin/env python3
"""Builds and runs the dsketch pipeline benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt) in .bench_build/perfbench; later runs
only rebuild what changed. Build output goes to stderr. The benchmark's
ledger lines are passed through, and the last line of stdout is the JSON
result, checked here against the metric names and units BENCHMARK.json
declares. Extra flags after the four above (--plant, --small, --lanes)
are handed to the benchmark binary unchanged.

Exit codes: 0 all checked outputs correct; 1 some output was wrong (the
result line is still printed); any other code is an error, with no result
line.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
RUN_TIMEOUT_S = 175


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    tmp = BUILD_ROOT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))  # compiler scratch stays here
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(BUILD_ROOT / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs build once
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True, env=env)
        subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                       stdout=sys.stderr, check=True, env=env)
    return BUILD_DIR / "perfbench"


def validate(result, declared, trace):
    """Raises ValueError unless `result` has the result line's exact shape."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            raise ValueError(f"{key} is not a whole number")
    if result["attempted"] < 1:
        raise ValueError("no operation was attempted")
    wanted = declared["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if set(got) != {m["name"] for m in wanted}:
        raise ValueError(f"metrics {sorted(got)} differ from BENCHMARK.json")
    for m in wanted:
        if got[m["name"]]["unit"] != m["unit"]:
            raise ValueError(f"unit of {m['name']} is {got[m['name']]['unit']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args, extra = parser.parse_known_args()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in declared["workloads"]}:
        print(f"run.py: unknown workload {args.workload}", file=sys.stderr)
        return 2
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 2

    scratch = tempfile.mkdtemp(prefix="run-", dir=BUILD_ROOT / "tmp")
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--tmp-root", scratch, *extra]
    try:
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            try:
                out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                print("run.py: benchmark timed out", file=sys.stderr)
                return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lines = out.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        print(f"run.py: benchmark exited with {proc.returncode}", file=sys.stderr)
        return 2
    try:
        result = json.loads(lines[-1])
        validate(result, declared, args.trace == "1")
    except ValueError as err:
        print(f"run.py: bad result line: {err}", file=sys.stderr)
        return 2
    if result["correct"] != (result["failed"] == 0) or \
            (proc.returncode == 0) != result["correct"]:
        print("run.py: exit code and result disagree", file=sys.stderr)
        return 2
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
