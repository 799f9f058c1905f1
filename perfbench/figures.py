#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarises every figure.

    python3 perfbench/figures.py [--workloads a,b] [--seeds 1-10] [--trace 0|1]
                                 [--seconds S] [--json OUT] [-- extra run.py flags]

For each workload and seed it calls perfbench/run.py once, in sequence,
then prints one Markdown table per workload: for every metric and ledger
figure its median, first and third quartiles (statistics.quantiles with
n=4) and the spread (q3 - q1) / median, plus the attempted/failed counts.
These tables are the reference figures in perfbench/README.md. --json
writes the raw per-run results as well.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_list(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def run_once(workload, seed, seconds, trace, extra):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", trace,
           *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    ledger = {}
    for line in lines[:-1]:
        entry = json.loads(line)
        ledger[entry["ledger"]] = (entry["value"], entry["unit"])
    return {"seed": seed, "exit": proc.returncode, "result": result,
            "ledger": ledger}


def summarise(workload, runs, declared_names):
    print(f"\n### {workload} ({len(runs)} runs)\n")
    attempted = [r["result"]["attempted"] for r in runs]
    failed = [r["result"]["failed"] for r in runs]
    print(f"attempted {min(attempted)}..{max(attempted)}, "
          f"failed {sum(failed)}, all correct: "
          f"{all(r['result']['correct'] for r in runs)}\n")
    print("| figure | unit | median | q1 | q3 | spread |")
    print("|---|---|---|---|---|---|")
    order = list(runs[0]["ledger"])
    names = sorted(order, key=lambda n: (n not in declared_names, order.index(n)))
    for name in names:
        values = [r["ledger"][name][0] for r in runs if name in r["ledger"]]
        unit = runs[0]["ledger"][name][1]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else 0.0
        mark = " **" if name in declared_names else ""
        print(f"| {name}{mark} | {unit} | {med:.6g} | {q1:.6g} | {q3:.6g} "
              f"| {spread:.4f} |")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in declared["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--seconds", default=str(declared["run_seconds"]))
    parser.add_argument("--json")
    args, extra = parser.parse_known_args()
    if extra and extra[0] == "--":
        extra = extra[1:]
    key = "per_layer" if args.trace == "1" else "end_to_end"
    declared_names = {m["name"] for m in declared[key]}
    everything = {}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, args.seconds, args.trace, extra)
                for s in seed_list(args.seeds)]
        everything[workload] = runs
        if args.json:
            Path(args.json).write_text(json.dumps(everything, indent=1))
        summarise(workload, runs, declared_names)
        sys.stdout.flush()
    print("\n** = metric of BENCHMARK.json")


if __name__ == "__main__":
    main()
