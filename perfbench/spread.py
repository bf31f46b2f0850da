#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Run from the root of the repository:

    python3 perfbench/spread.py [--workloads chaos,explain] [--seeds 1-10]
                                [--seconds S] [--trace 0|1] [--out FILE]

For every workload (default: all in BENCHMARK.json) it runs
perfbench/run.py once per seed, one run at a time, and prints for each
metric the median, the quartiles as statistics.quantiles(values, n=4)
gives them, and the spread (q3 - q1) / median, after the wall time a
run took on average.  With --trace 0 it also
prints the metric's bound from BENCHMARK.json and flags a spread above
a third of it.  --out keeps every run's result as JSON.  The exit code
is 1 if any run failed or reported an incorrect result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(root, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results, ok = {}, True
    for workload in args.workloads.split(","):
        runs, started = [], time.monotonic()
        for seed in seed_list(args.seeds):
            r = run_once(root, workload, seed, args.seconds, args.trace)
            if r is None or not r["correct"]:
                print(f"{workload} seed {seed}: failed run: {r}")
                ok = False
                continue
            runs.append(r)
        results[workload] = runs
        if len(runs) < 2:
            continue
        wall = (time.monotonic() - started) / len(seed_list(args.seeds))
        print(f"== {workload}: {len(runs)} runs, {wall:.1f} s of wall time per run")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            line = (f"  {name:40s} median {med:12.6g}  q1 {q1:12.6g}  "
                    f"q3 {q3:12.6g}  spread {spread:7.4f}")
            if name in bounds:
                flag = "" if name == "setup_s" or spread <= bounds[name] / 3 else "  WIDE"
                line += f"  bound {bounds[name]}{flag}"
            print(line)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
