#!/usr/bin/env python3
"""Self-test of the benchmark itself.

Run from the root of the repository:

    python3 perfbench/selftest.py

Checks, with short runs of perfbench/run.py:

  * on chaos, explain and reconverge, alloc_mb_per_op and every
    per-layer count repeat exactly for one seed and differ for another
    (except the counts fixed by design, listed in FIXED);
  * a planted failure is counted, not fatal: explain with every fourth
    entry naming an unknown scenario exits 0 and reports exactly a
    quarter of its ops as failed;
  * bad arguments make the benchmark exit 2 without a result.

Prints one line per check and exits 1 if any fails.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Per-layer metrics that count work rather than time it.
COUNT_UNITS = {"count", "ratio", "KiB"}

# Counts that the workload fixes by design, so another seed cannot
# change them: explain must never overwrite a flight event, and each
# reconverge op fails three links on a fixed schedule, which always
# takes four reconvergences.
FIXED = {
    "explain": {"obs.flight.overwritten"},
    "reconverge": {"routing.selfheal.reconvergences_per_op"},
}

SEEDS = (3, 3, 4)


def run(args):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py")] + args,
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc.returncode, result


def bench(workload, seed, trace, extra=()):
    code, result = run(["--workload", workload, "--seed", str(seed),
                        "--seconds", "1", "--trace", str(trace)] + list(extra))
    if code != 0 or result is None:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {code}")
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        units = {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}
    failures = 0

    def check(ok, what):
        nonlocal failures
        print(("ok    " if ok else "FAIL  ") + what)
        failures += 0 if ok else 1

    for workload in ("chaos", "explain", "reconverge"):
        plain = [bench(workload, s, 0) for s in SEEDS]
        traced = [bench(workload, s, 1) for s in SEEDS]
        check(all(r["correct"] for r in plain + traced),
              f"{workload}: every run correct")
        values = [r["metrics"]["alloc_mb_per_op"]["value"] for r in plain]
        check(values[0] == values[1] != values[2],
              f"{workload}: alloc_mb_per_op {values}")
        for name, unit in units.items():
            if unit not in COUNT_UNITS:
                continue
            v = [r["metrics"][name]["value"] for r in traced]
            if v[0] == v[1] == v[2] == 0:
                continue  # a layer this workload does not exercise
            fixed = name in FIXED.get(workload, ())
            ok = v[0] == v[1] and (fixed or v[1] != v[2])
            check(ok, f"{workload}: {name} {v}" + (" (fixed)" if fixed else ""))

    r = bench("explain", 3, 0, ["--plant", "4"])
    check(not r["correct"] and r["failed"] > 0
          and 4 * r["failed"] == r["attempted"],
          f"explain with planted failures: attempted {r['attempted']}, "
          f"failed {r['failed']}, correct {r['correct']}")

    code, result = run(["--workload", "nope", "--seed", "1",
                        "--seconds", "1", "--trace", "0"])
    check(code == 2 and result is None, f"unknown workload exits {code}")

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
