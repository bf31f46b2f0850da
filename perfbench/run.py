#!/usr/bin/env python3
"""Build the benchmark and run one workload of it.

Run from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is battery, chaos, explain or reconverge.  The script builds
perfbench/perfbench.exe with dune, with dune's shared cache off so that
nothing outside the checkout is read or written, then runs it with the
same arguments from the root, pinned to one CPU: the benchmark and
the host-speed reference process it starts then share that CPU, so
the reference reads the speed of the CPU the ops ran on.  The exit
code is the benchmark's; the last line of stdout is the result as one
JSON object.  Build output goes to stderr.
"""

import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", root, "./perfbench/perfbench.exe"],
        cwd=root,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(root, "_build", "default", "perfbench", "perfbench.exe")
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    return subprocess.run([exe] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
