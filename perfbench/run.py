#!/usr/bin/env python3
"""Build and run the Eden benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --crosscheck

Run from the root of an Eden source tree.  Builds perfbench/main.exe
with dune (release profile, shared cache off, so everything stays inside
the tree) and runs it with the same arguments.  Build output goes to
standard error; the benchmark's last line of standard output is the JSON
result.  Exits non-zero without a result when the tree holds no Eden
sources to build.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    missing = [p for p in ("dune-project", "lib") if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        sys.stderr.write("perfbench: no Eden sources to build here (missing %s)\n" % ", ".join(missing))
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--profile", "release", "./perfbench/main.exe"],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
