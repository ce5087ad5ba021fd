#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-panel --seed 1 --seconds 20 --trace 0

The first call builds perfbench/perfbench.exe (and the libraries it
links) with dune into .bench_build/, in the release profile the
workspace selects; later calls find it built.  Every argument is handed to
the executable, which validates them; its last line of standard output
is the JSON result.  Build output goes to standard error.
"""

import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")


def fail(msg):
    print("perfbench/run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail("%s not found: run from the root of a gripps checkout" % needed)
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    # The shared dune cache lives outside the checkout; keep the build
    # inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [dune, "build", "--root", ".", "--build-dir", BUILD_DIR,
         "./perfbench/perfbench.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        fail("build failed (exit %d)" % build.returncode)
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(EXE, [EXE] + sys.argv[1:])


if __name__ == "__main__":
    main()
