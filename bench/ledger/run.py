#!/usr/bin/env python3
"""Build the ledger from source, then run it with the given arguments.

Run from the repository root, for example:

    python3 bench/ledger/run.py --workload mesh_dos --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/ledger (default .bench_build/ledger) and
is incremental, so only the first run pays for compiling the simulator.
Build output goes to stderr: the ledger's last stdout line stays its result.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    build = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "ledger")
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            shutil.rmtree(build, ignore_errors=True)
            return 1
    if subprocess.call(["cmake", "--build", build, "-j", "4"], stdout=sys.stderr) != 0:
        return 1
    ledger = os.path.join(build, "ledger")
    sys.stdout.flush()
    os.execv(ledger, [ledger] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
