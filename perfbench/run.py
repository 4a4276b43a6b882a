#!/usr/bin/env python3
"""Build and run the benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload trace-pipeline --seed 1 --seconds 30 --trace 0

Builds perfbench/main.exe and the `repro` CLI with dune, runs one
workload, and passes its report through.  The last line of standard
output is the JSON result.  Exits non-zero without a result when the
checkout cannot be built or the run fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("trace-pipeline", "serve-mixed")
RUN_TIMEOUT_S = 175
MAIN = os.path.join("_build", "default", "perfbench", "main.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for needed in ("dune-project", "lib", "bin", "golden"):
        if not os.path.exists(needed):
            fail("run me from the root of a source checkout (no %s here)" % needed)

    # No shared dune cache: the build reads and writes only the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe", "./bin/repro.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        fail("build failed")

    # One CPU for everything the run starts, the serve daemon included,
    # so the reference kernel and the work it normalizes share a core.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    cmd = [MAIN, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # Own session, so a timeout takes down the serve daemon too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        sys.stderr.write(out)
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(out)
        fail("run exited with %d" % proc.returncode)
    lines = out.rstrip("\n").split("\n")
    try:
        json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(out)
        fail("run printed no JSON result")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
