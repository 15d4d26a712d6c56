#!/usr/bin/env python3
"""Build the simulator from source and run one benchmark workload.

    python3 perfbench/run.py --workload spec-solo --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The last line of standard output is the
result object printed by perfbench/main.exe (see perfbench/README.md).
Exits non-zero without a result when the checkout holds no sources to
build, or when the build fails.
"""

import os
import signal
import subprocess
import sys

NEEDED = ["dune-project", "lib", "bin", "perfbench/dune", "perfbench/golden.json"]
MAIN = os.path.join("_build", "default", "perfbench", "main.exe")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def main():
    missing = [p for p in NEEDED if not os.path.exists(p)]
    if missing:
        fail("run from the root of a checkout; missing: " + ", ".join(missing))
    # the shared dune cache lives outside the checkout: keep it off
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe", "./bin/shiftc.exe"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        fail("build failed")
    # the workload runs in its own process group, so any daemon it
    # spawned is stopped with it whatever way it ends
    proc = subprocess.Popen(
        [MAIN] + sys.argv[1:], start_new_session=True
    )

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    code = proc.wait()
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    sys.exit(code)


if __name__ == "__main__":
    main()
