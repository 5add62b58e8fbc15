#!/usr/bin/env python3
"""Build the program from this checkout and run one benchmark workload.

    python3 perfbench/run.py --workload batch|serve-warm|serve-mixed \
        --seed N --seconds S --trace 0|1

Builds perfbench.exe and the two daemons it spawns with dune (build
output goes to stderr), then runs perfbench.exe, whose last stdout line
is the JSON result.  Exits non-zero, without a result line, when
the build fails or the run does not finish in time; every process the
run started is in its own session and is killed with it.
"""

import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGETS = [
    "./perfbench/perfbench.exe",
    "./bin/rip_serviced.exe",
    "./bin/rip_routerd.exe",
]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def kill_session(proc):
    for sig in (signal.SIGTERM, signal.SIGKILL):
        try:
            os.killpg(proc.pid, sig)
        except ProcessLookupError:
            return
        try:
            proc.wait(timeout=5)
            return
        except subprocess.TimeoutExpired:
            continue


def main():
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    # The shared dune cache lives outside the checkout; keep every write
    # inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            [dune, "build", "--root", ".", "--display", "quiet"] + TARGETS,
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if build.returncode != 0:
        fail("build failed (exit %d)" % build.returncode)
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
    proc = subprocess.Popen([exe] + sys.argv[1:], cwd=ROOT,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_session(proc)
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    except KeyboardInterrupt:
        kill_session(proc)
        raise
    # Daemons that outlived perfbench.exe (it was killed) go with its session.
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    sys.exit(code)


if __name__ == "__main__":
    main()
