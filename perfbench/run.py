#!/usr/bin/env python3
"""Builds the nn-baton benchmark harness and the `baton` binary from source,
then runs one benchmark workload.

    python3 perfbench/run.py --workload map-zoo --seed 1 --seconds 10 --trace 0

Run from the repository root. Build output goes to $CARGO_TARGET_DIR (default
`.bench_build`); compiler messages go to stderr, so the last line of stdout is
the harness's JSON result. Exits non-zero, without a result, when the build or
the run fails.
"""

import os
import signal
import subprocess
import sys

# The harness must end well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def build(target, manifest, *extra):
    cmd = ["cargo", "build", "--release", "--quiet", "--offline",
           "--manifest-path", manifest, *extra]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # Cargo's own stdout is routed to stderr: stdout carries only the result.
    return subprocess.run(cmd, env=env, stdout=sys.stderr).returncode == 0


def main():
    root = os.getcwd()
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    harness_manifest = os.path.join(root, "perfbench", "Cargo.toml")
    if not build(target, harness_manifest):
        print("error: building the harness failed", file=sys.stderr)
        return 1
    if not build(target, os.path.join(root, "Cargo.toml"), "-p", "nn-baton", "--bin", "baton"):
        print("error: building the baton binary failed", file=sys.stderr)
        return 1
    harness = os.path.join(target, "release", "baton-perfbench")
    baton = os.path.join(target, "release", "baton")
    # A session of its own, so a timeout can stop the harness and any
    # server it started together.
    proc = subprocess.Popen([harness, *sys.argv[1:], "--baton", baton],
                            start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"error: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
