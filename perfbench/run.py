"""Benchmark of ``paramck check`` on one seeded workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; paramck is imported from ./src.
The workload runs in a child process of its own (perfbench/worker.py), so
that peak memory belongs to that workload.  With ``--trace 0`` the last line
of stdout is a JSON object with the end-to-end metrics; ``setup_s`` is the
median over several child processes, each timed from its start to its first
timed check.  With ``--trace 1`` it holds the per-layer metrics of a traced
run.  The exit code is 0 only when every run ended and printed its result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
from perfbench.corpus import WORKLOADS  # noqa: E402  (needs ROOT on the path)

SETUP_PROBES = 4          # setup-only processes besides the measured one
CHILD_TIMEOUT = 170       # seconds; the whole run must end within 180


def child_env():
    env = dict(os.environ)
    env.pop("PARAMCK_BUDGET", None)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), ROOT])
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args, deadline, setup_only=False):
    """Run the worker; returns its parsed last line or None on failure."""
    t0 = time.time()
    cmd = [sys.executable, "-m", "perfbench.worker",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--t0", repr(t0)] + (["--setup-only"] if setup_only else [])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print("perfbench: worker timed out", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: worker exited with {proc.returncode}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "paramck", "cli.py")):
        print("perfbench: no paramck sources under ./src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + CHILD_TIMEOUT
    setups = []

    def probe(count):
        """Run ``count`` processes that stop after set-up; False if one
        failed."""
        for _ in range(count):
            out = run_child(args, deadline, setup_only=True)
            if out is None:
                return False
            setups.append(out["setup_s"])
        return True

    if not args.trace and not probe(SETUP_PROBES // 2):
        return 1
    result = run_child(args, deadline)
    if result is None:
        return 1
    if not args.trace:
        # The other half of the probes run after the measured process, so
        # that the median set-up time spans the whole run, not its start.
        if not probe(SETUP_PROBES - SETUP_PROBES // 2):
            return 1
        setups.append(result["metrics"]["setup_s"]["value"])
        print("setup seconds:", " ".join(f"{t:.3f}" for t in setups),
              file=sys.stderr)
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
