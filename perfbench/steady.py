"""Steadiness of the benchmark: repeated runs on fresh seeds.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--trace 0|1]

Runs perfbench/run.py ``--runs`` times on every workload of BENCHMARK.json,
alternating the workloads, with seeds first-seed, first-seed + 1, ... and
the run length BENCHMARK.json fixes.  For every metric it prints the median,
the quartiles (``statistics.quantiles(values, n=4)``) and their distance as
a share of the median, next to the bound BENCHMARK.json fixes, and the share
of failed checks per workload.  The set passes when every run is correct,
the failed share is the same in every run of a workload, and every spread,
set-up time's included, is within its bound; the column ``/bound`` shows the
spread as a share of the bound.  Two sets on disjoint seeds should also have
medians within the bounds of each other.  The raw results are written to
perfbench/_out/steady-<first-seed>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    results = {w: [] for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            seed = args.first_seed + i
            proc = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                 "--workload", w, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                sys.exit(f"run failed: {w} seed {seed}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            res["seed"] = seed
            results[w].append(res)
            print(f"{w} seed {seed}: correct={res['correct']}"
                  f" attempted={res['attempted']} failed={res['failed']}",
                  file=sys.stderr, flush=True)

    passed = True
    for w, runs in results.items():
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        correct = all(r["correct"] for r in runs)
        passed &= correct and len(shares) == 1
        print(f"\n{w}: {len(runs)} runs, correct={correct},"
              f" failed share {shares}")
        print(f"  {'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
              f" {'spread':>7s} {'bound':>6s} {'/bound':>6s}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            share = ""
            if bound is not None:
                passed &= spread <= bound
                share = f"{spread / bound:.2f}"
            print(f"  {name:32s} {med:12.6g} {q1:12.6g} {q3:12.6g}"
                  f" {spread:7.3f} {'' if bound is None else bound:>6}"
                  f" {share:>6}")
    os.makedirs(os.path.join(ROOT, "perfbench", "_out"), exist_ok=True)
    with open(os.path.join(ROOT, "perfbench", "_out",
                           f"steady-{args.first_seed}.json"), "w",
              encoding="utf-8") as f:
        json.dump(results, f, indent=1)
    print(f"\npassed (every spread within its bound): {passed}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
