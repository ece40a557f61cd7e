"""One workload in one process: set up, time the checks, verify the outputs.

Run by run.py, never by hand; it prints one JSON object as its last line.
A check is one ``paramck.cli.main(["check", ..., "--json"])`` call in this
process with stdout and stderr captured.  Checks run one after another in
whole rounds over the corpus until ``--seconds`` have passed, each followed
by one run of the reference job that gives the machine's speed (speed.py).
Verification comes after the timed rounds and is outside every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback

from perfbench import corpus, speed
from perfbench.model import Machine, WitnessError, check_window, product, \
    refute_shape, replay_witness

# Explicit-engine cross-check of EMPTY verdicts on random draws: population
# sizes, the stack bound for PDMs and the configuration budget per call.
EXPLICIT_KS = (1, 2, 3)
EXPLICIT_STACK_BOUND = 4
EXPLICIT_BUDGET = 20_000


def warmup_instance(workload):
    rng = random.Random("warmup")
    if workload == "pushdown":
        return corpus.deep_stem(rng, "warmup", 2)
    return corpus.fsm_random(rng, "warmup", n_leader=3, n_contrib=2,
                             n_values=2)


def check(cli, files):
    """One timed check; returns (seconds, exit code or None, stdout, error)."""
    leader, contributor, prop = files
    out = io.StringIO()
    error = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(["check", "--leader", leader, "--contributor",
                             contributor, "--property", prop, "--json"])
        except Exception:
            code = None
            error = traceback.format_exc(limit=3)
    return time.perf_counter() - start, code, out.getvalue(), error


def failed(code):
    """A BUDGET verdict (exit 3), another non-zero exit or an exception."""
    return code != 0


def load_network(inst, files):
    """The network paramck builds from the instance's files (public API)."""
    from paramck import (buchi_product, make_network, parse_machine_file,
                         LEADER, CONTRIBUTOR)
    machines = []
    for path, role in zip(files, (LEADER, CONTRIBUTOR, LEADER)):
        with open(path, encoding="utf-8") as f:
            machines.append(parse_machine_file(f.read(), role)[0])
    leader, contributor, prop = machines
    return make_network(inst.values, buchi_product(prop, leader), contributor)


def window_machine(fsm):
    """paramck's window FSM as a benchmark Machine."""
    rules = tuple((src, ("r" if act.kind == "read" else "w", act.value), dst)
                  for src, act, dst in fsm.transitions)
    return Machine("fsm", tuple(fsm.states), fsm.initial, rules)


def verify(inst, files, code, stdout):
    """Check one output against the benchmark's own knowledge.  Returns a
    list of contradictions (empty when the output is correct or failed)."""
    if failed(code):
        return []
    try:
        report = json.loads(stdout)
        verdict = report["verdict"]
    except (ValueError, KeyError):
        return [f"{inst.name}: exit code 0 without a JSON report"]
    if verdict not in ("EMPTY", "NONEMPTY"):
        return [f"{inst.name}: verdict {verdict!r} with exit code 0"]
    if inst.expect is not None and verdict != inst.expect:
        return [f"{inst.name}: {verdict}, but {inst.expect} by construction"]
    if inst.expect == "EMPTY" and not refute_shape(inst):
        return [f"{inst.name}: net does not have the fsm-refute shape"]
    if verdict == "NONEMPTY":
        contributor = inst.contributor
        try:
            if contributor.kind == "pdm":
                from paramck import replay_network
                contributor = window_machine(
                    replay_network(load_network(inst, files)).contributor)
                check_window(inst.contributor, contributor)
            replay_witness(product(inst.prop, inst.leader), contributor,
                           report["witness"])
        except (WitnessError, KeyError, TypeError, ValueError) as e:
            return [f"{inst.name}: witness rejected: {e}"]
        return []
    if inst.expect is None:
        from paramck import check_explicit
        net = load_network(inst, files)
        bound = EXPLICIT_STACK_BOUND if "pdm" in (
            inst.leader.kind, inst.contributor.kind) else None
        for k in EXPLICIT_KS:
            v = check_explicit(net, k, bound, budget=EXPLICIT_BUDGET)
            if v.kind == "NONEMPTY":
                return [f"{inst.name}: EMPTY, but the explicit engine finds"
                        f" a run with {k} contributors"]
    return []


def timed_rounds(cli, checks, seconds, tracer):
    """Whole rounds over the corpus for at most ``seconds`` (at least one
    round): another round starts only if one more like the last still fits.
    With a tracer, each untraced round is followed by a traced one.  Every
    check is followed by one run of the reference job (speed.py).  Each
    round is a dict with ``traced``, ``results`` (one check() result per
    instance), ``times`` (their seconds), ``scale`` (the round's factor to
    reference speed) and, when traced, ``metrics`` (the tracer's)."""
    rounds = []
    start = time.perf_counter()
    last = 0.0                  # seconds the last round (or pair) took
    while not rounds or time.perf_counter() - start + last <= seconds:
        begin = time.perf_counter()
        for traced in ((False,) if tracer is None else (False, True)):
            if tracer is not None:
                tracer.reset()
                tracer.active = traced
            results, references = [], []
            for _, files in checks:
                results.append(check(cli, files))
                references.append(speed.reference_seconds())
            if tracer is not None:
                tracer.active = False
            rounds.append({"traced": traced, "results": results,
                           "times": [res[0] for res in results],
                           "scale": speed.scale(references)})
            if traced:
                rounds[-1]["metrics"] = tracer.metrics()
        last = time.perf_counter() - begin
    return rounds


def per_check_means(rounds, scaled=True):
    """Each instance's mean check time across the rounds, each round's
    times scaled to reference speed (speed.py) unless ``scaled`` is
    false."""
    return [statistics.fmean(times) for times in zip(*[
        [t * (r["scale"] if scaled else 1.0) for t in r["times"]]
        for r in rounds])]


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True,
                   help="wall clock when the parent started this process")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    root = os.getcwd()
    import paramck
    import paramck.cli as cli
    src = os.path.join(root, "src", "paramck")
    if os.path.dirname(os.path.realpath(paramck.__file__)) \
            != os.path.realpath(src):
        sys.exit(f"paramck imported from {paramck.__file__}, not {src}")

    out_dir = os.path.join(root, "perfbench", "_out",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(out_dir)
    try:
        instances = corpus.make_corpus(args.workload, args.seed)
        written = corpus.write_corpus(
            instances + [warmup_instance(args.workload)], out_dir)
        checks = [(inst, tuple(paths)) for inst, *paths in written]
        warm = checks.pop()
        check(cli, warm[1])
        # Move what set-up left on the heap (scipy, networkx, the corpus)
        # out of the collector's reach.  Otherwise every full collection
        # scans it, 20-35 ms that land on whichever check the allocation
        # count happens to reach, and the check order changes with --seed.
        gc.collect()
        gc.freeze()
        setup_s = time.time() - args.t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        tracer = None
        if args.trace:
            from perfbench.trace import Tracer
            tracer = Tracer()
        rounds = timed_rounds(cli, checks, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.close()
        untraced = [r for r in rounds if not r["traced"]]
        traced = [r for r in rounds if r["traced"]]
        print("unscaled corpus seconds:",
              f"{sum(per_check_means(untraced, scaled=False)):.3f}",
              "scale:", " ".join(f"{r['scale']:.3f}" for r in rounds),
              file=sys.stderr)
        print("round seconds:", " ".join(
            f"{sum(r['times']):.3f}{'*' if r['traced'] else ''}"
            for r in rounds), file=sys.stderr)

        errors = []
        first = rounds[0]["results"]
        for r in rounds[1:]:
            for (inst, _), a, b in zip(checks, first, r["results"]):
                if a[1:3] != b[1:3]:
                    errors.append(f"{inst.name}: output differs between"
                                  " rounds")
        for (inst, files), (_, code, stdout, error) in zip(checks, first):
            if error is not None:
                print(f"{inst.name}: {error}", file=sys.stderr)
            errors += verify(inst, files, code, stdout)

        attempted = sum(len(r["results"]) for r in rounds)
        n_failed = sum(failed(res[1]) for r in rounds for res in r["results"])
        if tracer is None:
            times = per_check_means(untraced)
            metrics = {
                "setup_s": (setup_s, "s"),
                "corpus_s": (sum(times), "s"),
                "check_s_median": (statistics.median(times), "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
        else:
            metrics = {}
            for name, (_, unit) in traced[0]["metrics"].items():
                values = [r["metrics"][name][0] for r in traced]
                if unit == "count":
                    if len(set(values)) > 1:
                        errors.append(f"per-layer count {name} differs"
                                      f" between rounds: {values}")
                    metrics[name] = (values[0], unit)
                else:
                    metrics[name] = (statistics.median(values), unit)
            metrics["trace.overhead_s"] = (
                sum(per_check_means(traced))
                - sum(per_check_means(untraced)), "s")
        for e in errors:
            print(e, file=sys.stderr)
        print(json.dumps({
            "correct": not errors, "attempted": attempted,
            "failed": n_failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}))
        return 0
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
