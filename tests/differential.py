"""Differential set: `paramck check --json` on 1,674 seeded runs.

Run from the root of a checkout, with PYTHONHASHSEED=0 so that set
iteration orders repeat:

    PYTHONHASHSEED=0 PYTHONPATH=src python3 tests/differential.py > out.jsonl

It prints one JSON line per run: its name, the exit code of
`paramck.cli.main(["check", ..., "--json"])` (null when it raised) and what
the check printed.  Two checkouts agree when `cmp` finds their outputs
identical.  The runs, in this order, all in the default mode but the last
280:
  - both benchmark corpora at seed 1, each followed by its warm-up net;
  - 200 random_fsm_network, 40 random_pdm_leader_network and 40
    random_pdm_pdm_network fixture nets from one Random(2024), named
    fsm000 ... pdmpdm279, each written with its Buchi leader and a
    one-state property that accepts every leader action;
  - 400 perfbench.corpus.fsm_random draws from one Random(7) with
    randint(3, 6) leader, randint(2, 4) contributor states and
    randint(2, 3) values, named draw000 ... draw399;
  - 300 random_pdm_leader_network, 100 random_pdm_pdm_network and 200
    random_deep_pdm_network fixture nets from one Random(99), named
    pdm99/pdmfsm000 ... pdm99/deep599 and written like the fixture nets
    above;
  - the 280 Random(2024) fixture nets again, in `--mode explicit` with
    `--contributors 2` (and `--stack-bound 3` when a PDM is present),
    named explicit/fsm000 ... explicit/pdmpdm279.

pytest does not collect this file (no test_ prefix).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.dirname(HERE)]

from perfbench import corpus, worker  # noqa: E402
from perfbench.model import machine_text  # noqa: E402

import fixtures  # noqa: E402
from paramck import cli  # noqa: E402
from paramck.fileformat import print_machine  # noqa: E402


def bench_nets():
    """(name, leader, contributor, property) texts of both corpora."""
    for workload in corpus.WORKLOADS:
        for inst in corpus.make_corpus(workload, 1) + \
                [worker.warmup_instance(workload)]:
            yield (f"{workload}/{inst.name}",
                   *(machine_text(m, inst.values)
                     for m in (inst.leader, inst.contributor, inst.prop)))


def written_nets(rng, makers):
    """(name, leader, contributor, property) texts of one net per
    (prefix, maker), each with a one-state property that accepts every
    leader action."""
    for i, (prefix, make) in enumerate(makers):
        net = make(rng)
        values = sorted(net.values)
        prop = "".join([f"kind = buchi-fsm\nvalues = {' '.join(values)}\n",
                        "states = s\ninitial = s\naccepting = s\n",
                        *(f"trans = s {op}({v}) s\n"
                          for v in values for op in "rw")])
        yield (f"{prefix}{i:03d}", print_machine(net.leader, values),
               print_machine(net.contributor, values), prop)


def fixture_nets():
    return written_nets(random.Random(2024),
                        [("fsm", fixtures.random_fsm_network)] * 200
                        + [("pdmfsm", fixtures.random_pdm_leader_network)] * 40
                        + [("pdmpdm", fixtures.random_pdm_pdm_network)] * 40)


def pdm_nets():
    return written_nets(
        random.Random(99),
        [("pdm99/pdmfsm", fixtures.random_pdm_leader_network)] * 300
        + [("pdm99/pdmpdm", fixtures.random_pdm_pdm_network)] * 100
        + [("pdm99/deep", fixtures.random_deep_pdm_network)] * 200)


def draw_nets():
    rng = random.Random(7)
    for i in range(400):
        sizes = rng.randint(3, 6), rng.randint(2, 4), rng.randint(2, 3)
        inst = corpus.fsm_random(rng, f"draw{i:03d}", *sizes)
        yield (inst.name, *(machine_text(m, inst.values)
                            for m in (inst.leader, inst.contributor,
                                      inst.prop)))


def explicit_runs():
    """(name, texts, options) of the fixture nets in explicit mode."""
    for name, *texts in fixture_nets():
        pdm = any(t.startswith(("kind = pdm", "kind = buchi-pdm"))
                  for t in texts[:2])
        yield (f"explicit/{name}", texts,
               ["--mode", "explicit", "--contributors", "2",
                *(["--stack-bound", "3"] if pdm else [])])


def run(name, texts, directory, options=()):
    paths = []
    for role, text in zip(("leader", "contributor", "property"), texts):
        path = os.path.join(directory, f"{name.replace('/', '-')}.{role}")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        paths.append(path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(["check", "--leader", paths[0], "--contributor",
                             paths[1], "--property", paths[2], "--json",
                             *options])
        except Exception as exc:  # a crash is a result to compare
            code = None
            out.write(f"{type(exc).__name__}: {exc}")
    return {"name": name, "exit": code, "output": out.getvalue()}


def main():
    print(f"paramck from {os.path.dirname(cli.__file__)}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as directory:
        for net in (*bench_nets(), *fixture_nets(), *draw_nets(),
                    *pdm_nets()):
            print(json.dumps(run(net[0], net[1:], directory)), flush=True)
        for name, texts, options in explicit_runs():
            print(json.dumps(run(name, texts, directory, options)), flush=True)


if __name__ == "__main__":
    main()
