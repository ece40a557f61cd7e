"""Bounded-exhaustive differential: every net of a tiny class.

Class A is every network of a 2-state FSM leader and a 2-state FSM
contributor over the one value 1.  Each machine may have any subset of its
8 possible transitions (source, r(1) or w(1), target), and the leader any
of its 3 nonempty Buchi sets: 2^8 * 2^8 * 3 = 196,608 nets.  With 2 states
there is no renaming of non-initial states to factor out.

Each net is decided by api.run_check in the default mode and checked
against the explicit engine (check_net):
  - the verdict is NONEMPTY or EMPTY, and a NONEMPTY witness replays;
  - an EMPTY verdict is EMPTY in the explicit engine at k = 1, 2 and 3;
  - a NONEMPTY witness with k <= 3 is NONEMPTY in the explicit engine at
    that k; one with k > 3 whose net the explicit engine finds EMPTY at
    every k <= 3 is listed for review (the explicit engine may need more
    contributors).

Run from the root of a checkout; it takes about a minute on one core:

    PYTHONPATH=src python3 tests/small_scope.py > tests/small_scope_class_a.json

It prints the tallies of the whole class as one JSON object.  pytest does
not collect this file (no test_ prefix); test_small_scope.py checks a
seeded sample of the class.
"""

from __future__ import annotations

import json
import sys
from collections import Counter

from paramck.api import run_check
from paramck.explicit import check_explicit, replay
from paramck.machines import (CONTRIBUTOR, LEADER, Action, Fsm,
                              make_network)

CLASS_A_SIZE = 2 ** 8 * 2 ** 8 * 3
BUCHI_SETS = (frozenset(["p0"]), frozenset(["p1"]), frozenset(["p0", "p1"]))


def machine(role, prefix, mask, accepting=None):
    """The 2-state FSM of role with the transitions that mask selects, bit
    i for the i-th of (src, action, dst) in src, kind, dst order."""
    states = (f"{prefix}0", f"{prefix}1")
    possible = [(src, Action(role, kind, "1"), dst) for src in states
                for kind in ("read", "write") for dst in states]
    return Fsm(frozenset(states), states[0],
               tuple(t for i, t in enumerate(possible) if mask >> i & 1),
               accepting)


def class_a_net(index):
    """The index-th net of class A, 0 <= index < CLASS_A_SIZE."""
    rest, buchi = divmod(index, 3)
    leader_mask, contributor_mask = divmod(rest, 2 ** 8)
    return make_network(
        ["1"], machine(LEADER, "p", leader_mask, BUCHI_SETS[buchi]),
        machine(CONTRIBUTOR, "q", contributor_mask))


def check_net(net):
    """(verdict, witness k or None, disagreements, needs review) of one
    net; a disagreement is a string naming what failed."""
    verdict, _ = run_check(net)
    bad = []
    k = None
    if verdict.kind == "EMPTY":
        bad += [f"EMPTY, but NONEMPTY at k = {j}" for j in (1, 2, 3)
                if check_explicit(net, j).kind != "EMPTY"]
    elif verdict.kind == "NONEMPTY":
        k = verdict.witness.k
        if replay(net, verdict.witness) != ("valid", None):
            bad.append("witness does not replay")
        if k <= 3 and check_explicit(net, k).kind != "NONEMPTY":
            bad.append(f"witness with k = {k}, but EMPTY at that k")
    else:
        bad.append(f"verdict {verdict.kind}")
    review = k is not None and k > 3 and all(
        check_explicit(net, j).kind == "EMPTY" for j in (1, 2, 3))
    return verdict.kind, k, bad, review


def tally(indices):
    """The tallies of the nets with the given indices."""
    verdicts, ks = Counter(), Counter()
    disagreements, review = [], []
    for index in indices:
        kind, k, bad, listed = check_net(class_a_net(index))
        verdicts[kind] += 1
        if k is not None:
            ks[k] += 1
        disagreements += [[index, why] for why in bad]
        if listed:
            review.append([index, k])
    return {"nets": sum(verdicts.values()), "verdicts": dict(verdicts),
            "witness_k": {str(k): n for k, n in sorted(ks.items())},
            "disagreements": disagreements, "review": review}


def main():
    json.dump({"class": "A: 2-state FSM leader, 2-state FSM contributor,"
                        " one value", **tally(range(CLASS_A_SIZE))},
              sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
