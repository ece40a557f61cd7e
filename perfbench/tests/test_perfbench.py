"""Tests of the benchmark's own code: generators, the fsm-refute predicate
and the independent witness replayer.  They need no paramck.

    python3 -m pytest perfbench/tests
"""

import dataclasses
import random

import pytest

from perfbench import corpus
from perfbench.model import (Instance, Machine, WitnessError, check_window,
                             initial_local, machine_text, product,
                             refute_shape, replay_witness, step)


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_generators_are_deterministic_for_a_seed(workload):
    first = corpus.make_corpus(workload, 7)
    again = corpus.make_corpus(workload, 7)
    other = corpus.make_corpus(workload, 8)
    assert first == again
    texts = [machine_text(i.leader, i.values) for i in first]
    assert texts == [machine_text(i.leader, i.values) for i in again]
    assert texts != [machine_text(i.leader, i.values) for i in other]


def test_the_seed_only_orders_the_checks():
    for workload in corpus.WORKLOADS:
        first, other = (sorted(corpus.make_corpus(workload, seed),
                               key=lambda inst: inst.name) for seed in (1, 2))
        assert first == other


def test_failing_deep_stems_do_not_depend_on_the_seed():
    stems = [sorted((i for i in corpus.make_corpus("pushdown", seed)
                     if i.name.startswith("stem")), key=lambda i: i.name)
             for seed in (1, 2)]
    assert stems[0] == stems[1]
    assert [len(i.leader.rules) - 2 for i in stems[0]] \
        == list(corpus.STEM_DEPTHS)


def test_refute_predicate_holds_on_drawn_nets():
    for seed in range(5):
        nets = [inst for inst in corpus.make_corpus("fsm", seed)
                if inst.expect == "EMPTY"]
        assert nets and all(refute_shape(inst) for inst in nets)


def refute_net():
    return next(inst for inst in corpus.make_corpus("fsm", 0)
                if inst.expect == "EMPTY")


def test_refute_predicate_rejects_a_contributor_cycle():
    inst = refute_net()
    c = inst.contributor
    src, act, dst = c.rules[0]
    cyclic = dataclasses.replace(c, rules=c.rules + ((dst, act, src),))
    assert refute_shape(inst)
    assert not refute_shape(dataclasses.replace(inst, contributor=cyclic))


def test_refute_predicate_rejects_a_leader_that_writes_every_value():
    inst = refute_net()
    lead = inst.leader
    writes = tuple((lead.initial, ("w", v), lead.initial)
                   for v in inst.values)
    bad = dataclasses.replace(lead, rules=lead.rules + writes)
    assert not refute_shape(dataclasses.replace(inst, leader=bad))


def fsm_net():
    """The contributor writes 1 once, then the leader reads 1 forever."""
    values = ("1",)
    leader = Machine("fsm", ("p0",), "p0", (("p0", ("r", "1"), "p0"),))
    contributor = Machine("fsm", ("q0", "q1", "q2"), "q0",
                          (("q0", ("w", "1"), "q1"),
                           ("q1", ("w", "1"), "q2")))
    return Instance("fsm", values, leader, contributor,
                    corpus.gf_property(values, ("r", "1")), "NONEMPTY")


def fsm_witness():
    # d0: (s0, p0) r(1) (s1, p0); d1: (s1, p0) r(1) (s1, p0)
    return {"k": 1, "stem": [[1, "c0"], [0, "d0"]], "cycle": [[0, "d1"]]}


def loop_net():
    return corpus.long_loop(random.Random(3), "loop", 4)


def loop_witness(inst):
    """Stem: the contributor writes g, then the leader runs one lap of its
    loop; cycle: a second lap, which starts and ends at the accepting copy
    of m0 with the bottom symbol on top."""
    lead = product(inst.prop, inst.leader)
    g = inst.contributor.rules[0][1][1]
    local, store = initial_local(lead), g
    tids = []
    for _ in range(2 * len(inst.leader.states)):
        i, res = next((i, step(lead, r, local, store))
                      for i, r in enumerate(lead.rules)
                      if not isinstance(step(lead, r, local, store), str))
        tids.append(f"d{i}")
        local, store = res
    n = len(inst.leader.states)
    return {"k": 1, "pivot": "Z",
            "stem": [[1, "c0"]] + [[0, t] for t in tids[:n]],
            "cycle": [[0, t] for t in tids[n:]]}


@pytest.mark.parametrize("net, witness", [
    (fsm_net, lambda inst: fsm_witness()),
    (loop_net, loop_witness),
])
def test_replayer_accepts_a_valid_witness(net, witness):
    inst = net()
    replay_witness(product(inst.prop, inst.leader), inst.contributor,
                   witness(inst))


def mutations():
    w = fsm_witness()
    yield "dropped step", dict(w, stem=w["stem"][1:])
    yield "wrong actor", dict(w, stem=[[0, "c0"]] + w["stem"][1:])
    yield "contributor index out of range", dict(w, stem=[[2, "c0"]]
                                                 + w["stem"][1:])
    yield "cycle does not close", dict(w, cycle=[[1, "c1"], [0, "d1"]])
    yield "empty cycle", dict(w, cycle=[])


@pytest.mark.parametrize("reason, witness", list(mutations()))
def test_replayer_rejects_mutated_fsm_witnesses(reason, witness):
    inst = fsm_net()
    with pytest.raises(WitnessError):
        replay_witness(product(inst.prop, inst.leader), inst.contributor,
                       witness)


def test_replayer_rejects_mutated_pdm_witnesses():
    inst = loop_net()
    lead = product(inst.prop, inst.leader)
    w = loop_witness(inst)
    bad = [dict(w, cycle=w["cycle"][:-1]),               # does not close
           dict(w, cycle=w["cycle"][1:]),                # dropped step
           dict(w, stem=w["stem"][:1] + [[1, w["stem"][1][1]]]
                + w["stem"][2:]),                        # wrong actor
           dict(w, pivot="A")]                           # wrong pivot
    for witness in bad:
        with pytest.raises(WitnessError):
            replay_witness(lead, inst.contributor, witness)


def test_window_check_rejects_a_transition_without_a_rule():
    pdm = Machine("pdm", ("q",), "q",
                  (("q", ("w", "1"), "Z", "q", ("push", "X")),
                   ("q", ("r", "1"), "X", "q", ("pop",))), ("Z", "X"))
    good = Machine("fsm", (("q", ("Z",)), ("q", ("X", "Z"))), ("q", ("Z",)),
                   ((("q", ("Z",)), ("w", "1"), ("q", ("X", "Z"))),
                    (("q", ("X", "Z")), ("r", "1"), ("q", ("Z",)))))
    check_window(pdm, good)
    bad = dataclasses.replace(good, rules=good.rules + (
        (("q", ("X", "Z")), ("w", "1"), ("q", ("Z",))),))
    with pytest.raises(WitnessError):
        check_window(pdm, bad)


def test_check_times_are_scaled_round_by_round():
    from perfbench.worker import per_check_means
    rounds = [{"times": [1.0, 2.0], "scale": 0.5},
              {"times": [3.0, 4.0], "scale": 2.0}]
    assert per_check_means(rounds) == [3.25, 4.5]
    assert per_check_means(rounds, scaled=False) == [2.0, 3.0]
