"""End-to-end acceptance checks: worked examples, oracle equivalences at
scale, and cross-procedure agreement, each with an explicit runtime bound
where the workload is fixed."""

import random
import time

from paramck.api import run_check
from paramck.explicit import check_explicit, replay
from paramck.cyclesearch import check_fsm_fsm
from paramck.machines import Pdm, PdmRule, make_network
from paramck.reduction import compute_N, restrict_network
from paramck.parikh import parikh_cfg, parikh_fsa
from fixtures import (ca, la, lift_fsm_to_pdm, random_fsm_network,
                      random_small_pdm, ring_network, stalled_network,
                      updown_run)
from test_parikh import (cfg_vectors, characterized_vectors, fsa_vectors,
                         random_cfg, random_fsa)
from window_oracles import effective_stack_height, kbounded_agreement


def test_ring_example_nonempty_and_replayable():
    start = time.monotonic()
    net = ring_network()
    v = check_fsm_fsm(net)
    assert v.kind == "NONEMPTY"
    assert replay(net, v.witness) == ("valid", None)
    assert check_explicit(net, 4).kind == "NONEMPTY"
    assert time.monotonic() - start < 5.0


def test_stalled_leader_abstract_cycle_not_realizable():
    start = time.monotonic()
    net = stalled_network()
    assert check_fsm_fsm(net).kind == "EMPTY"
    for k in range(1, 6):
        assert check_explicit(net, k).kind == "EMPTY"
    assert time.monotonic() - start < 1.0


def test_fsm_checker_agrees_with_oracle_on_200_nets():
    start = time.monotonic()
    rng = random.Random(2024)
    for _ in range(200):
        net = random_fsm_network(rng)
        v = check_fsm_fsm(net)
        assert v.kind in ("NONEMPTY", "EMPTY")
        if v.kind == "NONEMPTY":
            assert replay(net, v.witness) == ("valid", None)
        else:
            for k in (1, 2, 3, 4):
                assert check_explicit(net, k).kind == "EMPTY"
    assert time.monotonic() - start < 120.0


def test_parikh_vectors_exact_on_100_fsas():
    rng = random.Random(8)
    for _ in range(100):
        fsa, alphabet = random_fsa(rng)
        truth = fsa_vectors(fsa, alphabet, 8)
        system = parikh_fsa(fsa, alphabet=alphabet)
        assert characterized_vectors(system, alphabet, 8) == truth


def test_parikh_vectors_exact_on_50_cfgs():
    rng = random.Random(9)
    for _ in range(50):
        g = random_cfg(rng)
        truth = cfg_vectors(g, 8)
        system = parikh_cfg(g)
        assert characterized_vectors(system, g.terminals, 8) == truth


def test_restriction_matches_bounded_runs_on_50_pdms():
    rng = random.Random(55)
    for _ in range(50):
        pdm = random_small_pdm(rng)
        for k in (1, 2, 3, 4):
            assert kbounded_agreement(pdm, k, 8) == ("holds", None)
    run = updown_run()
    assert [effective_stack_height(run, i) for i in range(7)] \
        == [1, 2, 3, 4, 3, 2, 1]
    for k in (1, 2, 3, 4):
        assert kbounded_agreement(run.machine, k, 8) == ("holds", None)


def test_explicit_verdicts_monotone_in_population():
    rng = random.Random(2024)           # the same 200 nets as the oracle run
    for _ in range(200):
        net = random_fsm_network(rng)
        nonempty_seen = False
        for k in (1, 2, 3, 4):
            kind = check_explicit(net, k).kind
            assert kind in ("NONEMPTY", "EMPTY")
            if nonempty_seen:
                assert kind == "NONEMPTY"
            nonempty_seen = kind == "NONEMPTY"


def random_tiny_pdm_contributor(rng):
    """One control state, at most two stack symbols: window bound <= 5."""
    values = ["1", "2"]
    stack = ("Z", "X")[:rng.randint(1, 2)]
    rules = []
    for _ in range(rng.randint(1, 5)):
        act = ca(rng.choice(["read", "write"]), rng.choice(values))
        symbol = rng.choice(stack)
        if len(stack) > 1 and rng.random() < 0.6:
            effect = ("push", "X")
        else:
            effect = ("pop",)
        rules.append(PdmRule("q0", act, symbol, "q0", effect))
    return Pdm(frozenset(["q0"]), stack, "q0", tuple(rules), None)


def random_tiny_pdm_leader(rng):
    values = ["1", "2"]
    states = ["p0", "p1"][:rng.randint(1, 2)]
    stack = ("Z", "A")[:rng.randint(1, 2)]
    rules = []
    for _ in range(rng.randint(1, 5)):
        act = la(rng.choice(["read", "write"]), rng.choice(values))
        if len(stack) > 1 and rng.random() < 0.5:
            effect = ("push", "A")
        else:
            effect = ("pop",)
        rules.append(PdmRule(rng.choice(states), act, rng.choice(stack),
                             rng.choice(states), effect))
    accepting = frozenset(rng.sample(states, rng.randint(1, len(states))))
    return Pdm(frozenset(states), stack, "p0", tuple(rules), accepting)


def test_pdm_pdm_checker_agrees_with_bounded_oracle():
    rng = random.Random(66)
    checked = 0
    while checked < 20:
        net = make_network(["1", "2"], random_tiny_pdm_leader(rng),
                           random_tiny_pdm_contributor(rng))
        if compute_N(net.contributor) > 5:
            continue
        checked += 1
        v, mode = run_check(net)
        assert mode == "pdm-pdm"
        if v.kind == "NONEMPTY":
            restricted = restrict_network(net)
            assert replay(restricted, v.witness) == ("valid", None)
        elif v.kind == "EMPTY":
            for k in (1, 2, 3):
                assert check_explicit(net, k, stack_bound=6).kind == "EMPTY"


def test_modes_agree_on_lifted_networks():
    rng = random.Random(404)
    for _ in range(50):
        net = random_fsm_network(rng)
        lifted_leader = make_network(net.values, lift_fsm_to_pdm(net.leader),
                                     net.contributor)
        lifted_both = make_network(net.values, lift_fsm_to_pdm(net.leader),
                                   lift_fsm_to_pdm(net.contributor))
        v1, m1 = run_check(net, "fsm-fsm")
        v2, m2 = run_check(lifted_leader, "pdm-fsm")
        v3, m3 = run_check(lifted_both, "pdm-pdm")
        assert (m1, m2, m3) == ("fsm-fsm", "pdm-fsm", "pdm-pdm")
        assert v1.kind == v2.kind == v3.kind
