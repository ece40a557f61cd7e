import random

import pytest

from paramck.machines import Fsm, Pdm, PdmRule, UNINIT, buchi_product, \
    make_network
from paramck.explicit import (Witness, _ReplayState, check_explicit,
                              contributor_local_moves, initial_config,
                              replay, successors)
from fixtures import (la, ca, ring_network, stalled_network,
                      random_fsm_network, random_pdm_leader_network,
                      random_pdm_pdm_network)


def test_initial_config_counts_population():
    net = ring_network()
    c = initial_config(net, 3)
    assert c.leader_state == net.leader.initial
    assert c.store == UNINIT
    assert c.population == (("A", 3),)
    with pytest.raises(ValueError):
        initial_config(net, 0)


def test_successors_respect_reads():
    net = ring_network()
    c = initial_config(net, 1)
    moves = successors(net, c)
    # store is uninitialized: no read can fire, only the three writes, each
    # labelled with the local state that takes it
    assert sorted((t.tid, local) for (t, local), _ in moves) == \
        [("c0", "A"), ("c3", "A"), ("c6", "A")]
    _, after = moves[0]
    assert after.store == "1"
    assert dict(after.population) == {"B": 1}


def test_ring_nonempty_at_four_contributors():
    # frozen from hand simulation: with 4 contributors the three feeder
    # loops can be staffed simultaneously and the leader cycles forever
    net = ring_network()
    v = check_explicit(net, 4)
    assert v.kind == "NONEMPTY"
    assert replay(net, v.witness) == ("valid", None)


def test_ring_empty_at_one_contributor():
    net = ring_network()
    assert check_explicit(net, 1).kind == "EMPTY"


def test_stalled_network_empty_for_all_small_k():
    net = stalled_network()
    for k in range(1, 6):
        assert check_explicit(net, k).kind == "EMPTY"


def test_replay_rejects_malformed_witnesses():
    net = ring_network()
    ok = check_explicit(net, 4).witness
    assert replay(net, Witness(ok.k, ok.stem, ()))[0] == "invalid"
    assert replay(net, Witness(0, ok.stem, ok.cycle))[0] == "invalid"
    # a contributor actor taking a leader transition must be caught
    bad_cycle = ((1, "d0"),) + ok.cycle
    assert replay(net, Witness(ok.k, ok.stem, bad_cycle))[0] == "invalid"


def test_replay_checks_cycle_closure():
    # a "cycle" that moves a contributor without moving it back
    net = stalled_network()
    w = Witness(1, (), ((1, "c0"),))
    status, (idx, reason) = replay(net, w)
    assert status == "invalid"
    assert "same configuration" in reason


def test_budget_verdict_instead_of_wrong_answer():
    net = ring_network()
    v = check_explicit(net, 4, budget=10)
    assert v.kind == "BUDGET"


def test_pdm_needs_stack_bound():
    rng = random.Random(0)
    net = random_pdm_leader_network(rng)
    with pytest.raises(ValueError):
        check_explicit(net, 1)


def test_pdm_leader_witness_pivot_contract():
    # leader pushes forever; every cycle witness must carry a pivot and may
    # end with a taller stack as long as the pivot symbol stays covered
    leader = Pdm(frozenset(["d"]), ("Z", "A"), "d",
                 (PdmRule("d", la("write", "1"), "Z", "d", ("push", "A")),
                  PdmRule("d", la("write", "1"), "A", "d", ("push", "A"))),
                 frozenset(["d"]))
    contrib = Fsm(frozenset(["q"]), "q", ())
    net = make_network(["1"], leader, contrib)
    w = Witness(1, ((0, "d0"),), ((0, "d1"),), "A")
    assert replay(net, w) == ("valid", None)
    # without the pivot, or with another symbol, the witness is rejected
    assert replay(net, Witness(1, ((0, "d0"),), ((0, "d1"),)))[0] == "invalid"
    status, (idx, reason) = replay(net, Witness(1, ((0, "d0"),), ((0, "d1"),),
                                                "Z"))
    assert status == "invalid" and idx == 1
    assert reason == "stem ends with 'A' on top, not the pivot 'Z'"


def assert_monotone(net, k):
    # NONEMPTY at k implies NONEMPTY at k + 1: the extra contributor can
    # simply stay put
    if check_explicit(net, k).kind == "NONEMPTY":
        assert check_explicit(net, k + 1).kind == "NONEMPTY"


def test_monotone_on_ring():
    assert_monotone(ring_network(), 4)


def test_monotone_on_random_nets():
    rng = random.Random(1234)
    for _ in range(40):
        assert_monotone(random_fsm_network(rng), 2)


def test_fire_takes_the_lowest_numbered_contributor():
    # random runs of a 7-state ring contributor, mixing fire with apply by
    # any contributor: fire must pick what a scan of all locals picks
    net = ring_network()
    rng = random.Random(3)
    for k in (1, 2, 5, 9):
        sim = _ReplayState(net, k)
        for _ in range(300):
            enabled = [(i, t) for t in net.contributor_transitions
                       for i, local in enumerate(sim.locals, 1)
                       if contributor_local_moves(net, t, local, sim.store)]
            if not enabled:
                break
            i, t = rng.choice(enabled)
            if rng.random() < 0.5:
                assert sim.apply(i, t.tid) is None
                continue
            lowest = min(j for j, local in enumerate(sim.locals, 1)
                         if local == t.src)
            sim.fire(t)
            assert sim.steps[-1] == (lowest, t.tid)


@pytest.mark.parametrize("make,bound", [(random_fsm_network, None),
                                        (random_pdm_leader_network, 3),
                                        (random_pdm_pdm_network, 3)])
def test_witnesses_give_each_move_to_the_lowest_numbered_contributor(
        make, bound):
    # check_explicit lays its witnesses down as the parameterized checkers
    # do: a contributor step goes to the lowest-numbered contributor at its
    # local state, whatever that state is (a (state, stack) pair for a PDM)
    rng = random.Random(11)
    nonempty = 0
    for _ in range(100):
        net = make(rng)
        for k in (1, 2, 3):
            v = check_explicit(net, k, bound)
            assert v.kind in ("NONEMPTY", "EMPTY")
            if v.kind == "EMPTY":
                continue
            nonempty += 1
            w = v.witness
            assert replay(net, w) == ("valid", None)
            sim = _ReplayState(net, k)
            for actor, tid in w.stem + w.cycle:
                if actor:
                    assert sim.locals.index(sim.locals[actor - 1]) == actor - 1
                assert sim.apply(actor, tid) is None
    assert nonempty
