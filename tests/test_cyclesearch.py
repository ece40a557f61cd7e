import random

import networkx
import pytest

from paramck.machines import Fsm, abstract_moves, buchi_product, make_network
from paramck.abstraction import AbstractConfig, reachable_abstract
from paramck.cyclesearch import (build_cycle_fsa, check_fsm_fsm,
                                 contributor_flow_rows,
                                 realizability_system)
from paramck.explicit import _ReplayState, check_explicit, replay
from paramck import parikh
from fixtures import la, ca, ring_network, stalled_network, \
    random_fsm_network


def full_q_accepting_config(net):
    reach = reachable_abstract(net)
    best = None
    for a in reach.order:
        if a.leader_state not in net.leader.accepting:
            continue
        if best is None or len(a.Q) > len(best.Q):
            best = a
    return reach, best


def q_preserving_successors(net, a):
    """Abstract moves from a that leave the populated set unchanged, from
    the step kernel."""
    return [(t, AbstractConfig(d, g, Q))
            for t, d, g, Q, _ in abstract_moves(net, a.leader_state, a.store, a.Q)
            if Q == a.Q]


def anchor_scc(net, a):
    """States and edges, in BFS order, of a's strongly connected component
    among the Q-preserving moves reachable from a, by networkx."""
    states, edges, i = [a], [], 0
    while i < len(states):
        c = states[i]
        i += 1
        for t, c2 in q_preserving_successors(net, c):
            edges.append((c, t.tid, c2))
            if c2 not in states:
                states.append(c2)
    g = networkx.DiGraph()
    g.add_nodes_from(states)
    g.add_edges_from((src, dst) for src, _, dst in edges)
    comp = next(c for c in networkx.strongly_connected_components(g) if a in c)
    return (tuple(s for s in states if s in comp),
            tuple(e for e in edges if e[0] in comp and e[2] in comp))


def test_cycle_fsa_is_strongly_connected_on_ring():
    net = ring_network()
    reach, a = full_q_accepting_config(net)
    assert a.Q == frozenset("ABCDEFG")
    fsa = build_cycle_fsa(reach, a)
    # anchored at a with only mutually reachable configurations kept
    assert fsa.initial == fsa.final == a
    used_leader_actions = {str(net.transition(lab).action)
                           for _, lab, _ in fsa.edges if lab.startswith("d")}
    assert used_leader_actions == {"r(1)", "r(2)", "r(3)"}
    # every state can reach and be reached from the anchor by construction
    g = networkx.DiGraph((src, dst) for src, _, dst in fsa.edges)
    for s in fsa.states:
        assert networkx.has_path(g, a, s) and networkx.has_path(g, s, a)
    assert (fsa.states, fsa.edges) == anchor_scc(net, a)
    # and on random nets, at every reachable configuration
    rng = random.Random(12)
    for _ in range(60):
        net = random_fsm_network(rng)
        reach = reachable_abstract(net)
        for a in reach.order:
            fsa = build_cycle_fsa(reach, a)
            assert (fsa.states, fsa.edges) == anchor_scc(net, a)


def test_fire_raises_assertion_when_no_contributor_can_move():
    net = stalled_network()
    sim = _ReplayState(net, 1)
    sim.fire(net.transition("c0"))        # the one contributor leaves q0
    assert sim.steps == [(1, "c0")]
    with pytest.raises(AssertionError):
        sim.fire(net.transition("c0"))    # nobody is left in q0


def test_q_preserving_moves_keep_q():
    net = ring_network()
    reach = reachable_abstract(net)
    dropped = 0
    for a in reach.order:
        fsa = build_cycle_fsa(reach, a)
        assert all(b.Q == a.Q for b in fsa.states)
        # the saturation also stored moves that grow Q, which it drops
        dropped += sum(b.Q != a.Q for c in fsa.states
                       for _, b in reach.edges[c])
    assert dropped > 0


def test_realizability_infeasible_for_stalled_net():
    net = stalled_network()
    reach = reachable_abstract(net)
    for a in reach.order:
        if a.leader_state not in net.leader.accepting:
            continue
        fsa = build_cycle_fsa(reach, a)
        system = realizability_system(net, fsa)
        assert parikh.solve(system) is None


def test_row_leaving_the_anchor_is_implied():
    # realizability_system adds "some edge leaving a is used" to the flow
    # encoding, whose connectivity atom already implies it: both systems
    # must have the same models, up to which one the solver returns
    rng = random.Random(31)
    solved = 0
    for _ in range(200):
        net = random_fsm_network(rng)
        tids = [t.tid for t in net.leader_transitions
                + net.contributor_transitions]
        reach = reachable_abstract(net)
        for a in reach.order:
            if a.leader_state not in net.leader.accepting:
                continue
            fsa = build_cycle_fsa(reach, a)
            with_row = realizability_system(net, fsa)
            row_free = parikh.parikh_fsa(fsa, alphabet=tids).conjoin(
                contributor_flow_rows(net))
            row = with_row.constraint[1][-1]
            assert row == parikh.ge({parikh.edge_var(i): 1
                                     for i, (src, _, _) in enumerate(fsa.edges)
                                     if src == a}, 1)
            model = parikh.solve(with_row)
            free_model = parikh.solve(row_free)
            assert (model is None) == (free_model is None)
            if model is not None:
                solved += 1
                assert parikh._eval_node(row_free.constraint, model)
                assert parikh._eval_node(row, free_model)
    assert solved >= 250          # of 458 accepting configurations


def test_ring_decision_with_witness():
    net = ring_network()
    v = check_fsm_fsm(net)
    assert v.kind == "NONEMPTY"
    assert replay(net, v.witness) == ("valid", None)


def test_stalled_decision_empty():
    assert check_fsm_fsm(stalled_network()).kind == "EMPTY"


def test_self_feeding_contributor_nonempty():
    # a single contributor writing 1 forever keeps the leader reading 1
    leader = Fsm(frozenset(["d"]), "d", (("d", la("read", "1"), "d"),),
                 frozenset(["d"]))
    contrib = Fsm(frozenset(["q"]), "q", (("q", ca("write", "1"), "q"),))
    net = make_network(["1"], leader, contrib)
    v = check_fsm_fsm(net)
    assert v.kind == "NONEMPTY"
    assert replay(net, v.witness) == ("valid", None)


def test_agrees_with_explicit_oracle():
    rng = random.Random(77)
    for _ in range(60):
        net = random_fsm_network(rng)
        v = check_fsm_fsm(net)
        if v.kind == "NONEMPTY":
            assert replay(net, v.witness) == ("valid", None)
        else:
            assert v.kind == "EMPTY"
            for k in (1, 2, 3):
                assert check_explicit(net, k).kind == "EMPTY"
        if check_explicit(net, 3).kind == "NONEMPTY":
            assert v.kind == "NONEMPTY"
