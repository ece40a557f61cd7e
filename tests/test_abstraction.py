import random

import pytest

from paramck.machines import (UNINIT, AbstractConfig, BudgetExceeded, Codec,
                              Fsm, make_network)
from paramck.cyclesearch import (build_cycle_fsa, check_fsm_fsm,
                                 reachable_abstract)
from paramck.explicit import initial_config, successors
from paramck.graph import path_to
import abstraction_oracle
from fixtures import la, ca, ring_network, random_fsm_network


def test_initial_abstract():
    net = ring_network()
    a = net.moves.decode(net.moves.initial)
    assert a == AbstractConfig(net.leader.initial, UNINIT, frozenset(["A"]))
    assert net.moves.encode(a) == net.moves.initial
    assert reachable_abstract(net).order[0] == net.moves.initial


def test_codes_round_trip():
    net = ring_network()
    reach = reachable_abstract(net)
    codec = net.moves
    assert codec.contributor_states == tuple("ABCDEFG")
    for code in reach.order:
        a = codec.decode(code)
        assert codec.encode(a) == code
        assert code & codec.q_mask == sum(1 << "ABCDEFG".index(q)
                                          for q in a.Q)


def test_q_is_monotone_along_edges():
    net = ring_network()
    reach = reachable_abstract(net)
    decode = net.moves.decode
    for a in reach.order:
        for _, b, _ in reach.edges[a]:
            assert decode(a).Q <= decode(b).Q
            assert a & ~b & net.moves.q_mask == 0


def test_abstract_simulates_concrete():
    # every concrete successor with k = 3 has an abstract counterpart:
    # same leader state and store, population inside some reachable Q
    rng = random.Random(5)
    for _ in range(25):
        net = random_fsm_network(rng)
        reach = reachable_abstract(net)
        merged = {}
        for a in map(net.moves.decode, reach.order):
            key = (a.leader_state, a.store)
            merged[key] = merged.get(key, frozenset()) | a.Q
        seen = {initial_config(net, 3)}
        frontier = list(seen)
        for _ in range(4):            # a few BFS levels suffice to probe
            nxt = []
            for c in frontier:
                for _, d in successors(net, c):
                    if d in seen:
                        continue
                    seen.add(d)
                    nxt.append(d)
                    key = (d.leader_state, d.store)
                    assert key in merged
                    assert {s for s, _ in d.population} <= merged[key]
            frontier = nxt


def test_stem_replays_to_its_target():
    net = ring_network()
    reach = reachable_abstract(net)
    target = reach.order[-1]
    stem = path_to(reach.parent, target)
    cur = reach.order[0]
    for src, t, dst in stem:
        assert src == cur
        cur = dst
    assert cur == target


def test_budget_propagates():
    net = ring_network()
    with pytest.raises(BudgetExceeded):
        reachable_abstract(net, budget=5)


def chain_network(n):
    """A contributor that walks a forward chain of n states, writing 1 and
    2 in turn and reading 1 to go back to its start, and a leader that
    reads 1 and 2 in turn: more contributor states than a machine word
    has bits."""
    states = [f"q{i}" for i in range(n)]
    trans = [(states[i], ca("write", "12"[i % 2]), states[i + 1])
             for i in range(n - 1)]
    trans.append((states[-1], ca("read", "1"), states[0]))
    contrib = Fsm(frozenset(states), "q0", tuple(trans))
    leader = Fsm(frozenset(["p0", "p1"]), "p0",
                 (("p0", la("read", "1"), "p1"),
                  ("p1", la("read", "2"), "p0")), frozenset(["p1"]))
    return make_network(["1", "2"], leader, contrib)


def assert_decodes_to_the_oracle(net, anchors=None):
    reach = reachable_abstract(net)
    oracle = abstraction_oracle.reachable_abstract(net)
    decode = net.moves.decode
    assert [decode(c) for c in reach.order] == oracle.order
    assert list(reach.edges) == reach.order
    assert [[(t, decode(c2)) for t, c2, _ in reach.edges[c]]
            for c in reach.order] == [oracle.edges[a] for a in oracle.order]
    assert [reach.parent[c] and (decode(reach.parent[c][0]),
                                 reach.parent[c][1])
            for c in reach.order] == [oracle.parent[a] for a in oracle.order]
    for c in reach.order[::anchors or 1]:
        fsa = build_cycle_fsa(net, c, ())
        expected = abstraction_oracle.build_cycle_fsa(oracle, decode(c))
        assert fsa.initial == fsa.final == c
        assert [decode(s) for s in fsa.states] == list(expected.states)
        assert [(decode(s), lab, decode(d)) for s, lab, d in fsa.edges] \
            == list(expected.edges)
    return reach


def test_codes_match_the_tuple_saturation():
    rng = random.Random(15)
    for _ in range(200):
        assert_decodes_to_the_oracle(random_fsm_network(rng))


def test_codes_past_64_contributor_states():
    net = chain_network(70)
    reach = assert_decodes_to_the_oracle(net, anchors=7)
    assert net.moves.width == 70
    # the chain is sorted by repr, so bit 69 is q9, and some code has
    # every contributor state populated
    assert net.moves.contributor_states[69] == "q9"
    assert any(c & net.moves.q_mask == net.moves.q_mask
               for c in reach.order)
    assert max(reach.order) >= 1 << 70


def test_codec_numbers_every_state():
    net = ring_network()
    codec = Codec(net)
    assert codec.stores == (UNINIT, "1", "2", "3")
    assert len(codec.leader_states) == len(net.leader.states)
    assert codec.q_mask == (1 << 7) - 1
    # stores in sorted(key=repr) order, so a domain that mixes types
    # sorts too
    mixed = make_network(
        [1, "a"],
        Fsm(frozenset(["p"]), "p", (("p", la("read", 1), "p"),),
            frozenset(["p"])),
        Fsm(frozenset(["q", "r"]), "q", (("q", ca("write", 1), "r"),
                                         ("r", ca("write", "a"), "q"))))
    assert Codec(mixed).stores == (UNINIT, "a", 1)     # "'a'" < "1"
    assert_decodes_to_the_oracle(mixed)


def test_codec_numbers_undeclared_states_and_values():
    # make_network does not validate: the leader and contributor move to
    # states they do not declare, and the contributor writes a value
    # outside the domain
    net = make_network(
        ["1"],
        Fsm(frozenset(["p0"]), "p0", (("p0", la("read", "9"), "p1"),
                                      ("p1", la("read", "1"), "p0")),
            frozenset(["p0"])),
        Fsm(frozenset(["q0"]), "q0", (("q0", ca("write", "9"), "q1"),
                                      ("q1", ca("write", "1"), "q0"))))
    codec = Codec(net)
    assert codec.leader_states == ("p0", "p1")
    assert codec.stores == (UNINIT, "1", "9")
    assert codec.contributor_states == ("q0", "q1")
    reach = assert_decodes_to_the_oracle(net)
    assert {codec.decode(c).leader_state for c in reach.order} == {"p0", "p1"}
    assert check_fsm_fsm(net).kind == "NONEMPTY"
