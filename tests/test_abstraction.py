import random

from paramck.machines import UNINIT
from paramck.abstraction import (AbstractConfig, initial_abstract,
                                 reachable_abstract)
from paramck.explicit import check_explicit, initial_config, successors
from paramck.graph import path_to
from fixtures import ring_network, random_fsm_network


def test_initial_abstract():
    net = ring_network()
    a = initial_abstract(net)
    assert a == AbstractConfig(net.leader.initial, UNINIT, frozenset(["A"]))


def test_q_is_monotone_along_edges():
    net = ring_network()
    reach = reachable_abstract(net)
    for a in reach.order:
        for _, b in reach.edges[a]:
            assert a.Q <= b.Q


def test_abstract_simulates_concrete():
    # every concrete successor with k = 3 has an abstract counterpart:
    # same leader state and store, population inside some reachable Q
    rng = random.Random(5)
    for _ in range(25):
        net = random_fsm_network(rng)
        reach = reachable_abstract(net)
        abstract = {(a.leader_state, a.store): a.Q for a in reach.order}
        merged = {}
        for a in reach.order:
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
    cur = initial_abstract(net)
    for src, t, dst in stem:
        assert src == cur
        cur = dst
    assert cur == target


def test_budget_propagates():
    import pytest
    from paramck.machines import BudgetExceeded
    net = ring_network()
    with pytest.raises(BudgetExceeded):
        reachable_abstract(net, budget=5)
