"""Abstraction of the concrete system for FSM contributors.

An abstract configuration keeps the leader state and store value but replaces
the population by the set Q of contributor states that hold at least one
token.  The abstraction simulates every concrete path, and Q only ever grows
along abstract paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .machines import (EXPLORE_BUDGET, BudgetExceeded, Fsm, UNINIT,
                       abstract_moves, env_budget)


class AbstractConfig(NamedTuple):
    leader_state: object
    store: str
    Q: frozenset           # populated contributor states, never empty


def abstract_successors(net, a):
    """Successors in the abstract system (FSM leader and contributor)."""
    if not isinstance(net.leader, Fsm) or not isinstance(net.contributor, Fsm):
        raise ValueError("abstract_successors needs FSM leader and contributor")
    return [(t, AbstractConfig(d, g, Q))
            for t, d, g, Q, _ in abstract_moves(net, a.leader_state, a.store, a.Q)]


@dataclass(frozen=True)
class AbstractReach:
    order: tuple           # discovery order
    edges: dict            # config -> tuple of (Transition, successor)
    parent: dict           # config -> (predecessor, Transition) or None


def initial_abstract(net):
    return AbstractConfig(net.leader.initial, UNINIT,
                          frozenset([net.contributor.initial]))


def reachable_abstract(net, budget=None):
    """Deterministic BFS saturation of the abstract system.

    One predecessor edge per configuration (first discovered) is kept for stem
    extraction; any stem works because every abstract path can be covered by a
    sufficiently large concrete population.
    """
    if budget is None:
        budget = env_budget(EXPLORE_BUDGET)
    init = initial_abstract(net)
    order = [init]
    seen = {init}
    edges = {}
    parent = {init: None}
    i = 0
    while i < len(order):
        a = order[i]
        i += 1
        succ = abstract_successors(net, a)
        edges[a] = tuple(succ)
        for t, b in succ:
            if b not in seen:
                seen.add(b)
                parent[b] = (a, t)
                order.append(b)
                if len(order) > budget:
                    raise BudgetExceeded(
                        f"more than {budget} abstract configurations")
    return AbstractReach(tuple(order), edges, parent)


def abstract_stem(reach, a):
    """Path (list of (config, Transition, config)) from the initial abstract
    configuration to a, following the stored predecessor links."""
    steps = []
    cur = a
    while reach.parent[cur] is not None:
        p, t = reach.parent[cur]
        steps.append((p, t, cur))
        cur = p
    steps.reverse()
    return steps
