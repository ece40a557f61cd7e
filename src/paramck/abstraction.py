"""Abstraction of the concrete system for FSM contributors.

An abstract configuration keeps the leader state and store value but replaces
the population by the set Q of contributor states that hold at least one
token.  The abstraction simulates every concrete path, and Q only ever grows
along abstract paths.
"""

from __future__ import annotations

from typing import NamedTuple

from . import graph
from .machines import EXPLORE_BUDGET, Fsm, UNINIT, abstract_moves


class AbstractConfig(NamedTuple):
    leader_state: object
    store: str
    Q: frozenset           # populated contributor states, never empty


def initial_abstract(net):
    return AbstractConfig(net.leader.initial, UNINIT,
                          frozenset([net.contributor.initial]))


def reachable_abstract(net, budget=EXPLORE_BUDGET):
    """Deterministic BFS saturation of the abstract system (FSM leader and
    contributor), as a graph.Exploration: the successors of a configuration
    are (Transition, configuration) pairs in abstract_moves order.

    One predecessor edge per configuration (first discovered) is kept for stem
    extraction; any stem works because every abstract path can be covered by a
    sufficiently large concrete population.
    """
    if not isinstance(net.leader, Fsm) or not isinstance(net.contributor, Fsm):
        raise ValueError("reachable_abstract needs FSM leader and contributor")
    return graph.explore(
        initial_abstract(net),
        lambda a: [(t, AbstractConfig(d, g, Q))
                   for t, d, g, Q, _ in abstract_moves(net, *a)],
        budget, f"more than {budget} abstract configurations")
