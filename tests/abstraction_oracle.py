"""The abstract saturation and cycle automaton over AbstractConfig tuples,
as paramck computed them before it interned configurations as integer
codes: the oracle that the decoded codes must match."""

from __future__ import annotations

import math

from paramck import graph, parikh
from paramck.abstraction import AbstractConfig, initial_abstract
from paramck.machines import EXPLORE_BUDGET, abstract_moves


def reachable_abstract(net, budget=EXPLORE_BUDGET):
    """BFS saturation over AbstractConfig nodes, as a graph.Exploration
    whose successors are (Transition, configuration) pairs in
    abstract_moves order."""
    return graph.explore(
        initial_abstract(net),
        lambda a: [(t, AbstractConfig(d, g, Q))
                   for t, d, g, Q, _ in abstract_moves(net, *a)],
        budget, f"more than {budget} abstract configurations")


def build_cycle_fsa(reach, a):
    """The automaton over transition ids of a's strongly connected
    component among the Q-preserving moves of reach that a reaches."""
    Q = a.Q
    moves = graph.explore(
        a, lambda c: [(t.tid, c2) for t, c2 in reach.edges[c] if c2.Q == Q],
        math.inf, None)
    preds = {}
    for c, succ in moves.edges.items():
        for _, c2 in succ:
            preds.setdefault(c2, []).append(c)
    comp = {c for c, _ in graph.bfs(a, lambda c: preds.get(c, ()))}
    states = tuple(c for c in moves.order if c in comp)
    edges = tuple((c, lab, c2) for c in states
                  for lab, c2 in moves.edges[c] if c2 in comp)
    return parikh.Fsa(states, edges, a, a)
