"""The abstract moves, saturation and cycle automaton over AbstractConfig
tuples, as paramck computed them before it interned configurations as
integer codes and indexed its moves by source: the oracle that the decoded
codes and the code move table (machines.Codec) must match."""

from __future__ import annotations

import math

from paramck import graph, parikh
from paramck.abstraction import initial_abstract
from paramck.machines import (EXPLORE_BUDGET, AbstractConfig, register_step,
                              top_replacement)


def abstract_moves(net, leader_state, store, Q, top=None):
    """Abstract moves from (leader state, store, populated contributor states
    Q), with top the leader's top symbol when the leader is a PDM, by a scan
    of every transition.

    Returns (t, leader_state', store', Q', replacement) for the leader's
    moves, then the contributors', each in tid order.  The replacement is
    what the move puts in place of top: () for a pop, (pushed, top) for a
    push, and (top,) for FSM leader moves and for contributor moves, which
    keep the leader's stack.  A contributor move needs a populated source and
    adds its target to Q.
    """
    out = []
    for t in net.leader_transitions:
        if t.src != leader_state:
            continue
        repl = (top,) if top is None else top_replacement(t.payload, top)
        if repl is None:
            continue
        store2 = register_step(t.action, store)
        if store2 is not None:
            out.append((t, t.dst, store2, Q, repl))
    for t in net.contributor_transitions:
        if t.src not in Q:
            continue
        store2 = register_step(t.action, store)
        if store2 is not None:
            out.append((t, leader_state, store2, Q | {t.dst}, (top,)))
    return out


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
