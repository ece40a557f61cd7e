"""The abstract moves, saturation and cycle automaton over AbstractConfig
tuples, as paramck computed them before it interned configurations as
integer codes and indexed its moves by source: the oracle that the decoded
codes and the code move table (machines.Codec) must match.  Then the
fsm-fsm check over codes as it ran before it decided each accepting
configuration when the BFS discovers it: saturate, then decide, with each
cycle automaton built without the contributor moves dead at its Q
(cyclesearch.dead_at), as the check builds it."""

from __future__ import annotations

import math

from paramck import graph, parikh
from paramck.cyclesearch import (closed_walk, concretize, dead_at,
                                 realizability_system, refine)
from paramck.explicit import Verdict, replay
from paramck.machines import (EXPLORE_BUDGET, UNINIT, AbstractConfig,
                              InternalError, register_step, top_replacement)


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
        AbstractConfig(net.leader.initial, UNINIT,
                       frozenset([net.contributor.initial])),
        lambda a: [(t, AbstractConfig(d, g, Q))
                   for t, d, g, Q, _ in abstract_moves(net, *a)],
        budget, f"more than {budget} abstract configurations")


def build_cycle_fsa(reach, a):
    """The automaton over transition ids of a's strongly connected
    component among the Q-preserving moves of reach that a reaches."""
    return component_fsa(reach.edges, a, lambda t, c2: c2.Q == a.Q)


def component_fsa(stored, a, keeps):
    """The cycle automaton at a over the successors stored[c] of each node
    c, of which it follows the moves t to a node c2 with keeps(t, c2)."""
    moves = graph.explore(
        a, lambda c: [(t.tid, c2) for t, c2 in stored[c] if keeps(t, c2)],
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


def saturate_codes(net, budget=EXPLORE_BUDGET):
    """The whole abstract system over codes, every code's successors
    stored in reach.edges."""
    return graph.explore(
        net.moves.initial,
        lambda code: [(t, c2) for t, c2, _ in net.moves.expand(code, None)],
        budget, f"more than {budget} abstract configurations")


def saturated_cycle_fsa(net, reach, a):
    """The cycle automaton at code a, read off a finished saturation,
    without the contributor moves dead at a's Q."""
    Q = a & net.moves.q_mask
    dead = dead_at(net, Q)
    return component_fsa(
        reach.edges, a,
        lambda t, c2: c2 & net.moves.q_mask == Q and t.tid not in dead)


def saturate_then_decide(net, budget=EXPLORE_BUDGET, built=None):
    """cyclesearch.check_fsm_fsm as it was before it decided during the
    BFS: saturate (saturate_codes), then decide the accepting
    configurations in discovery order, each cycle automaton read off the
    saturation and appended to built when built is a list."""
    reach = saturate_codes(net, budget)
    codec = net.moves
    stats = {"abstract_configs": len(reach.order), "accepting_checked": 0,
             "solves": 0}

    def cycle_fsa(a):
        fsa = saturated_cycle_fsa(net, reach, a)
        if built is not None:
            built.append(fsa)
        return fsa
    parts = {}
    for a in reach.order:
        if not codec.accepting[a >> codec.width]:
            continue
        stats["accepting_checked"] += 1
        fsa = None
        if a not in parts:
            fsa = cycle_fsa(a)
            parts.update(dict.fromkeys(fsa.states))
            for part in refine(net, fsa.edges):
                parts.update((src, part) for src, _, _ in part)
        part = parts[a]
        if part is None:
            continue
        cycle = closed_walk(net, part, a)
        if cycle is None:
            if fsa is None:
                fsa = cycle_fsa(a)
            stats["solves"] += 1
            model = parikh.solve(realizability_system(net, fsa))
            if model is None:
                continue
        try:
            if cycle is None:
                cycle = parikh.euler_witness(fsa, model)
            witness = concretize(net, reach, a, cycle)
        except AssertionError as exc:
            err = str(exc)
        else:
            status, err = replay(net, witness)
            if status == "valid":
                return Verdict("NONEMPTY", witness, stats)
        raise InternalError(f"no witness at {codec.decode(a)}: {err}")
    return Verdict("EMPTY", None, stats)
