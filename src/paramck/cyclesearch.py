"""Liveness decision for FSM leader / FSM contributor networks.

Strategy: saturate the abstract system, then for every reachable accepting
abstract configuration a build the cycle automaton of moves that keep the
populated-state set Q fixed at Q_a, with a as both entry and exit.  A Parikh
vector of that automaton describes a candidate abstract cycle; it lifts to a
concrete cycle iff the contributor moves are flow-balanced per contributor
state and the cycle is nonempty.  One more row says that some edge leaving a
is used.  The connectivity atom already implies it (a nonempty cycle whose
edges are all reachable from a), but as a linear row it keeps the solver from
proposing circulations that avoid a, each of which would cost a connectivity
cut.  A model is turned into a concrete lasso witness (stem by
backward-demand concretization of the abstract stem, cycle by an Euler walk)
and replayed for confirmation.
"""

from __future__ import annotations

from .machines import BudgetExceeded, CONTRIBUTOR, InternalError
from .abstraction import reachable_abstract, abstract_stem
from .explicit import Witness, Verdict, _ReplayState, replay
from . import parikh


def build_cycle_fsa(reach, a):
    """Automaton over transition ids of the Q-preserving abstract moves
    reachable from a, with a as initial and final state.  The moves are
    read from the saturation's stored successors (reach.edges, in
    abstract_moves order), keeping those with the same Q.

    A closed walk through a can only use edges of a's strongly connected
    component, so the automaton is trimmed to it up front; this keeps the
    realizability system small.  Every state is reachable from a, so the
    component is the set of states that reach a back.
    """
    states = [a]
    seen = {a}
    edges = []
    i = 0
    while i < len(states):
        c = states[i]
        i += 1
        for t, c2 in reach.edges[c]:
            if c2.Q != a.Q:
                continue
            edges.append((c, t.tid, c2))
            if c2 not in seen:
                seen.add(c2)
                states.append(c2)

    preds = {}
    for src, _, dst in edges:
        preds.setdefault(dst, []).append(src)
    comp = {a}
    work = [a]
    while work:
        for src in preds.get(work.pop(), ()):
            if src not in comp:
                comp.add(src)
                work.append(src)
    states = [s for s in states if s in comp]
    edges = [(src, lab, dst) for src, lab, dst in edges
             if src in comp and dst in comp]
    return parikh.Fsa(tuple(states), tuple(edges), a, a)


def contributor_flow_rows(net):
    """The atoms that make a Parikh vector of moves concretely realizable:
    zero net population change per contributor state, then at least one
    move.  Shared by the fsm-fsm and pdm-fsm checks."""
    rows = []
    for q in sorted(net.contributor.states, key=repr):
        coeffs = {}
        for t in net.contributor_transitions:
            src, _, dst = t.payload
            if src == dst:
                continue
            var = parikh.letter_var(t.tid)
            if dst == q:
                coeffs[var] = coeffs.get(var, 0) + 1
            if src == q:
                coeffs[var] = coeffs.get(var, 0) - 1
        rows.append(parikh.eq({v: c for v, c in coeffs.items() if c}, 0))
    rows.append(parikh.ge(
        {parikh.letter_var(t.tid): 1
         for t in net.leader_transitions + net.contributor_transitions}, 1))
    return rows


def realizability_system(net, fsa):
    """Parikh constraints of the cycle automaton strengthened to concrete
    realizability (contributor_flow_rows), plus the implied row that some
    edge leaving the anchor fsa.initial is used."""
    tids = [t.tid for t in net.leader_transitions + net.contributor_transitions]
    system = parikh.parikh_fsa(fsa, alphabet=tids)
    leaves = parikh.ge({parikh.edge_var(i): 1
                        for i, (src, _, _) in enumerate(fsa.edges)
                        if src == fsa.initial}, 1)
    return system.conjoin(contributor_flow_rows(net) + [leaves])


def _stem_multiplicities(net, stem, Q_a, tokens_per_state):
    """Backward-demand pass: how often each stem step fires, and the needed k.

    Walking the abstract stem backwards with demand initialized to the cycle's
    token requirement, a contributor step fires max(demand at its target, 1)
    times: at least once so its store effect survives, and enough times to
    feed every later consumer.  A contributor self-loop fires once and needs
    one token at its state, which it leaves there.  Surplus tokens park on
    states inside Q_a and never move again.  All residual demand lands on the
    contributor's initial state, which fixes the population size.
    """
    demand = {q: tokens_per_state for q in Q_a}
    mults = [1] * len(stem)
    for i in range(len(stem) - 1, -1, -1):
        t = stem[i]
        if t.owner != CONTRIBUTOR:
            continue
        src, dst = t.src, t.dst
        if src == dst:
            demand[src] = max(demand.get(src, 0), 1)
            continue
        m = max(demand.get(dst, 0), 1)
        mults[i] = m
        demand[dst] = max(demand.get(dst, 0) - m, 0)
        demand[src] = demand.get(src, 0) + m
    k = max(1, demand.get(net.contributor.initial, 0))
    leftovers = {q: d for q, d in demand.items()
                 if d and q != net.contributor.initial}
    assert not leftovers, f"stem demand not closed: {leftovers}"
    return mults, k


def lasso(net, stem, Q, cycle, pivot=None):
    """The concrete lasso witness of an abstract stem (the transitions of an
    abstract path to a configuration with populated set Q) and a cycle there
    (transition ids).  Every contributor move of the cycle needs a token in
    Q, and the stem's multiplicities bring them there.  pivot is the
    witness's (leader state, stack symbol) for a PDM leader."""
    tokens = sum(1 for tid in cycle
                 if net.transition(tid).owner == CONTRIBUTOR)
    mults, k = _stem_multiplicities(net, stem, Q, tokens)
    sim = _ReplayState(net, k)
    for t, m in zip(stem, mults):
        for _ in range(m):
            sim.fire(t)
    stem_steps, sim.steps = sim.steps, []
    for tid in cycle:
        sim.fire(net.transition(tid))
    return Witness(k, tuple(stem_steps), tuple(sim.steps), pivot)


def concretize(net, reach, a, fsa, model):
    """Turn a realizability model at accepting configuration a into a concrete
    lasso witness: the stored abstract stem to a, then an Euler walk of the
    model's edges."""
    stem = [t for _, t, _ in abstract_stem(reach, a)]
    return lasso(net, stem, a.Q, parikh.euler_witness(fsa, model))


def check_fsm_fsm(net, node_budget=500_000):
    """Decide nonemptiness of the network's accepted omega-language for some
    population size, for FSM leader and FSM contributor.

    A solve that runs out of budget does not end the check: the next
    accepting configuration is tried, and the verdict is BUDGET only when
    none of them gives NONEMPTY."""
    stats = {"abstract_configs": 0, "accepting_checked": 0}
    try:
        reach = reachable_abstract(net)
    except BudgetExceeded as e:
        stats["reason"] = str(e)
        return Verdict("BUDGET", None, stats)
    stats["abstract_configs"] = len(reach.order)
    accepting = net.leader.accepting
    exhausted = None          # the last solve that ran out of budget
    for a in reach.order:
        if a.leader_state not in accepting:
            continue
        stats["accepting_checked"] += 1
        fsa = build_cycle_fsa(reach, a)
        system = realizability_system(net, fsa)
        try:
            model = parikh.solve(system, node_budget=node_budget)
        except BudgetExceeded as e:
            exhausted = e
            continue
        if model is None:
            continue
        try:
            witness = concretize(net, reach, a, fsa, model)
        except AssertionError as exc:
            err = str(exc)
        else:
            status, err = replay(net, witness)
            if status == "valid":
                return Verdict("NONEMPTY", witness, stats)
        at = (a.leader_state, a.store, sorted(a.Q, key=repr))
        raise InternalError(
            f"could not concretize a feasible cycle at {at}: {err}")
    if exhausted is not None:
        stats["reason"] = str(exhausted)
        return Verdict("BUDGET", None, stats)
    return Verdict("EMPTY", None, stats)
