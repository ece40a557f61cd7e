"""Liveness decision for FSM leader / FSM contributor networks.

An abstract configuration keeps the leader state and store value but
replaces the population by the set Q of contributor states that hold at
least one token.  The abstraction simulates every concrete path, and Q
only ever grows along abstract paths.  The search runs over the codes of
net.moves (machines.Codec), whose low bits are Q.

Strategy: explore the abstract system breadth-first and decide each
accepting abstract configuration a as it is discovered: does a concrete
cycle pass through it?  Such a cycle only uses moves that keep the
populated-state set Q fixed at Q_a, so it lies in a's strongly connected
component of the Q-preserving graph, explored from a (build_cycle_fsa).
A Parikh vector of that component's automaton, anchored at a, describes a
candidate abstract cycle; it lifts to a concrete cycle iff the contributor
moves are flow-balanced per contributor state and the cycle is nonempty.
Its system (realizability_system) has one column per edge and no other:
the automaton's flow rows, token rows over the edges, and the row that
some edge leaving a is used, which makes the cycle nonempty (connectivity
gives every nonempty cycle such an edge).  As an "at least one" row it is
a condition that parikh.solve checks on the support of the cone, and it
makes the short points that solve tries first leave a.

Most configurations are decided by the graph alone (refine).  A balanced
contributor flow is a sum of cycles of contributor moves (flow
decomposition), so a contributor move that lies on no cycle of the moves
still available has count 0 in every model, and so does every edge that
loses its place on a cycle once those moves are gone.  Deleting both until
nothing changes leaves components that contain the support of every model.
Contributor moves dead at Q (on no cycle of those with both ends in Q) go
before the search.  A configuration in no component has no cycle.  A closed
walk through a whose contributor moves are all self-loops moves no token,
so it is a model if the component has one; it always does when the
component's contributor moves are all self-loops.  Only the other
configurations need a solve, of the system at a.

A model or walk is turned into a concrete lasso witness (stem by
backward-demand concretization of the abstract stem, cycle by an Euler walk,
which is parikh.derive_word on the automaton read as a right-linear
grammar, the construction that derives pdm-fsm loop words) and replayed
for confirmation.
"""

from __future__ import annotations

import functools

from .machines import CONTRIBUTOR, EXPLORE_BUDGET, Fsm, InternalError
from .explicit import Verdict, lay_down, replay
from . import graph, parikh


def reachable_abstract(net, budget=EXPLORE_BUDGET, found=None):
    """Deterministic BFS over the codes of the abstract system (FSM leader
    and contributor), as a graph.Exploration of net.moves.successors.
    found is graph.explore's hook; more than budget configurations
    discovered raise BudgetExceeded.

    One predecessor edge per configuration (first discovered) is kept for stem
    extraction; any stem works because every abstract path can be covered by a
    sufficiently large concrete population.
    """
    if not isinstance(net.leader, Fsm) or not isinstance(net.contributor, Fsm):
        raise ValueError("reachable_abstract needs FSM leader and contributor")
    return graph.explore(
        net.moves.initial, net.moves.successors, budget,
        f"more than {budget} abstract configurations", found)


def dead_at(net, Q):
    """The tids of the contributor moves with both ends in Q (a bitmask of
    net.moves) that lie on no cycle of such moves, a self-loop being one."""
    inside = [t for t in net.contributor_transitions
              if net.moves.bit[t.src] & Q and net.moves.bit[t.dst] & Q]
    comp = graph.scc_index((t.src, t.dst) for t in inside)
    return {t.tid for t in inside if comp[t.src] != comp[t.dst]}


def build_cycle_fsa(net, a, dead):
    """Automaton over transition ids of the Q-preserving abstract moves
    reachable from code a, except those whose tid is in dead, with a as
    initial and final state.  The moves are those of net.moves.successors,
    in its order, whose code has a's Q bits.

    A closed walk through a can only use edges of a's strongly connected
    component, so the automaton is trimmed to it up front; this keeps the
    realizability system small.  Every state is reachable from a, so the
    component is the set of states that reach a back."""
    moves = net.moves
    mask = moves.q_mask
    Q = a & mask
    order, edges, preds = [a], [], {a: []}  # Q fixed: leaders x stores
    for c in order:
        for t, c2, _ in moves.successors(c):
            if c2 & mask == Q and t.tid not in dead:
                edges.append((c, t.tid, c2))
                if c2 not in preds:
                    preds[c2] = []
                    order.append(c2)
                preds[c2].append(c)
    comp, back = {a}, [a]
    for c in back:
        new = set(preds[c]) - comp
        comp |= new
        back += new
    return parikh.Fsa(tuple(c for c in order if c in comp), tuple(
        e for e in edges if e[0] in comp and e[2] in comp), a, a)


def refine(net, edges):
    """The parts of a strongly connected edge set that can carry the support
    of a realizable cycle, each a tuple of edges in the given order.

    Repeats, per part: drop the edges of every contributor move that lies
    on no cycle of the part's contributor moves (a self-loop is a cycle),
    then split what is left into strongly connected components.  A part
    that loses no move is final.  Each round removes a contributor move, so
    this is O(E * |contributor moves|).  The cycles of the moves are found
    on each distinct move once, however many edges it labels.
    """
    final = []
    work = [tuple(edges)] if edges else []
    while work:
        part = work.pop()
        moves = [t for t in map(net.transition, dict.fromkeys(
            lab for _, lab, _ in part)) if t.owner == CONTRIBUTOR]
        states = graph.scc_index((t.src, t.dst) for t in moves)
        dead = {t.tid for t in moves if states[t.src] != states[t.dst]}
        if not dead:
            final.append(part)
            continue
        kept = [e for e in part if e[1] not in dead]
        comp = graph.scc_index((src, dst) for src, _, dst in kept)
        split = {}
        for e in kept:
            if comp[e[0]] == comp[e[2]]:
                split.setdefault(comp[e[0]], []).append(e)
        work.extend(tuple(p) for p in split.values())
    return final


def closed_walk(net, part, a):
    """A shortest closed walk through a, as transition ids, over the edges
    of the part that move no token (leader moves and contributor
    self-loops), or None.  Such a walk leaves every contributor state's
    count as it was."""
    succ = {}
    for src, lab, dst in part:
        if not net.transition(lab).moves_token:
            succ.setdefault(src, []).append((lab, dst))
    return graph.closed_walk(lambda c: succ.get(c, ()), a)


def contributor_flow_rows(net, columns):
    """The rows that make a Parikh vector of moves concretely realizable:
    zero net population change at each contributor state of net.moves,
    declared or only named by a move, written over columns given as
    (variable, tids) pairs, one unit of a variable firing each move of its
    tids once.  Shared by the fsm-fsm and pdm-fsm checks."""
    rows = {q: {} for q in net.moves.contributor_states}
    for var, tids in columns:
        for t in map(net.transition, tids):
            if t.moves_token:
                rows[t.dst][var] = rows[t.dst].get(var, 0) + 1
                rows[t.src][var] = rows[t.src].get(var, 0) - 1
    return [parikh.eq({v: c for v, c in row.items() if c}, 0)
            for row in rows.values()]


def realizability_system(net, fsa):
    """The flow system of the cycle automaton over its edge columns alone
    (parikh.fsa_flow), strengthened to concrete realizability
    (contributor_flow_rows), plus the row that some edge leaving the anchor
    fsa.initial is used, which makes the cycle nonempty."""
    system = parikh.fsa_flow(fsa)
    edges = list(zip(system.variables, fsa.edges))
    leaves = parikh.ge({e: 1 for e, (src, _, _) in edges
                        if src == fsa.initial}, 1)
    return system.conjoin(contributor_flow_rows(
        net, [(e, (tid,)) for e, (_, tid, _) in edges]) + [leaves])


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
    witness's pivot stack symbol for a PDM leader."""
    tokens = sum(1 for tid in cycle
                 if net.transition(tid).owner == CONTRIBUTOR)
    mults, k = _stem_multiplicities(net, stem, Q, tokens)
    return lay_down(net, k,
                    [(t, None) for t, m in zip(stem, mults) for _ in range(m)],
                    [(net.transition(tid), None) for tid in cycle], pivot)


def concretize(net, reach, a, cycle):
    """The concrete lasso witness of a cycle (transition ids) at the code a
    of an accepting configuration: the stored abstract stem to a, then the
    cycle."""
    stem = [t for _, t, _ in graph.path_to(reach.parent, a)]
    return lasso(net, stem, net.moves.decode(a).Q, cycle)


def check_fsm_fsm(net, budget=EXPLORE_BUDGET):
    """Decide nonemptiness of the network's accepted omega-language for some
    population size, for FSM leader and FSM contributor.

    Each accepting configuration is decided when the abstract BFS discovers
    it, in discovery order, and the BFS stops at the first with a cycle;
    each strongly connected component of the Q-preserving moves not dead at
    Q is refined once, when it first comes up.  The statistics count the
    configurations discovered by then (abstract_configs), the accepting ones
    decided (accepting_checked) and the solves among them.
    More than budget configurations discovered before the verdict raise
    BudgetExceeded, and a model that gives no witness InternalError."""
    accepting, width = net.moves.accepting, net.moves.width
    stats = {"abstract_configs": 0, "accepting_checked": 0, "solves": 0}
    dead = functools.cache(functools.partial(dead_at, net))   # Q -> its tids
    parts = {}                # code -> its refined part, or None
    hit = []                  # (a, cycle automaton, model, cycle) at a witness

    def decide(a):
        if not accepting[a >> width]:
            return False
        stats["accepting_checked"] += 1
        fsa = model = None
        if a not in parts:
            fsa = build_cycle_fsa(net, a, dead(a & net.moves.q_mask))
            parts.update(dict.fromkeys(fsa.states))
            for part in refine(net, fsa.edges):
                parts.update((src, part) for src, _, _ in part)
        part = parts[a]
        if part is None:
            return False
        cycle = closed_walk(net, part, a)
        if cycle is None:
            fsa = fsa or build_cycle_fsa(net, a, dead(a & net.moves.q_mask))
            stats["solves"] += 1
            model = parikh.solve(realizability_system(net, fsa))
            if model is None:
                return False
        hit.append((a, fsa, model, cycle))
        return True

    reach = reachable_abstract(net, budget, decide)
    stats["abstract_configs"] = len(reach.order)
    if not hit:
        return Verdict("EMPTY", None, stats)
    (a, fsa, model, cycle), = hit
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
    c = net.moves.decode(a)
    at = (c.leader_state, c.store, sorted(c.Q, key=repr))
    raise InternalError(
        f"could not concretize a feasible cycle at {at}: {err}")
