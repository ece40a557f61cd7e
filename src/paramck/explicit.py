"""Ground-truth semantics: the concrete transition system for k contributors.

Configurations count contributors per local state instead of tracking them by
identity (contributors are anonymous, so the counting abstraction is exact).
A move is labelled (t, local), local being the contributor local state that
takes t, or None for the leader.  Witness steps carry actor indices: every
witness, here and in the parameterized checkers, is laid down by lay_down,
which gives each contributor move to the lowest-numbered contributor at its
local state, and is checked again on replay.

For pushdown machines the state space is infinite, so checks involving a PDM
take a stack bound and are semi-decisions: EMPTY means empty within the bound.
"""

from collections import Counter, namedtuple

from . import graph
from .machines import (EXPLORE_BUDGET, BudgetExceeded, Pdm, UNINIT, LEADER,
                       CONTRIBUTOR, step)


class ConcreteConfig(namedtuple("ConcreteConfig", "leader_state leader_stack"
                                 " store population")):
    """The leader's stack is top first, () for an FSM; the store is a value
    or UNINIT; population is sorted ((local, count), ...), local being a
    state, or (state, stack) for a PDM contributor."""

    __slots__ = ()


class Witness(namedtuple("Witness", "k stem cycle pivot", defaults=(None,))):
    """A replayable lasso: stem then cycle, both tuples of (actor, tid).

    Actor 0 is the leader, actors 1..k are contributors.  For PDM leaders the
    pivot, the stack symbol on top after the stem, anchors the cycle: the
    cycle never pops below it and ends in the leader state it started from
    with the pivot on top.  pivot is None for an FSM leader.
    """

    __slots__ = ()


class Verdict(namedtuple("Verdict", "kind witness stats")):
    """kind is "NONEMPTY", "EMPTY", "BUDGET" or "ERROR"; witness is a
    Witness or None.  A verdict made without stats gets a fresh dict."""

    __slots__ = ()

    def __new__(cls, kind, witness=None, stats=None):
        return tuple.__new__(cls, (kind, witness, {} if stats is None else stats))


def _pop_of(items):
    return tuple(sorted(items, key=repr))


def _pop_move(population, src_local, dst_local):
    counts = dict(population)
    counts[src_local] -= 1
    if counts[src_local] == 0:
        del counts[src_local]
    counts[dst_local] = counts.get(dst_local, 0) + 1
    return _pop_of(counts.items())


def contributor_initial_local(net):
    c = net.contributor
    if isinstance(c, Pdm):
        return (c.initial, (c.bottom,))
    return c.initial


def initial_config(net, k):
    """Initial configuration: leader at its initial state (stack = bottom for
    a PDM leader), uninitialized store, k contributors at their initial state."""
    if k < 1:
        raise ValueError("need at least one contributor")
    stack = (net.leader.bottom,) if isinstance(net.leader, Pdm) else ()
    pop = _pop_of([(contributor_initial_local(net), k)])
    return ConcreteConfig(net.leader.initial, stack, UNINIT, pop)


def contributor_local_moves(net, t, local, store, stack_bound=None):
    """Apply contributor transition t to one contributor in local state.

    Returns None if not applicable, else (new_local, new_store).
    """
    pdm = isinstance(net.contributor, Pdm)
    state, stack = local if pdm else (local, ())
    res = step(t, state, stack, store)
    if res is None or stack_bound is not None and len(res[1]) > stack_bound:
        return None
    state, stack, store = res
    return ((state, stack) if pdm else state), store


def successors(net, c, stack_bound=None):
    """All enabled moves of the concrete system from configuration c, each
    as ((t, local), c'): local is the contributor local state that takes t,
    or None for a leader move."""
    moves = []
    for t in net.leader_transitions:
        res = step(t, c.leader_state, c.leader_stack, c.store)
        if res is None or stack_bound is not None and len(res[1]) > stack_bound:
            continue
        state, stack, store = res
        moves.append(((t, None),
                      ConcreteConfig(state, stack, store, c.population)))
    for t in net.contributor_transitions:
        for local, _ in c.population:
            res = contributor_local_moves(net, t, local, c.store, stack_bound)
            if res is None:
                continue
            new_local, new_store = res
            pop = _pop_move(c.population, local, new_local)
            moves.append(((t, local), ConcreteConfig(
                c.leader_state, c.leader_stack, new_store, pop)))
    return moves


def check_explicit(net, k, stack_bound=None, budget=EXPLORE_BUDGET):
    """Buchi emptiness of the concrete system with k contributors.

    NONEMPTY iff a reachable accepting configuration lies on a cycle; the
    returned witness replays step by step.  With a PDM anywhere, stack_bound
    is required and EMPTY only means empty within the bound.  A bound below
    1 is refused: a PDM's stack always holds its bottom symbol.
    """
    if (isinstance(net.leader, Pdm) or isinstance(net.contributor, Pdm)) \
            and stack_bound is None:
        raise ValueError("stack_bound required for pushdown machines")
    if stack_bound is not None and stack_bound < 1:
        raise ValueError("stack bound must be at least 1")
    try:
        order, edges, parent = graph.explore(
            initial_config(net, k), lambda c: successors(net, c, stack_bound),
            budget, f"more than {budget} configurations")
    except BudgetExceeded as e:
        return Verdict("BUDGET", stats={"reason": str(e)})
    scc = graph.scc_index((c, d) for c in order for _, d in edges[c])
    stats = {"configurations": len(order)}
    for a in order:
        if a.leader_state not in net.leader.accepting:
            continue
        comp = scc.get(a)
        walk = graph.closed_walk(
            lambda c: (((m, d), d) for m, d in edges[c] if scc[d] == comp), a)
        if walk is None:
            continue
        # a PDM leader's cycle starts where its stack is lowest, so that it
        # never pops below the pivot
        on = [a] + [d for _, d in walk]
        j = min(range(len(walk)), key=lambda i: len(on[i].leader_stack))
        stem = [m for _, m, _ in graph.path_to(parent, a)] + \
            [m for m, _ in walk[:j]]
        cycle = [m for m, _ in walk[j:] + walk[:j]]
        pivot = on[j].leader_stack[0] if isinstance(net.leader, Pdm) else None
        return Verdict("NONEMPTY", lay_down(net, k, stem, cycle, pivot), stats)
    return Verdict("EMPTY", stats=stats)


class _ReplayState:
    """A concrete run laid down step by step from the initial configuration.

    Actor 0 is the leader, actors 1..k are contributors; steps lists the
    (actor, tid) pairs applied so far.
    """

    def __init__(self, net, k):
        self.net = net
        self.leader_state = net.leader.initial
        self.leader_stack = (net.leader.bottom,) if isinstance(net.leader, Pdm) else ()
        self.store = UNINIT
        self.locals = [contributor_initial_local(net)] * k
        self.steps = []

    def apply(self, actor, tid):
        """Apply one step; returns None on success, else a failure reason."""
        net = self.net
        try:
            t = net.transition(tid)
        except KeyError:
            return f"unknown transition {tid}"
        if actor == 0:
            if t.owner != LEADER:
                return f"{tid} is not a leader transition"
            res = step(t, self.leader_state, self.leader_stack, self.store)
            if res is None:
                return (f"leader cannot take {tid} at {self.leader_state!r}"
                        f" with stack {self.leader_stack!r} and store"
                        f" {self.store!r}")
            self.leader_state, self.leader_stack, self.store = res
        else:
            if t.owner != CONTRIBUTOR:
                return f"{tid} is not a contributor transition"
            if not 1 <= actor <= len(self.locals):
                return f"actor index {actor} out of range"
            res = contributor_local_moves(net, t, self.locals[actor - 1],
                                          self.store)
            if res is None:
                return f"contributor {actor} cannot take {tid}"
            self.locals[actor - 1], self.store = res
        self.steps.append((actor, tid))
        return None

    def fire(self, t, local=None):
        """Apply t by the leader, or by the lowest-numbered contributor at
        local (at t's source state when local is None, for FSM
        contributors); raises AssertionError when t cannot fire."""
        actor = 0
        if t.owner == CONTRIBUTOR:
            at = t.src if local is None else local
            actor = next((i for i, mine in enumerate(self.locals, 1)
                          if mine == at), None)
            if actor is None:
                raise AssertionError(f"no contributor is at {at!r} to take"
                                     f" {t.tid}")
        err = self.apply(actor, t.tid)
        if err is not None:
            raise AssertionError(err)

    def config(self):
        return ConcreteConfig(self.leader_state, self.leader_stack, self.store,
                              _pop_of(Counter(self.locals).items()))


def lay_down(net, k, stem, cycle, pivot=None):
    """The witness for k contributors that fires the (t, local) moves of
    stem, then those of cycle (see _ReplayState.fire); raises
    AssertionError when a move cannot fire."""
    sim = _ReplayState(net, k)
    for t, local in stem:
        sim.fire(t, local)
    stem_steps, sim.steps = sim.steps, []
    for t, local in cycle:
        sim.fire(t, local)
    return Witness(k, tuple(stem_steps), tuple(sim.steps), pivot)


def replay(net, w):
    """Validate a witness against the concrete semantics.

    Returns ("valid", None) or ("invalid", (step_index, reason)).  Step
    indices count through stem then cycle.
    """
    if w.k < 1:
        return ("invalid", (0, "witness needs at least one contributor"))
    if not w.cycle:
        return ("invalid", (0, "empty cycle"))
    st = _ReplayState(net, w.k)
    for idx, (actor, tid) in enumerate(w.stem):
        err = st.apply(actor, tid)
        if err is not None:
            return ("invalid", (idx, err))
    idx = len(w.stem)
    start = st.config()
    is_pdm_leader = isinstance(net.leader, Pdm)
    if is_pdm_leader:
        if w.pivot is None:
            return ("invalid", (idx, "PDM-leader witness needs a pivot"))
        if start.leader_stack[0] != w.pivot:
            return ("invalid", (idx, f"stem ends with {start.leader_stack[0]!r}"
                                     f" on top, not the pivot {w.pivot!r}"))
    elif w.pivot is not None:
        return ("invalid", (idx, "FSM-leader witness takes no pivot"))
    floor, accepting = len(start.leader_stack), net.leader.accepting
    accepting_seen = start.leader_state in accepting
    for actor, tid in w.cycle:
        err = st.apply(actor, tid)
        if err is not None:
            return ("invalid", (idx, err))
        if is_pdm_leader and len(st.leader_stack) < floor:
            return ("invalid", (idx, "cycle pops below the pivot symbol"))
        if st.leader_state in accepting:
            accepting_seen = True
        idx += 1
    end = st.config()
    if not accepting_seen:
        return ("invalid", (idx, "cycle visits no accepting state"))
    if is_pdm_leader:
        if end.leader_state != start.leader_state:
            return ("invalid", (idx, "cycle does not return to the pivot state"))
        if end.leader_stack[0] != w.pivot:
            return ("invalid", (idx, "pivot symbol not on top after the cycle"))
        if end.store != start.store or end.population != start.population:
            return ("invalid", (idx, "store or population differs after the cycle"))
    else:
        if end != start:
            return ("invalid", (idx, "cycle does not return to the same configuration"))
    return ("valid", None)
