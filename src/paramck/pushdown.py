"""Liveness decision for PDM leader / FSM contributor networks.

The abstraction carries over: an abstract control is (leader state, store
value, populated contributor set Q), and the leader's stack makes the abstract
system a pushdown process whose rules replace the top symbol by zero, one or
two symbols.  Contributor moves never touch the stack.

The decision runs in three stages:
  1. saturate the reachable configurations into a finite automaton (post*),
     which yields every reachable (control, top-symbol) pair;
  2. for each such pivot, collect the words of "loop runs": runs that start
     with the pivot symbol on top, never pop below it, visit an accepting
     control, and return to the pivot control with the pivot symbol on top.
     These form a context-free language over transition ids, described by a
     grammar with the usual balanced-segment nonterminals.  The grammar is
     read off the loop automaton of the pivot's Q (its rule table and pop
     relation, found by worklist saturation), built once per Q and shared
     by every pivot with that Q;
  3. a Parikh model of that grammar, strengthened with contributor flow
     balance and nonemptiness, denotes a concretely realizable cycle.  The
     witness is assembled from a derivation of the model's production counts
     and a bounded search for a concrete stem, then replayed.

Moves depend only on the control and the top symbol, so a loop run can repeat
forever above its own garbage; the population argument is the same counting
argument as in the finite-state case.
"""

from __future__ import annotations

import heapq

from .machines import (DERIVE_BUDGET, EXPLORE_BUDGET, STEM_BUDGET, UNINIT,
                       BudgetExceeded, InternalError, Pdm, Fsm, CONTRIBUTOR,
                       abstract_moves, env_budget)
from .explicit import Witness, Verdict, _ReplayState, replay
from .cyclesearch import _stem_multiplicities, contributor_flow_rows
from . import parikh


def is_abstract_control(net, control):
    return control[0] in net.leader.states


def accepting_control(net, control):
    return control[0] in net.leader.accepting


def abstract_pdm_rules(net, control, top):
    """Abstract pushdown rules applicable at (control, top).

    Yields (tid, new_control, replacement) where the replacement is () for a
    pop, (top,) for a stack-neutral contributor move and (pushed, top) for a
    push.
    """
    return [(t.tid, (d, g, Q), repl)
            for t, d, g, Q, repl in abstract_moves(net, *control, top)]


def initial_control(net):
    return (net.leader.initial, UNINIT, frozenset([net.contributor.initial]))


FINAL = ("final",)


def post_star(net, budget=None):
    """Saturation of the reachable-configuration automaton.

    Returns the ordered list of reachable (control, top) pairs.  The automaton
    states are abstract controls, one final state, and one middle state per
    (control, pushed-symbol) pair; an edge (p, gamma, q) witnesses a reachable
    configuration with control p and gamma on top.
    """
    if budget is None:
        budget = env_budget(EXPLORE_BUDGET)
    trans = {}                # (p, gamma, q) -> None, insertion ordered
    trans_from = {}           # q -> list of (gamma, q2)
    eps_into = {}             # q -> list of p with an epsilon edge p -> q
    eps = set()
    work = []

    def add_trans(p, gamma, q):
        key = (p, gamma, q)
        if key in trans:
            return
        if len(trans) > budget:
            raise BudgetExceeded(f"more than {budget} saturation edges")
        trans[key] = None
        trans_from.setdefault(p, []).append((gamma, q))
        work.append(key)
        for r in eps_into.get(p, []):
            add_trans(r, gamma, q)

    def add_eps(p, q):
        if (p, q) in eps:
            return
        eps.add((p, q))
        eps_into.setdefault(q, []).append(p)
        for gamma, q2 in list(trans_from.get(q, [])):
            add_trans(p, gamma, q2)

    add_trans(initial_control(net), net.leader.bottom, FINAL)
    wi = 0
    while wi < len(work):
        p, gamma, q = work[wi]
        wi += 1
        if not (isinstance(p, tuple) and len(p) == 3
                and is_abstract_control(net, p)):
            continue
        for tid, p2, repl in abstract_pdm_rules(net, p, gamma):
            if repl == ():
                add_eps(p2, q)
            elif len(repl) == 1:
                add_trans(p2, repl[0], q)
            else:
                beta, below = repl
                mid = ("mid", p2, beta)
                add_trans(p2, beta, mid)
                add_trans(mid, below, q)

    pairs = []
    seen = set()
    for p, gamma, _ in trans:
        if isinstance(p, tuple) and len(p) == 3 \
                and is_abstract_control(net, p) and (p, gamma) not in seen:
            seen.add((p, gamma))
            pairs.append((p, gamma))
    return pairs


def _loop_controls(net, Q):
    """All abstract controls sharing the populated set Q, paired with the
    seen-accepting bit."""
    stores = [UNINIT] + sorted(net.values)
    out = []
    for d in sorted(net.leader.states, key=repr):
        for g in stores:
            for b in (0, 1):
                out.append(((d, g, Q), b))
    return out


def _loop_rules(net, state, top):
    """Loop-automaton rules: abstract rules that keep Q fixed, with the
    sticky accepting bit folded into the control."""
    control, b = state
    out = []
    for tid, c2, repl in abstract_pdm_rules(net, control, top):
        if c2[2] != control[2]:
            continue
        b2 = 1 if accepting_control(net, c2) else b
        out.append((tid, (c2, b2), repl))
    return out


def pop_relation(net, states, alphabet):
    """Least set of triples (s, gamma, s') such that the loop automaton can go
    from s with [gamma] to s' with the gamma popped.

    Worklist saturation (Schwoon, Model-Checking Pushdown Systems, 2002).
    Pop rules seed the triples, and each new triple (a, g, x) wakes only the
    rules waiting on (a, g): a neutral rule that moves to a with g on top, a
    push rule that moves to a and pushes g, and a push rule whose pushed
    symbol has been popped again at a, waiting to pop the g it left below.

    The set is a dict in the order in which the naive fixpoint (rounds that
    scan the rule table in order, each rule reading the triples found so
    far) finds the triples, so the loop grammar's productions keep one
    fixed order.  The worklist settles triples in that order: the rule at
    scan position pos derives a triple in the first round in which it sees
    all its premises, and the key (round, pos, rank of each premise) sorts
    the triples as the scan finds them.
    """
    rules = {}
    for s in states:
        for gamma in alphabet:
            rules[(s, gamma)] = _loop_rules(net, s, gamma)
    heap = []
    first = {}        # (a, g) -> [(pos, s, gamma, below or None if neutral)]
    second = {}       # (x, below) -> [(pos, s, gamma, settled first premise)]
    pos = 0
    for (s, gamma), rs in rules.items():
        for _, s2, repl in rs:
            if repl == ():
                heap.append(((1, pos), (s, gamma, s2)))
            else:
                below = repl[1] if len(repl) == 2 else None
                first.setdefault((s2, repl[0]), []).append(
                    (pos, s, gamma, below))
            pos += 1
    heapq.heapify(heap)

    def key(at, *premises):
        # the scan at position at sees a premise in the round it was found
        # only when the rule that found it comes earlier in the scan
        k, p, _ = max(premises)
        return (k if p < at else k + 1, at) + tuple(r for _, _, r in premises)

    settled = {}      # triple -> (round, pos, rank)
    after = {}        # (a, g) -> [x] in settling order
    while heap:
        prio, triple = heapq.heappop(heap)
        if triple in settled:
            continue
        mine = settled[triple] = (prio[0], prio[1], len(settled))
        a, g, x = triple
        after.setdefault((a, g), []).append(x)
        for at, s, gamma, prem in second.get((a, g), ()):
            heapq.heappush(heap, (key(at, prem, mine), (s, gamma, x)))
        for at, s, gamma, below in first.get((a, g), ()):
            if below is None:
                heapq.heappush(heap, (key(at, mine), (s, gamma, x)))
                continue
            for y in after.get((x, below), ()):
                heapq.heappush(heap, (key(at, mine, settled[(x, below, y)]),
                                      (s, gamma, y)))
            second.setdefault((x, below), []).append((at, s, gamma, mine))
    return dict.fromkeys(settled), rules


def loop_automaton(net, Q):
    """The loop automaton at the populated set Q: its rule table by
    (state, top) and its pop relation as an index (s, gamma) -> [s'] in the
    order pop_relation finds the triples.  Both depend only on Q."""
    P, rules = pop_relation(net, _loop_controls(net, Q),
                            net.leader.stack_alphabet)
    after = {}
    for s, gamma, s2 in P:
        after.setdefault((s, gamma), []).append(s2)
    return rules, after


def build_loop_grammar(net, pivot_control, pivot_symbol, automata=None):
    """Grammar of the loop-run words at the given pivot.

    Nonterminals: ("T", s, gamma, s') for balanced segments that pop gamma,
    and ("R", s, gamma) for runs above the current gamma that end in the
    accepting condition (pivot control revisited, accepting bit set, pivot
    symbol on top).  The pivot symbol at the bottom is never popped, so "never
    below the floor" holds by construction.

    The loop automaton depends only on Q = pivot_control[2]; automata, a dict
    from Q to loop_automaton(net, Q), lets pivots that share a Q share it.
    Without it the automaton is built afresh.  Productions come out of the
    pop-relation index, one per rule and per matching triple.
    """
    Q = pivot_control[2]
    if automata is None:
        automata = {}
    if Q not in automata:
        automata[Q] = loop_automaton(net, Q)
    rules, after = automata[Q]

    start_state = (pivot_control, 1 if accepting_control(net, pivot_control) else 0)
    accept_state = (pivot_control, 1)
    prods = []
    for (s, gamma), rs in rules.items():
        R = ("R", s, gamma)
        if s == accept_state and gamma == pivot_symbol:
            prods.append((R, ()))
        for tid, s2, repl in rs:
            if repl == ():
                prods.append((("T", s, gamma, s2), (tid,)))
            elif len(repl) == 1:
                prods.append((R, (tid, ("R", s2, repl[0]))))
                for x in after.get((s2, repl[0]), ()):
                    prods.append((("T", s, gamma, x),
                                  (tid, ("T", s2, repl[0], x))))
            else:
                beta, below = repl
                prods.append((R, (tid, ("R", s2, beta))))
                for x in after.get((s2, beta), ()):
                    T1 = ("T", s2, beta, x)
                    prods.append((R, (tid, T1, ("R", x, below))))
                    for y in after.get((x, below), ()):
                        prods.append((("T", s, gamma, y),
                                      (tid, T1, ("T", x, below, y))))
    nts = []
    seen = set()
    for lhs, rhs in prods:
        for sym in (lhs,) + tuple(r for r in rhs if isinstance(r, tuple)):
            if sym not in seen:
                seen.add(sym)
                nts.append(sym)
    start = ("R", start_state, pivot_symbol)
    if start not in seen:
        nts.append(start)
    tids = tuple(t.tid for t in net.leader_transitions + net.contributor_transitions)
    return parikh.Grammar(tuple(nts), tids, start, tuple(prods))


def loop_system(net, grammar):
    """Parikh constraints of the loop grammar plus concrete realizability
    (cyclesearch.contributor_flow_rows)."""
    system = parikh.parikh_cfg(grammar)
    if system.constraint == parikh.FALSE:
        return system
    return system.conjoin(contributor_flow_rows(net))


def derive_word(grammar, counts, budget=None):
    """A word derivable using each production exactly counts[i] times.

    Leftmost derivation with backtracking over the production choice; the
    counts come from a Parikh model, so a derivation exists, but a greedy
    choice can strand part of the multiset.  The search is depth first with
    an explicit stack of choice points, so a long derivation needs no deep
    recursion; every configuration it visits costs one unit of the budget.
    """
    if budget is None:
        budget = env_budget(DERIVE_BUDGET)
    nonterminals = set(grammar.nonterminals)
    by_lhs = {}
    for i, (lhs, _) in enumerate(grammar.productions):
        by_lhs.setdefault(lhs, []).append(i)
    left = [counts.get(i, 0) for i in range(len(grammar.productions))]
    open_counts = sum(1 for c in left if c)    # productions with uses left
    word = []
    stack = [grammar.start]
    # choice points: [candidates, next candidate, production taken,
    #                 stack below the expanded nonterminal, len(word)]
    choices = []
    while True:
        budget -= 1
        if budget < 0:
            raise BudgetExceeded("derivation backtracking budget exhausted")
        while stack and stack[-1] not in nonterminals:
            word.append(stack.pop())
        if stack:
            sym = stack.pop()
            choices.append([by_lhs.get(sym, ()), 0, None, tuple(stack),
                            len(word)])
        elif not open_counts:
            return word
        # take the next production of the innermost choice point that has
        # one left, giving back the uses of the productions tried before
        while choices:
            choice = choices[-1]
            cands, k, taken, below, mark = choice
            if taken is not None:
                left[taken] += 1
                if left[taken] == 1:
                    open_counts += 1
            while k < len(cands) and left[cands[k]] == 0:
                k += 1
            if k < len(cands):
                i = cands[k]
                left[i] -= 1
                if left[i] == 0:
                    open_counts -= 1
                choice[1], choice[2] = k + 1, i
                del word[mark:]
                stack = list(below) + list(reversed(grammar.productions[i][1]))
                break
            choices.pop()
        else:
            return None


def find_stem(net, pivot_control, pivot_symbol, stack_cap, budget=None):
    """Bounded BFS through abstract pushdown configurations (control, stack)
    for a path from the initial configuration to the pivot; None when the
    pivot is not found within the stack cap and the configuration budget."""
    if budget is None:
        budget = env_budget(STEM_BUDGET)
    init = (initial_control(net), (net.leader.bottom,))
    if init[0] == pivot_control and init[1][0] == pivot_symbol:
        return []
    order = [init]
    seen = {init}
    parent = {init: None}
    i = 0
    while i < len(order):
        cfg = order[i]
        i += 1
        control, stack = cfg
        for tid, c2, repl in abstract_pdm_rules(net, control, stack[0]):
            stack2 = tuple(repl) + stack[1:]
            if not stack2 or len(stack2) > stack_cap:
                continue
            nxt = (c2, stack2)
            if nxt in seen:
                continue
            seen.add(nxt)
            parent[nxt] = (cfg, tid)
            if c2 == pivot_control and stack2[0] == pivot_symbol:
                path = []
                cur = nxt
                while parent[cur] is not None:
                    prev, t = parent[cur]
                    path.append((prev, net.transition(t), cur))
                    cur = prev
                path.reverse()
                return path
            order.append(nxt)
            if len(order) > budget:
                return None
    return None


def _build_witness(net, pivot_control, pivot_symbol, grammar, model):
    counts = {i: model.get(f"y{i}", 0) for i in range(len(grammar.productions))}
    word = derive_word(grammar, counts)
    if word is None:
        raise AssertionError("Parikh model admits no derivation")
    tokens = sum(model.get(parikh.letter_var(t.tid), 0)
                 for t in net.contributor_transitions)

    stem_path = None
    cap = max(6, 2 * len(net.leader.stack_alphabet) + 2)
    for _ in range(3):
        stem_path = find_stem(net, pivot_control, pivot_symbol, cap)
        if stem_path is not None:
            break
        cap *= 2
    if stem_path is None:
        raise BudgetExceeded("no concrete stem found within the stack cap")

    mults, k = _stem_multiplicities(net, stem_path, pivot_control[2], tokens)
    sim = _ReplayState(net, k)
    for (_, t, _), m in zip(stem_path, mults):
        for _ in range(m if t.owner == CONTRIBUTOR else 1):
            sim.fire(t)
    assert sim.leader_state == pivot_control[0]
    assert sim.leader_stack[0] == pivot_symbol
    assert sim.store == pivot_control[1]
    stem_steps = sim.steps

    sim.steps = []
    for tid in word:
        sim.fire(net.transition(tid))
    pivot = (pivot_control[0], pivot_symbol)
    return Witness(k, tuple(stem_steps), tuple(sim.steps), pivot)


def check_pdm_fsm(net, node_budget=500_000):
    """Decide nonemptiness of the accepted omega-language for some population
    size, for a PDM leader and an FSM contributor."""
    if not isinstance(net.leader, Pdm) or not isinstance(net.contributor, Fsm):
        raise ValueError("check_pdm_fsm needs a PDM leader and an FSM contributor")
    stats = {"pivots": 0, "pivots_checked": 0}
    if not net.leader.accepting:
        return Verdict("EMPTY", None, stats)
    try:
        pairs = post_star(net)
    except BudgetExceeded:
        return Verdict("BUDGET", None, stats)
    stats["pivots"] = len(pairs)
    budget_hit = False
    automata = {}             # Q -> loop_automaton(net, Q), for this check
    for control, gamma in pairs:
        stats["pivots_checked"] += 1
        grammar = parikh.reduce_grammar(
            build_loop_grammar(net, control, gamma, automata))
        if grammar.start not in grammar.nonterminals:
            continue
        system = loop_system(net, grammar)
        try:
            model = parikh.solve(system, node_budget=node_budget)
        except BudgetExceeded:
            budget_hit = True
            continue
        if model is None:
            continue
        try:
            witness = _build_witness(net, control, gamma, grammar, model)
        except AssertionError as exc:
            err = str(exc)
        except BudgetExceeded:
            budget_hit = True
            continue
        else:
            status, err = replay(net, witness)
            if status == "valid":
                return Verdict("NONEMPTY", witness, stats)
        at = (*control[:2], sorted(control[2], key=repr), gamma)
        raise InternalError(
            f"could not concretize a feasible loop at {at}: {err}")
    if budget_hit:
        return Verdict("BUDGET", None, stats)
    return Verdict("EMPTY", None, stats)
