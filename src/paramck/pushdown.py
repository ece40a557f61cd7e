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
     grammar with the usual balanced-segment nonterminals;
  3. a Parikh model of that grammar, strengthened with contributor flow
     balance and nonemptiness, denotes a concretely realizable cycle.  The
     witness is assembled from a derivation of the model's production counts
     and a bounded search for a concrete stem, then replayed.

Moves depend only on the control and the top symbol, so a loop run can repeat
forever above its own garbage; the population argument is the same counting
argument as in the finite-state case.
"""

from __future__ import annotations

from .machines import (DERIVE_BUDGET, EXPLORE_BUDGET, STEM_BUDGET, UNINIT,
                       BudgetExceeded, InternalError, Pdm, Fsm, CONTRIBUTOR,
                       abstract_moves, env_budget)
from .explicit import Witness, Verdict, _ReplayState, replay
from .cyclesearch import _stem_multiplicities
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
    from s with [gamma] to s' with the gamma popped, by naive fixpoint.  The
    set is a dict in the order the triples are found, so the loop grammar's
    productions come out in an order that does not follow the hash seed."""
    rules = {}
    for s in states:
        for gamma in alphabet:
            rules[(s, gamma)] = _loop_rules(net, s, gamma)
    P = {}
    changed = True
    while changed:
        changed = False
        for (s, gamma), rs in rules.items():
            for tid, s2, repl in rs:
                if repl == ():
                    new = [(s, gamma, s2)]
                elif len(repl) == 1:
                    new = [(s, gamma, x) for (a, g2, x) in P
                           if a == s2 and g2 == repl[0]]
                else:
                    beta, below = repl
                    mids = [x for (a, g2, x) in P if a == s2 and g2 == beta]
                    new = [(s, gamma, y) for x in mids
                           for (a, g2, y) in P if a == x and g2 == below]
                for triple in new:
                    if triple not in P:
                        P[triple] = None
                        changed = True
    return P, rules


def build_loop_grammar(net, pivot_control, pivot_symbol):
    """Grammar of the loop-run words at the given pivot.

    Nonterminals: ("T", s, gamma, s') for balanced segments that pop gamma,
    and ("R", s, gamma) for runs above the current gamma that end in the
    accepting condition (pivot control revisited, accepting bit set, pivot
    symbol on top).  The pivot symbol at the bottom is never popped, so "never
    below the floor" holds by construction.
    """
    Q = pivot_control[2]
    states = _loop_controls(net, Q)
    alphabet = net.leader.stack_alphabet
    P, rules = pop_relation(net, states, alphabet)

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
                for (a, g2, x) in P:
                    if a == s2 and g2 == repl[0]:
                        prods.append((("T", s, gamma, x),
                                      (tid, ("T", s2, repl[0], x))))
            else:
                beta, below = repl
                prods.append((R, (tid, ("R", s2, beta))))
                for (a, g2, x) in P:
                    if a == s2 and g2 == beta:
                        prods.append((R, (tid, ("T", s2, beta, x),
                                          ("R", x, below))))
                        for (a2, g3, y) in P:
                            if a2 == x and g3 == below:
                                prods.append((("T", s, gamma, y),
                                              (tid, ("T", s2, beta, x),
                                               ("T", x, below, y))))
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
    """Parikh constraints of the loop grammar plus concrete realizability:
    contributor flow balance per state and at least one move."""
    system = parikh.parikh_cfg(grammar)
    if system.constraint == parikh.FALSE:
        return system
    extra = []
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
        coeffs = {v: c for v, c in coeffs.items() if c}
        extra.append(parikh.eq(coeffs, 0))
    extra.append(parikh.ge(
        {parikh.letter_var(t.tid): 1
         for t in net.leader_transitions + net.contributor_transitions}, 1))
    return system.conjoin(extra)


def derive_word(grammar, counts, budget=None):
    """A word derivable using each production exactly counts[i] times.

    Leftmost derivation with backtracking over the production choice; the
    counts come from a Parikh model, so a derivation exists, but a greedy
    choice can strand part of the multiset.
    """
    if budget is None:
        budget = env_budget(DERIVE_BUDGET)
    nodes = [budget]

    def go(stack, counts):
        nodes[0] -= 1
        if nodes[0] < 0:
            raise BudgetExceeded("derivation backtracking budget exhausted")
        out = []
        while stack:
            sym = stack.pop()
            if sym not in grammar.nonterminals:
                out.append(sym)
                continue
            for i, (lhs, rhs) in enumerate(grammar.productions):
                if lhs != sym or counts[i] == 0:
                    continue
                counts2 = dict(counts)
                counts2[i] -= 1
                rest = go(stack + list(reversed(rhs)), counts2)
                if rest is not None:
                    return out + rest
            return None
        return out if all(c == 0 for c in counts.values()) else None

    start_counts = {i: counts.get(i, 0) for i in range(len(grammar.productions))}
    return go([grammar.start], start_counts)


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
    for control, gamma in pairs:
        stats["pivots_checked"] += 1
        grammar = parikh.reduce_grammar(build_loop_grammar(net, control, gamma))
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
        last_err = None
        try:
            for attempt in range(4):
                scaled = dict(model)
                if attempt:
                    for key in scaled:
                        if key.startswith("x[") or key.startswith("y"):
                            scaled[key] *= 2 ** attempt
                try:
                    witness = _build_witness(net, control, gamma, grammar, scaled)
                except AssertionError as exc:
                    last_err = str(exc)
                    continue
                status, detail = replay(net, witness)
                if status == "valid":
                    return Verdict("NONEMPTY", witness, stats)
                last_err = str(detail)
            at = (*control[:2], sorted(control[2], key=repr), gamma)
            raise InternalError(
                f"could not concretize a feasible loop at {at}: {last_err}")
        except BudgetExceeded:
            budget_hit = True
            continue
    if budget_hit:
        return Verdict("BUDGET", None, stats)
    return Verdict("EMPTY", None, stats)
