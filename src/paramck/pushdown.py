"""Liveness decision for PDM leader / FSM contributor networks.

The abstraction carries over: an abstract control is the integer code of
a configuration (leader state, store value, populated contributor set Q)
that net.moves (machines.Codec) numbers and moves, and the leader's stack
makes the abstract system a pushdown process whose rules replace the top
symbol by zero, one or two symbols.  Contributor moves never touch the
stack.

The decision runs in three stages:
  1. saturate the reachable configurations into a finite automaton (post*),
     which yields every reachable (control, top-symbol) pair;
  2. for each such pivot, collect the words of "loop runs": runs that start
     with the pivot symbol on top, never pop below it, visit an accepting
     control, and return to the pivot control with the pivot symbol on top.
     These form a context-free language over transition ids, described by a
     grammar with the usual balanced-segment nonterminals.  The grammar is
     read off the loop automaton of the pivot's Q: its rules, pop relation
     and graph of (state, top) nodes.  post* finds every pivot first, so
     the automaton is built once per Q, by one demand-driven worklist
     saturation from the start nodes of all the pivots with that Q, and
     holds only the nodes those starts reach.  Each pivot is first decided
     by reachability on the graph: the grammar derives a nonempty word
     exactly when the accept node is reachable from the start node by a
     nonempty path.  Only the pivots where it is get a grammar, with the
     productions of the nodes their own start reaches;
  3. a loop word whose contributor moves are all self-loops moves no token
     and repeats forever, so a shortest such word of the reduced grammar is
     the cycle, and the pivot needs no solve (cyclesearch.closed_walk in
     the finite-state case).  Only the other pivots get a solve: a Parikh
     model of the grammar, strengthened with contributor flow balance and
     nonemptiness, denotes a concretely realizable cycle, derived from the
     model's production counts.  The witness is the cycle after a stem read
     back from post*'s record of how each edge was derived, and it is
     replayed.  Neither the derivation nor the stem searches.

Moves depend only on the control and the top symbol, so a loop run can repeat
forever above its own garbage; the population argument is the same counting
argument as in the finite-state case.
"""

from __future__ import annotations

from .machines import EXPLORE_BUDGET, BudgetExceeded, InternalError, Pdm, Fsm
from .abstraction import initial_abstract
from .explicit import Verdict, replay
from .cyclesearch import contributor_flow_rows, lasso
from . import graph, parikh
from .parikh import derive_word


#: post*'s final state.  Abstract controls are ints and middle states
#: pairs, so no state is taken for another, whatever the leader's names.
FINAL = ("final",)


def post_star(net, budget=EXPLORE_BUDGET, reasons=None):
    """Saturation of the reachable-configuration automaton.

    Returns the ordered list of reachable (control, top) pairs.  The automaton
    states are abstract controls (codes), the final state FINAL, and one
    middle state, the pair (control, pushed symbol), per push target; an
    edge (p, gamma, q) witnesses a reachable configuration with control p
    and gamma on top.

    reasons, a dict when given, receives every edge with the way it was
    first derived (Schwoon, Model-Checking Pushdown Systems, 2002), for
    find_stem to read back.  A configuration is a path of edges, and a
    reason names the configuration its first edge or two came from:
      None: the initial configuration;
      (tid, e): rule tid applied at edge e.  A neutral move's edge replaces
        e; a push's reason sits on the edge below the pushed symbol, and
        the two edges replace e;
      (tid, e, f): rule tid popped edge e and left f on top (an epsilon
        edge composed with f);
      (None, f): a pushed symbol, whose push is on the edge below it; f,
        inserted with it, stands in when nothing is below.
    Premises are inserted before the edges they explain.  An edge that
    makes more than budget raises BudgetExceeded.

    The rules at an edge (p, gamma, q) are net.moves.successors(p, gamma):
    the leader's moves from p with gamma on top, then the contributor moves
    whose source is in p's Q, each in tid order.
    """
    moves = net.moves
    trans = {} if reasons is None else reasons   # (p, gamma, q) -> reason
    trans_from = {}           # q -> list of (gamma, q2)
    eps_into = {}             # q -> list of p with an epsilon edge p -> q
    eps = {}                  # (p, q) -> (tid, popped edge)
    work = []

    def add_trans(p, gamma, q, reason):
        key = (p, gamma, q)
        if key in trans:
            return
        if len(trans) == budget:
            raise BudgetExceeded(f"more than {budget} saturation edges")
        trans[key] = reason
        trans_from.setdefault(p, []).append((gamma, q))
        work.append(key)
        for r in eps_into.get(p, []):
            tid, popped = eps[(r, p)]
            add_trans(r, gamma, q, (tid, popped, key))

    def add_eps(p, q, tid, popped):
        if (p, q) in eps:
            return
        eps[(p, q)] = (tid, popped)
        eps_into.setdefault(q, []).append(p)
        for gamma, q2 in list(trans_from.get(q, [])):
            add_trans(p, gamma, q2, (tid, popped, (q, gamma, q2)))

    add_trans(moves.encode(initial_abstract(net)), net.leader.bottom, FINAL,
              None)
    wi = 0
    while wi < len(work):
        edge = p, gamma, q = work[wi]
        wi += 1
        if not isinstance(p, int):      # the final state or a middle state
            continue
        for t, p2, repl in moves.successors(p, gamma):
            if repl == ():
                add_eps(p2, q, t.tid, edge)
            elif len(repl) == 1:
                add_trans(p2, repl[0], q, (t.tid, edge))
            else:
                beta, below = repl
                mid = (p2, beta)
                add_trans(p2, beta, mid, (None, (mid, below, q)))
                add_trans(mid, below, q, (t.tid, edge))

    return list(dict.fromkeys((p, gamma) for p, gamma, _ in trans
                              if isinstance(p, int)))


def loop_rules(net):
    """The loop automaton's rules, on demand: a function from a node
    ((code, bit), top) to the abstract rules there that keep the code's Q,
    as (tid, (code', bit'), replacement), where the sticky bit turns 1 at
    an accepting control.  They are net.moves.successors(code, top) in its
    order, less the contributor moves whose target is not in Q, as in
    post_star."""
    moves = net.moves
    n, q_mask, accepting = moves.width, moves.q_mask, moves.accepting

    def rules_at(node):
        (code, b), top = node
        Q = code & q_mask
        return [(t.tid, (c2, 1 if accepting[c2 >> n] else b), repl)
                for t, c2, repl in moves.successors(code, top)
                if c2 & q_mask == Q]
    return rules_at


def pop_relation(rules_at, starts):
    """The rules of the loop automaton that the start nodes demand, and the
    least set of triples (s, gamma, s') over them such that the automaton
    can go from s with [gamma] to s' with the gamma popped.

    A node (state, top) is demanded when it is a start, when a neutral or
    push rule of a demanded node moves to it, or when a triple (s2, beta,
    x) pops the symbol that a push of beta over gamma put on top, exposing
    (x, gamma).  These are the nodes that the starts reach in the graph of
    loop_automaton, and a node's triples depend only on the nodes it
    reaches, so they are the ones the whole automaton has.  rules_at
    (loop_rules) gives a node's rules when it is first demanded.

    Worklist saturation (Schwoon, Model-Checking Pushdown Systems, 2002),
    driven by demand as the summaries of Reps, Horwitz and Sagiv (POPL
    1995).  Pop rules seed the triples, and each new triple (a, g, x) wakes
    only the rules waiting on (a, g): a neutral rule that moves to a with g
    on top, a push rule that moves to a and pushes g, and a push rule
    whose pushed symbol has been popped again at a, waiting to pop the g it
    left below.  A rule that starts waiting on a node whose triples are
    already known fires for them at once.

    Returns the rules as a dict from node to rules in the order the nodes
    were demanded, and the triples as a dict in the order found.
    """
    rules = {}
    todo = []         # demanded nodes whose rules do not wait yet
    work = []
    first = {}        # (a, g) -> [(s, gamma, below or None if neutral)]
    second = {}       # (x, below) -> [(s, gamma)] waiting for (x, below, y)
    found = {}
    after = {}        # (a, g) -> [x] in the order found

    def demand(node):
        if node not in rules:
            rules[node] = rules_at(node)
            todo.append(node)

    def pop_below(s, gamma, x, below):
        """The symbol a push at (s, gamma) put on top is popped at x: wait
        for (x, below) to pop the symbol left below it."""
        demand((x, below))
        work.extend((s, gamma, y) for y in after.get((x, below), ()))
        second.setdefault((x, below), []).append((s, gamma))

    for node in starts:
        demand(node)
    while todo or work:
        if todo:
            s, gamma = todo.pop()
            for _, s2, repl in rules[(s, gamma)]:
                if repl == ():
                    work.append((s, gamma, s2))
                    continue
                below = repl[1] if len(repl) == 2 else None
                target = (s2, repl[0])
                demand(target)
                first.setdefault(target, []).append((s, gamma, below))
                for x in after.get(target, ()):
                    if below is None:
                        work.append((s, gamma, x))
                    else:
                        pop_below(s, gamma, x, below)
            continue
        triple = work.pop()
        if triple in found:
            continue
        found[triple] = None
        a, g, x = triple
        after.setdefault((a, g), []).append(x)
        for s, gamma in second.get((a, g), ()):
            work.append((s, gamma, x))
        for s, gamma, below in first.get((a, g), ()):
            if below is None:
                work.append((s, gamma, x))
            else:
                pop_below(s, gamma, x, below)
    return rules, found


def loop_automaton(net, starts):
    """The part of the loop automaton that the start nodes, all with one
    populated set Q, reach: its rule table by (state, top) node
    (loop_rules), its pop relation as an index (s, gamma) -> [s'], and its
    reachability graph, all from one pop_relation call.  The index lists
    each s' in sorted order, by leader state, store and bit as the codes
    sort, so it does not depend on which starts were given.

    The graph's nodes are (state, top) pairs, and it has an edge wherever a
    loop grammar has a production ("R", node) -> ... ("R", node') that ends
    in node': a neutral rule moves to (s', top), and a push of beta with
    gamma below moves to (s', beta) and, for each x in the index at
    (s', beta), to (x, gamma).  Pops add no edge.  Every successor is a
    demanded node, so the graph is closed.
    """
    rules, found = pop_relation(loop_rules(net), starts)
    after = {}
    for s, gamma, s2 in found:
        after.setdefault((s, gamma), []).append(s2)
    for xs in after.values():
        xs.sort()
    graph = {}
    for node, rs in rules.items():
        succ = graph[node] = []
        for _, s2, repl in rs:
            if len(repl) == 1:
                succ.append((s2, repl[0]))
            elif repl:
                beta, below = repl
                succ.append((s2, beta))
                succ += [(x, below) for x in after.get((s2, beta), ())]
    return rules, after, graph


def _loop_ends(net, pivot_control, pivot_symbol):
    """The loop automaton's start and accept nodes at a pivot."""
    moves = net.moves
    bit = 1 if moves.accepting[pivot_control >> moves.width] else 0
    return ((pivot_control, bit), pivot_symbol), \
        ((pivot_control, 1), pivot_symbol)


def loop_nonempty(net, automaton, pivot_control, pivot_symbol):
    """Whether the pivot's loop grammar derives a nonempty word, by a
    search of the loop automaton's graph, without building the grammar.
    The automaton must have the pivot's start node among its starts.

    The productive "T" symbols of a loop grammar are exactly the triples of
    the pop relation, so an ("R", s, gamma) symbol is productive exactly
    when the accept node (accept state, pivot symbol) is reachable from
    (s, gamma) in the graph.  Every "R" production but the accept node's
    empty one is an edge of the graph, so the start symbol derives a
    nonempty word exactly when the accept node is reachable from the start
    node by a nonempty path: when some node that the start reaches has it
    as a successor.  At an accepting pivot the two nodes are equal, and
    the empty word alone does not count.
    """
    _, _, moves = automaton
    start, accept = _loop_ends(net, pivot_control, pivot_symbol)
    return any(accept in moves[node] for node, _ in
               graph.bfs(start, moves.__getitem__))


def build_loop_grammar(net, pivot_control, pivot_symbol, automaton=None):
    """Grammar of the loop-run words at the given pivot.

    Nonterminals: ("T", s, gamma, s') for balanced segments that pop gamma,
    and ("R", s, gamma) for runs above the current gamma that end in the
    accepting condition (pivot control revisited, accepting bit set, pivot
    symbol on top).  The pivot symbol at the bottom is never popped, so "never
    below the floor" holds by construction.

    automaton is a loop_automaton of the pivot's Q with the pivot's start
    node among its starts; check_pdm_fsm builds one per Q and shares it
    among the pivots with that Q.  Without it one is built from this start
    alone.  Only the nodes that the start reaches in the automaton's graph
    get productions, one per rule and per matching triple of the index,
    and the nodes come in sorted order, the states as the index sorts them
    and then the top in stack-alphabet order, so a shared and a fresh
    automaton give the same grammar.  Nonterminals are listed in the
    order of their first production, then the ones with none.
    check_pdm_fsm first decides each pivot by reachability on the graph
    (loop_nonempty) and builds the grammar only for the pivots whose
    grammar derives a nonempty word.
    """
    start, accept = _loop_ends(net, pivot_control, pivot_symbol)
    if automaton is None:
        automaton = loop_automaton(net, [start])
    rules, after, moves = automaton
    tops = net.leader.stack_alphabet
    reached = sorted((node for node, _ in graph.bfs(start, moves.__getitem__)),
                     key=lambda node: (node[0], tops.index(node[1])))
    prods = []
    for node in reached:
        s, gamma = node
        R = ("R", s, gamma)
        if node == accept:
            prods.append((R, ()))
        for tid, s2, repl in rules[node]:
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
    nts = dict.fromkeys(lhs for lhs, _ in prods)
    nts.update(dict.fromkeys(sym for _, rhs in prods for sym in rhs
                             if isinstance(sym, tuple)))
    nts.setdefault(("R", *start))
    tids = tuple(t.tid for t in net.leader_transitions + net.contributor_transitions)
    return parikh.Grammar(tuple(nts), tids, ("R", *start), tuple(prods))


#: the number of loop words in a row that a loop_system model counts
LOOPS = "loops"


def loop_system(net, grammar):
    """Parikh constraints of the loop grammar, with the start symbol
    expanded LOOPS >= 1 times more than it is produced, plus concrete
    realizability (cyclesearch.contributor_flow_rows).  Loop words in a row
    make a loop word (each ends at the pivot control with the pivot symbol
    on top), so this has a model exactly when LOOPS = 1 has one, and it is
    the kind of system parikh.solve decides."""
    system = parikh.parikh_cfg(grammar)
    atoms = tuple(("eq", {**atom[1], LOOPS: -1}, 0)
                  if atom[0] == "eq" and atom[2] == 1 else atom
                  for atom in system.atoms)
    return parikh.LinearSystem(system.variables + (LOOPS,), atoms).conjoin(
        [parikh.ge({LOOPS: 1}, 1)] + contributor_flow_rows(net))


def find_stem(net, pivot_control, pivot_symbol, reasons,
              budget=EXPLORE_BUDGET):
    """The abstract stem to the pivot, read back from the reasons post_star
    recorded: the transitions of a path from the initial configuration to
    one with the pivot control and the pivot symbol on top.

    It starts from the first edge (pivot control, pivot symbol, q) and
    replaces the first one or two edges of the configuration's path by
    their premises until only the initial edge is left, collecting the
    rules in reverse.  Premises are inserted before the edges they explain,
    so this ends.  A stem of more than budget moves raises BudgetExceeded.
    """
    path = [next(edge for edge in reasons     # first edge last
                 if edge[:2] == (pivot_control, pivot_symbol))]
    tids = []                 # last move first
    while reasons[path[-1]] is not None:
        tid, *premises = reasons[path.pop()]
        if tid is None:       # a pushed symbol: read the edge below it
            tid, *premises = reasons[path.pop() if path else premises[0]]
        if len(tids) == budget:
            raise BudgetExceeded(f"stem longer than {budget} moves")
        tids.append(tid)
        path.extend(reversed(premises))
    return [net.transition(tid) for tid in reversed(tids)]


def token_free_word(net, grammar):
    """A shortest nonempty word of the reduced loop grammar whose moves
    move no token (leader moves and contributor self-loops), as transition
    ids, or None.  Such a word is a loop word and leaves every contributor
    state's count as it was, so with LOOPS = 1 its Parikh vector is a model
    of loop_system; a pivot that has one needs no solve.

    Every production but the accept node's empty one starts with a
    transition id.  Only the productions whose transition ids are all
    token-free count, and parikh.shortest_derivations weighs them.  The
    start symbol takes its lightest nonempty production, and each
    nonterminal expands by its lightest one.
    """
    free = {t.tid for t in net.leader_transitions + net.contributor_transitions
            if not t.moves_token}
    prods = [(lhs, rhs) for lhs, rhs in grammar.productions
             if all(sym in free for sym in rhs if not isinstance(sym, tuple))]
    _, best, weight = parikh.shortest_derivations(prods, grammar.terminals)
    loops = [(weight[i], i) for i, (lhs, rhs) in enumerate(prods)
             if lhs == grammar.start and rhs and weight[i] is not None]
    if not loops:
        return None
    word = []
    todo = list(reversed(prods[min(loops)[1]][1]))
    while todo:
        sym = todo.pop()
        if isinstance(sym, tuple):
            todo.extend(reversed(prods[best[sym]][1]))
        else:
            word.append(sym)
    return word


def _model_word(grammar, model):
    """The LOOPS loop words of a loop_system model, derived as one word
    from a fresh start symbol with the productions start -> S start | S,
    used LOOPS - 1 times and once."""
    prods = grammar.productions
    start = ("loops",)
    pumped = parikh.Grammar(grammar.nonterminals + (start,),
                            grammar.terminals, start,
                            prods + ((start, (grammar.start, start)),
                                     (start, (grammar.start,))))
    counts = {i: model.get(f"y{i}", 0) for i in range(len(prods))}
    counts[len(prods)] = model[LOOPS] - 1
    counts[len(prods) + 1] = 1
    word = derive_word(pumped, counts)
    if word is None:
        raise AssertionError("Parikh model admits no derivation")
    return word


def check_pdm_fsm(net, budget=EXPLORE_BUDGET):
    """Decide nonemptiness of the accepted omega-language for some population
    size, for a PDM leader and an FSM contributor.

    The statistics count the pivots post* finds, the pivots visited
    (pivots_checked) and the solves among them, one per pivot whose loop
    grammar derives nonempty words but none that moves no token.  A
    saturation of more than budget edges, or a stem of more than budget
    moves, raises BudgetExceeded, and a model that gives no witness
    InternalError."""
    if not isinstance(net.leader, Pdm) or not isinstance(net.contributor, Fsm):
        raise ValueError("check_pdm_fsm needs a PDM leader and an FSM contributor")
    stats = {"pivots": 0, "pivots_checked": 0, "solves": 0}
    if not net.leader.accepting:
        return Verdict("EMPTY", None, stats)
    reasons = {}              # post*'s edge derivations, for find_stem
    pairs = post_star(net, budget, reasons)
    stats["pivots"] = len(pairs)
    q_mask = net.moves.q_mask
    starts = {}               # Q -> the start nodes of its pivots
    for control, gamma in pairs:
        starts.setdefault(control & q_mask, []).append(
            _loop_ends(net, control, gamma)[0])
    automata = {}             # Q -> its loop automaton, for this check
    for control, gamma in pairs:
        stats["pivots_checked"] += 1
        Q = control & q_mask
        if Q not in automata:
            automata[Q] = loop_automaton(net, starts[Q])
        if not loop_nonempty(net, automata[Q], control, gamma):
            continue
        grammar = parikh.reduce_grammar(
            build_loop_grammar(net, control, gamma, automata[Q]))
        cycle = token_free_word(net, grammar)
        if cycle is None:
            system = loop_system(net, grammar)
            stats["solves"] += 1
            model = parikh.solve(system)
            if model is None:
                continue
        try:
            if cycle is None:
                cycle = _model_word(grammar, model)
            stem = find_stem(net, control, gamma, reasons, budget)
            witness = lasso(net, stem, net.moves.decode(control).Q, cycle,
                            gamma)
        except AssertionError as exc:
            err = str(exc)
        else:
            status, err = replay(net, witness)
            if status == "valid":
                return Verdict("NONEMPTY", witness, stats)
        c = net.moves.decode(control)
        at = (c.leader_state, c.store, sorted(c.Q, key=repr), gamma)
        raise InternalError(
            f"could not concretize a feasible loop at {at}: {err}")
    return Verdict("EMPTY", None, stats)
