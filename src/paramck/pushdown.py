"""Liveness decision for PDM leader / FSM contributor networks.

The abstraction carries over: an abstract control is the integer code of
a configuration (leader state, store value, populated contributor set Q)
that net.moves (machines.Codec) numbers and moves, and the leader's stack
makes the abstract system a pushdown process whose rules replace the top
symbol by zero, one or two symbols.  Contributor moves never touch the
stack.

The decision runs in three stages:
  1. one demand-driven saturation of the pop relation (pop_relation) over
     every abstract rule, from the initial (control, bottom) node, demands
     exactly the reachable (control, top-symbol) pairs, the pivots;
  2. for each pivot, collect the words of "loop runs": runs that start
     with the pivot symbol on top, never pop below it, visit an accepting
     control, and return to the pivot control with the pivot symbol on top.
     These form a context-free language over transition ids, described by a
     grammar with the usual balanced-segment nonterminals.  The grammar is
     read off the loop automaton of the pivot's Q: its rules, pop relation
     and graph of (state, top) nodes.  Stage 1 finds every pivot first, so
     the automaton is built once per Q, by one pop_relation call from the
     start nodes of all the pivots with that Q, and holds only the nodes
     those starts reach.  One search of the graph from each pivot's start
     node decides it (loop_reach): the grammar derives a nonempty word
     exactly when the accept node is reachable from the start node by a
     nonempty path.  Only the pivots where it is get a grammar, with the
     productions of the nodes that search reached;
  3. a loop word whose contributor moves are all self-loops moves no token
     and repeats forever, so a shortest such word of the reduced grammar is
     the cycle, and the pivot needs no solve (cyclesearch.closed_walk in
     the finite-state case).  Only the other pivots get a solve: a Parikh
     model of the grammar, strengthened with contributor flow balance and
     nonemptiness, denotes a concretely realizable cycle, derived from the
     model's production counts.  The witness is the cycle after a stem read
     back from stage 1: the tree path to the pivot in its breadth-first
     search, each step expanded by the first derivations of the triples it
     uses.  It is replayed.  Neither the derivation nor the stem searches.

Moves depend only on the control and the top symbol, so a loop run can repeat
forever above its own garbage; the population argument is the same counting
argument as in the finite-state case.
"""

from __future__ import annotations

import math

from .machines import EXPLORE_BUDGET, BudgetExceeded, InternalError, Pdm, Fsm
from .explicit import Verdict, replay
from .cyclesearch import contributor_flow_rows, lasso
from . import graph, parikh
from .parikh import derive_word


def loop_rules(net):
    """The loop automaton's rules, on demand: a function from a node's
    state (code, bit) and top to the abstract rules there that keep the
    code's Q, as (tid, (code', bit'), replacement), where the sticky bit
    turns 1 at an accepting control.  They are net.moves.successors(code,
    top) in its order, less the contributor moves whose target is not in
    Q."""
    moves = net.moves
    n, q_mask, accepting = moves.width, moves.q_mask, moves.accepting

    def rules_at(state, top):
        code, b = state
        Q = code & q_mask
        return [(t.tid, (c2, 1 if accepting[c2 >> n] else b), repl)
                for t, c2, repl in moves.successors(code, top)
                if c2 & q_mask == Q]
    return rules_at


def pop_relation(rules_at, starts, budget=math.inf):
    """The rules that the start nodes demand, and the least set of triples
    (s, gamma, s') over them such that the pushdown system can go from s
    with [gamma] to s' with the gamma popped.

    rules_at gives a node's rules, (label, s', replacement) with the
    replacement of gamma as in machines.Codec.successors, when the node is
    first demanded: loop_rules for a loop automaton, with transition ids
    for labels, and net.moves.successors for post_star, with transitions.
    A node (s, gamma) is demanded when it is a start, when a neutral or
    push rule of a demanded node moves to it, or when a triple (s2, beta,
    x) pops the symbol that a push of beta over gamma put on top, exposing
    (x, gamma).  These are the nodes that the starts reach in the
    summary_graph, and a node's triples depend only on the nodes it
    reaches, so they are the ones the whole system has.

    Worklist saturation (Schwoon, Model-Checking Pushdown Systems, 2002),
    driven by demand as the summaries of Reps, Horwitz and Sagiv (POPL
    1995).  Pop rules seed the triples, and each new triple (a, g, x) wakes
    only the rules waiting on (a, g): a neutral rule that moves to a with g
    on top, a push rule that moves to a and pushes g, and a push rule
    whose pushed symbol has been popped again at a, waiting to pop the g it
    left below.  A rule that starts waiting on a node whose triples are
    already known fires for them at once.

    Returns the rules as a dict from node to rules in the order the nodes
    were demanded, and the triples as a dict in the order found, each with
    its first derivation, whose premises come before it: (label,) for a
    pop, (label, t) for a neutral rule followed by the triple t, and
    (label, t1, t2) for a push whose pushed symbol t1 pops and then t2 the
    one below.  More than budget nodes and triples raise BudgetExceeded.
    """
    rules = {}
    todo = []         # demanded nodes whose rules do not wait yet
    work = []         # (triple, derivation)
    first = {}        # (a, g) -> [(s, gamma, label, below or None)]
    second = {}       # (x, below) -> [(s, gamma, label, t1)], t1 ending
                      # at x, waiting for (x, below, y)
    found = {}        # triple -> its first derivation
    after = {}        # (a, g) -> [x] in the order found

    def demand(node):
        if len(rules) + len(found) == budget:
            raise BudgetExceeded(f"more than {budget} pivots and triples")
        rules[node] = rules_at(*node)
        todo.append(node)

    def pop_below(s, gamma, label, t1, below):
        """The symbol a push at (s, gamma) put on top is popped as t1:
        wait for (x, below) to pop the symbol left below it."""
        x = t1[2]
        if (x, below) not in rules:
            demand((x, below))
        work.extend(((s, gamma, y), (label, t1, (x, below, y)))
                    for y in after.get((x, below), ()))
        second.setdefault((x, below), []).append((s, gamma, label, t1))

    for node in starts:
        if node not in rules:
            demand(node)
    while todo or work:
        if todo:
            s, gamma = todo.pop()
            for label, s2, repl in rules[(s, gamma)]:
                if repl == ():
                    work.append(((s, gamma, s2), (label,)))
                    continue
                below = repl[1] if len(repl) == 2 else None
                target = (s2, repl[0])
                if target not in rules:
                    demand(target)
                first.setdefault(target, []).append((s, gamma, label, below))
                for x in after.get(target, ()):
                    if below is None:
                        work.append(((s, gamma, x), (label, (*target, x))))
                    else:
                        pop_below(s, gamma, label, (*target, x), below)
            continue
        triple, how = work.pop()
        if triple in found:
            continue
        if len(rules) + len(found) == budget:
            raise BudgetExceeded(f"more than {budget} pivots and triples")
        found[triple] = how
        a, g, x = triple
        after.setdefault((a, g), []).append(x)
        for s, gamma, label, t1 in second.get((a, g), ()):
            work.append(((s, gamma, x), (label, t1, triple)))
        for s, gamma, label, below in first.get((a, g), ()):
            if below is None:
                work.append(((s, gamma, x), (label, triple)))
            else:
                pop_below(s, gamma, label, triple, below)
    return rules, found


def summary_graph(rules, found):
    """The index (s, gamma) -> [s'] of the triples found, each list in
    sorted order, and the graph of the nodes of rules, from a pop_relation
    call.  The index's order does not depend on the worklist's, nor on
    which starts were given.

    The graph maps a node (s, gamma) to its (label, node') edges, where a
    neutral rule moves to (s', top), and a push of beta over gamma moves to
    (s', beta) and, for each x in the index at (s', beta), to (x, gamma).
    Pops add no edge.  An edge's label is a derivation as pop_relation
    gives them: (rule label,) for the first two, and (rule label, (s',
    beta, x)) for the third.  Every successor is a demanded node, so the
    graph is closed.
    """
    after = {}
    for s, gamma, s2 in found:
        after.setdefault((s, gamma), []).append(s2)
    for xs in after.values():
        xs.sort()
    succ = {}
    for node, rs in rules.items():
        steps = succ[node] = []
        for label, s2, repl in rs:
            if repl:
                steps.append(((label,), (s2, repl[0])))
            if len(repl) == 2:
                beta, below = repl
                steps += [((label, (s2, beta, x)), (x, below))
                          for x in after.get((s2, beta), ())]
    return after, succ


def post_star(net, budget=EXPLORE_BUDGET, derivations=None):
    """The pivots: every reachable (control, top) pair, in breadth-first
    order from the initial one in the summary_graph of one pop_relation
    call over every abstract rule, net.moves.successors(control, top),
    from the initial node.  The nodes that call demands are exactly these
    pairs.  More than budget pivots and triples raise BudgetExceeded.

    derivations, a dict when given, receives the triples with their
    derivations and each pivot with its parent in the search's tree, for
    find_stem to read back.
    """
    initial = (net.moves.initial, net.leader.bottom)
    rules, found = pop_relation(net.moves.successors, [initial], budget)
    reach = graph.explore(initial, summary_graph(rules, found)[1].__getitem__,
                          math.inf, None)
    if derivations is not None:
        derivations.update(found)
        derivations.update(reach.parent)
    return reach.order


def loop_automaton(net, starts):
    """The part of the loop automaton that the start nodes, all with one
    populated set Q, reach: its rule table by (state, top) node
    (loop_rules), and the pop relation's summary_graph, all from one
    pop_relation call.  The index sorts each list by leader state, store
    and bit as the codes sort.  Every production ("R", node) -> ...
    ("R", node') of a loop grammar that ends in node' is an edge of the
    graph.
    """
    rules, found = pop_relation(loop_rules(net), starts)
    return (rules, *summary_graph(rules, found))


def _loop_ends(net, pivot_control, pivot_symbol):
    """The loop automaton's start and accept nodes at a pivot."""
    moves = net.moves
    bit = 1 if moves.accepting[pivot_control >> moves.width] else 0
    return ((pivot_control, bit), pivot_symbol), \
        ((pivot_control, 1), pivot_symbol)


def loop_reach(net, automaton, pivot_control, pivot_symbol):
    """The nodes that the pivot's start node reaches in the loop
    automaton's graph, in breadth-first order, or None when the pivot's
    loop grammar derives no nonempty word.  The automaton must have the
    pivot's start node among its starts.

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
    seen, queue, live = {start}, [start], False
    for node in queue:
        for _, succ in moves[node]:
            if succ == accept:
                live = True
            if succ not in seen:
                seen.add(succ)
                queue.append(succ)
    return queue if live else None


def build_loop_grammar(net, pivot_control, pivot_symbol, automaton, reached):
    """Grammar of the loop-run words at the given pivot.

    Nonterminals: ("T", s, gamma, s') for balanced segments that pop gamma,
    and ("R", s, gamma) for runs above the current gamma that end in the
    accepting condition (pivot control revisited, accepting bit set, pivot
    symbol on top).  The pivot symbol at the bottom is never popped, so "never
    below the floor" holds by construction.

    automaton is a loop_automaton of the pivot's Q with the pivot's start
    node among its starts; check_pdm_fsm builds one per Q and shares it
    among the pivots with that Q.  reached holds the nodes that the start
    reaches in the automaton's graph (loop_reach), and only they get
    productions, one per rule and per matching triple of the index.  The
    nodes come in sorted order, the states as the index sorts them and
    then the top in stack-alphabet order, so a shared and a fresh
    automaton give the same grammar.  Nonterminals are listed in the
    order of their first production, then the ones with none.
    check_pdm_fsm builds the grammar only for the pivots whose grammar
    derives a nonempty word.
    """
    start, accept = _loop_ends(net, pivot_control, pivot_symbol)
    rules, after, _ = automaton
    tops = net.leader.stack_alphabet
    prods = []
    for node in sorted(reached, key=lambda n: (n[0], tops.index(n[1]))):
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
    """The flow system of the reduced loop grammar over its production
    columns alone (parikh.cfg_flow), with the start symbol expanded LOOPS
    >= 1 times more than it is produced, plus concrete realizability
    (cyclesearch.contributor_flow_rows) and the row that some production
    that emits a move is used.  Loop words in a row make a loop word (each
    ends at the pivot control with the pivot symbol on top), so this has a
    model exactly when LOOPS = 1 has one, and it is the kind of system
    parikh.solve decides."""
    system = parikh.cfg_flow(grammar)
    atoms = tuple(("eq", {**atom[1], LOOPS: -1}, 0)
                  if atom[0] == "eq" and atom[2] == 1 else atom
                  for atom in system.atoms)
    columns = [(y, [sym for sym in rhs if not isinstance(sym, tuple)])
               for y, (_, rhs) in zip(system.variables, grammar.productions)]
    return parikh.LinearSystem(system.variables + (LOOPS,), atoms).conjoin(
        [parikh.ge({LOOPS: 1}, 1)] + contributor_flow_rows(net, columns)
        + [parikh.ge({y: 1 for y, tids in columns if tids}, 1)])


def find_stem(net, pivot_control, pivot_symbol, derivations,
              budget=EXPLORE_BUDGET):
    """The abstract stem to the pivot, read back from the derivations
    post_star recorded: the transitions of a path from the initial
    configuration to one with the pivot control and the pivot symbol on
    top.

    The path is the search tree's, so it is a shortest one in the summary
    graph, and each of its edges and each triple expands into its rule's
    transition followed by the words of its premises.  A stem of more than
    budget moves raises BudgetExceeded: stems may be exponentially longer
    than the saturation.
    """
    todo = [label for _, label, _ in reversed(graph.path_to(
        derivations, (pivot_control, pivot_symbol)))]
    stem = []
    while todo:
        t, *premises = todo.pop()
        if len(stem) == budget:
            raise BudgetExceeded(f"stem longer than {budget} moves")
        stem.append(t)
        todo += [derivations[triple] for triple in reversed(premises)]
    return stem


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

    The statistics count the pivots post_star finds, the pivots visited
    (pivots_checked) and the solves among them, one per pivot whose loop
    grammar derives nonempty words but none that moves no token.  A
    saturation of more than budget pivots and triples, or a stem of more
    than budget moves, raises BudgetExceeded, and a model that gives no
    witness InternalError."""
    if not isinstance(net.leader, Pdm) or not isinstance(net.contributor, Fsm):
        raise ValueError("check_pdm_fsm needs a PDM leader and an FSM contributor")
    stats = {"pivots": 0, "pivots_checked": 0, "solves": 0}
    if not net.leader.accepting:
        return Verdict("EMPTY", None, stats)
    derivations = {}          # for find_stem
    pairs = post_star(net, budget, derivations)
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
        reached = loop_reach(net, automata[Q], control, gamma)
        if reached is None:
            continue
        grammar = parikh.reduce_grammar(
            build_loop_grammar(net, control, gamma, automata[Q], reached))
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
            stem = find_stem(net, control, gamma, derivations, budget)
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
