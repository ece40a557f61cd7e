"""The pushdown saturation paramck ran before it took the pivots from the
pop relation: Schwoon's post* automaton (Model-Checking Pushdown Systems,
2002), with a final state, one middle state per push target and epsilon
edges, and the stems read back from its record of how each edge was
derived.  No checker uses it; the tests compare the pivots and stems of
paramck.pushdown against it."""

from __future__ import annotations

from paramck.machines import EXPLORE_BUDGET, BudgetExceeded


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

    The rules at an edge (p, gamma, q) are net.moves.expand(p, gamma):
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

    add_trans(moves.initial, net.leader.bottom, FINAL, None)
    wi = 0
    while wi < len(work):
        edge = p, gamma, q = work[wi]
        wi += 1
        if not isinstance(p, int):      # the final state or a middle state
            continue
        for t, p2, repl in moves.expand(p, gamma):
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
