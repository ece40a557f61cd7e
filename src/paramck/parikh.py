"""The grammar algorithms of both checkers: Parikh images of finite automata
and context-free grammars, the decision of the resulting natural-number
linear systems, and the words those decisions stand for.

The encodings follow the classic flow construction: one multiplicity variable
per edge (or production), flow balance per state (or nonterminal), and a
connectivity side condition forcing the used part of the graph to be
reachable from the start.  Connectivity is a first-class atom, so a system is
a conjunction of integer-linear rows and connectivity atoms over named
natural variables.

solve decides the systems the checkers build: homogeneous rows, "at least
one" rows and one connectivity atom.  There integer and rational models
have the same supports, so the decision is a fixpoint of linear programs
(HiGHS) and graph pruning, with no search and no budget.  Every model it
returns is checked in integers, and a "no model" answer rests on
strict-complementarity certificates checked in integers, or on an exact
rational simplex.

A model becomes a word by one construction, derive_word; an automaton is a
right-linear grammar, so euler_witness is derive_word too.  One
shortest-derivation pass, shortest_derivations, finds the productive
symbols for reduce_grammar and the shortest words the checkers look for
first."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy
from scipy.optimize import Bounds, LinearConstraint, linprog, milp
from scipy.sparse import csr_array

from . import graph


def le(coeffs, const):
    return ("le", dict(coeffs), const)


def ge(coeffs, const):
    return ("le", {v: -c for v, c in coeffs.items()}, -const)


def eq(coeffs, const):
    return ("eq", dict(coeffs), const)


#: the row 0 <= -1, which no assignment satisfies
FALSE = le({}, -1)


def connected(root, edges):
    """Connectivity atom: in the graph whose edge (src, dst) is present when
    its variable is positive, every node incident to a present edge must be
    reachable from root along present edges."""
    return ("conn", root, tuple(edges))


@dataclass(frozen=True)
class LinearSystem:
    """Existential natural-number variables under a conjunction of
    integer-linear rows and connectivity atoms."""

    variables: tuple       # declaration order; solve's column order
    atoms: tuple

    def conjoin(self, atoms):
        return LinearSystem(self.variables, self.atoms + tuple(atoms))


@dataclass(frozen=True)
class Fsa:
    """Finite automaton over an arbitrary label alphabet with one designated
    initial and one designated final state."""

    states: tuple
    edges: tuple           # of (src, label, dst)
    initial: object
    final: object


@dataclass(frozen=True)
class Grammar:
    nonterminals: tuple
    terminals: tuple
    start: object
    productions: tuple     # of (lhs, rhs-tuple)


def letter_var(label):
    return f"x[{label}]"


def edge_var(i):
    """The multiplicity variable of the i-th edge in parikh_fsa."""
    return f"e{i}"


def parikh_fsa(fsa, alphabet=None):
    """Linear system whose solutions, projected to the letter variables
    x[label], are exactly the Parikh vectors of the automaton's language.

    Variables: e{i} per edge (multiplicity) and x[label] per label, tied by a
    flow-balance system plus the connectivity side condition.  Letters of the
    alphabet without any edge are constrained to zero; by default the
    alphabet is the set of labels appearing on edges.

    All rows are filled in one pass over the edges.  Each row lists its edge
    variables in edge order, and a self-loop keeps its zero coefficient in
    its state's flow row.
    """
    labels = dict.fromkeys(alphabet if alphabet is not None else ())
    for _, lab, _ in fsa.edges:
        labels.setdefault(lab)

    evars = [edge_var(i) for i in range(len(fsa.edges))]
    xvars = [letter_var(lab) for lab in labels]
    variables = tuple(xvars + evars)

    # flow balance: in - out = [final] - [initial]; letters count edge uses
    flow = {s: {} for s in fsa.states}
    letters = {lab: {x: 1} for lab, x in zip(labels, xvars)}
    for e, (src, lab, dst) in zip(evars, fsa.edges):
        if dst in flow:
            flow[dst][e] = 1
        if src in flow:
            flow[src][e] = flow[src].get(e, 0) - 1
        letters[lab][e] = -1
    atoms = [eq(flow[s], (1 if s == fsa.final else 0)
                - (1 if s == fsa.initial else 0)) for s in fsa.states]
    atoms += [eq(letters[lab], 0) for lab in labels]

    # every used edge must be reachable from the initial state
    atoms.append(connected(fsa.initial,
                           [(e, src, dst)
                            for e, (src, _, dst) in zip(evars, fsa.edges)]))
    return LinearSystem(variables, tuple(atoms))


def shortest_derivations(productions, terminals):
    """The shortest derivations of a grammar, by Knuth's generalization of
    Dijkstra's algorithm (A generalization of Dijkstra's algorithm, IPL
    1977): a production is weighed once each nonterminal of its right-hand
    side has its length, its weight is its number of terminals plus those
    lengths, and a symbol's length is the weight of its lightest
    production.  Symbols not in terminals are nonterminals.

    Returns the length of each productive symbol, the index of the
    lightest production that gave it, and the weight of each production,
    None when a symbol on its right-hand side derives no word.  That
    production holds only symbols that got their lengths earlier, so
    expanding each symbol by it ends.
    """
    terminals = set(terminals)
    waiting = []              # per production: nonterminals without a length
    uses = {}                 # symbol -> [production index] per occurrence
    weight = [None] * len(productions)
    heap = []                 # (weight, production) of the weighed ones
    for i, (lhs, rhs) in enumerate(productions):
        need = 0
        for sym in rhs:
            if sym not in terminals:
                need += 1
                uses.setdefault(sym, []).append(i)
        waiting.append(need)
        if not need:
            weight[i] = len(rhs)
            heap.append((weight[i], i))
    heapq.heapify(heap)
    length, best = {}, {}
    while heap:
        n, i = heapq.heappop(heap)
        lhs = productions[i][0]
        if lhs in length:
            continue
        length[lhs], best[lhs] = n, i
        for j in uses.get(lhs, ()):
            waiting[j] -= 1
            if not waiting[j]:
                weight[j] = sum(1 if sym in terminals else length[sym]
                                for sym in productions[j][1])
                heapq.heappush(heap, (weight[j], j))
    return length, best, weight


def reduce_grammar(g):
    """Remove unproductive and unreachable symbols; may leave no productions.

    The productive symbols and usable productions are shortest_derivations'
    (a production is usable when it has a weight), and reachability is a
    search over the usable productions indexed by left-hand side.
    Productions and nonterminals keep their order.
    """
    terminals = set(g.terminals)
    productive, _, weight = shortest_derivations(g.productions, terminals)
    by_lhs = {}
    for (lhs, rhs), w in zip(g.productions, weight):
        if w is not None:
            by_lhs.setdefault(lhs, []).append(rhs)
    reachable = {sym for sym, _ in graph.bfs(
        g.start, lambda lhs: [sym for rhs in by_lhs.get(lhs, ()) for sym in rhs
                              if sym not in terminals])}
    prods = tuple((lhs, rhs) for (lhs, rhs), w in zip(g.productions, weight)
                  if w is not None and lhs in reachable)
    nts = tuple(nt for nt in g.nonterminals if nt in reachable and nt in productive)
    return Grammar(nts, g.terminals, g.start, prods)


def parikh_cfg(g):
    """Linear system for the Parikh image of a context-free grammar.

    Variables: y{i} per production and x[t] per terminal.  Balance: each
    nonterminal is produced as often as it is expanded (the start symbol once
    more); connectivity mirrors the automaton case over the derivation
    forest.  All rows are filled in one pass over the productions.
    """
    g = reduce_grammar(g)
    if g.start not in g.nonterminals:
        return LinearSystem((), (FALSE,))

    yvars = [f"y{i}" for i in range(len(g.productions))]
    xvars = [letter_var(t) for t in g.terminals]
    variables = tuple(xvars + yvars)
    terminals = set(g.terminals)

    nt_rows = {nt: {} for nt in g.nonterminals}
    t_rows = {t: {letter_var(t): 1} for t in g.terminals}
    conn_edges = []
    for i, (lhs, rhs) in enumerate(g.productions):
        y = f"y{i}"
        uses = {lhs: 0}
        for sym in rhs:
            uses[sym] = uses.get(sym, 0) + 1
        for sym, n in uses.items():
            c = (1 if sym == lhs else 0) - n
            if c and sym in nt_rows:
                nt_rows[sym][y] = c
            if n and sym in t_rows:
                t_rows[sym][y] = -n
        # every used nonterminal must be reachable from the start in the
        # derivation forest; the self edge marks lhs as used even when rhs
        # is all terminals
        conn_edges.append((y, lhs, lhs))
        for nt in dict.fromkeys(s for s in rhs if s not in terminals):
            conn_edges.append((y, lhs, nt))
    atoms = [eq(nt_rows[nt], 1 if nt == g.start else 0)
             for nt in g.nonterminals]
    atoms += [eq(t_rows[t], 0) for t in g.terminals]
    atoms.append(connected(g.start, conn_edges))
    return LinearSystem(variables, tuple(atoms))


# ---------------------------------------------------------------------------
# decision

#: the most cuts _shrink adds before it keeps the model it was given
SHRINK_CUTS = 12


def _split(system):
    """The system's variables (declared ones first, then the ones only
    mentioned), its "= 0" rows as dicts from column to nonzero coefficient,
    the column sets of its "at least one" rows, and its connectivity atom
    as (root, [(column, src, dst)]) or None; ValueError outside that
    class."""
    variables = dict.fromkeys(system.variables)
    for atom in system.atoms:
        names = [v for v, _, _ in atom[2]] if atom[0] == "conn" else atom[1]
        variables.update(dict.fromkeys(names))
    col = {v: j for j, v in enumerate(variables)}
    cone, least, conns = [], [], []
    for atom in system.atoms:
        kind, coeffs, const = atom
        if kind == "conn":
            conns.append((coeffs, [(col[v], s, d) for v, s, d in const]))
        elif kind == "eq" and const == 0:
            cone.append({col[v]: c for v, c in coeffs.items() if c})
        elif kind == "le" and const == -1 and \
                all(c <= 0 for c in coeffs.values()):
            least.append({col[v] for v, c in coeffs.items() if c})
        else:
            raise ValueError("solve takes '= 0' rows and '>= 1' rows over "
                             f"non-negative coefficients, not {atom!r}")
    if len(conns) > 1:
        raise ValueError("solve takes at most one connectivity atom")
    return tuple(variables), cone, least, (conns[0] if conns else None)


def _matrix(rows, n):
    """The coefficients of rows, each a dict from column index to a nonzero
    coefficient, as a sparse float matrix with n columns."""
    data, indices, indptr = [], [], [0]
    for coeffs in rows:
        indices.extend(coeffs)
        data.extend(coeffs.values())
        indptr.append(len(indices))
    return csr_array((numpy.array(data, dtype=float), indices, indptr),
                     shape=(len(rows), n))


def _distances(conn, cols):
    """The distance from the root of each node that the root reaches along
    the connectivity edges of the columns cols."""
    root, edges = conn
    succ = {}
    for j, src, dst in edges:
        if j in cols:
            succ.setdefault(src, []).append(dst)
    return dict(graph.bfs(root, lambda node: succ.get(node, ())))


def _reached(conn, cols):
    """The columns of cols whose connectivity edges all leave nodes that the
    root reaches along edges of cols."""
    if conn is None:
        return cols
    dist = _distances(conn, cols)
    return cols - {j for j, src, _ in conn[1] if src not in dist}


def _prune(cone, conn, alive):
    """The columns of alive that can be positive in a model, as far as
    single rows and connectivity tell.  A row whose coefficients on alive
    all have one sign sums to 0 only with those columns at 0, so it is its
    own Goldman-Tucker certificate; a column whose connectivity edge leaves
    a node the root cannot reach along alive edges is 0 too."""
    while True:
        kept = _reached(conn, alive)
        for row in cone:
            if len({c > 0 for j, c in row.items() if j in kept}) == 1:
                kept = kept - row.keys()
        if kept == alive:
            return alive
        alive = kept


def _balls(conn, alive):
    """Growing sets of columns around the root, the last one alive: for
    each distance d, the columns whose connectivity edges all leave nodes
    at most d from the root.  alive must be _prune's."""
    if conn is None:
        return [alive]
    dist = _distances(conn, alive)
    depth = dict.fromkeys(alive, 0)
    for j, src, _ in conn[1]:
        if j in alive:
            depth[j] = max(depth[j], dist[src])
    return [{j for j in alive if depth[j] <= d}
            for d in sorted(set(depth.values()))]


def _rationalize(values, exact):
    """Integers proportional to the float values, or None: the nearest
    integers, or else each value's nearest fraction with denominator at
    most 16, 1024 or 10**6 scaled by their common denominator, whichever
    the predicate exact accepts first."""
    ints = [round(v) for v in values]
    if exact(ints):
        return ints
    for denom in (16, 1024, 10 ** 6):
        fracs = [Fraction(v).limit_denominator(denom) for v in values]
        scale = math.lcm(*(f.denominator for f in fracs))
        ints = [f.numerator * (scale // f.denominator) for f in fracs]
        if exact(ints):
            return ints
    return None


def _cone_point(lp, cone, least, n, cols, largest, cuts=()):
    """A point x = t + s of the cone {x >= 0 : cone rows = 0} that is 0 off
    the columns cols, by one HiGHS LP over the columns [t | s] of lp;
    rationalized and checked in integers, or None.

    largest: maximise the sum of t subject to t <= 1.  The cone is closed
    under scaling, so the optimum has t_j = 1 on every column that some
    point uses and t_j = 0 elsewhere; that the point's support is the
    largest is taken on trust until _certified checks it.  Otherwise
    minimise the sum of x = t subject to every "at least one" row and every
    cut (a column set) summing to >= 1: a short point that meets those rows,
    whose support need not be connected.
    """
    upper = numpy.zeros(2 * n)
    upper[list(cols)] = 1 if largest else numpy.inf
    if largest:
        upper[[n + j for j in cols]] = numpy.inf
    low = -numpy.inf if largest else 1
    rows = [LinearConstraint(lp, numpy.r_[numpy.zeros(len(cone)),
                                          numpy.full(len(least), low)],
                             numpy.r_[numpy.zeros(len(cone)),
                                      numpy.full(len(least), numpy.inf)])]
    if cuts:
        rows.append(LinearConstraint(
            _matrix([dict.fromkeys(cut, 1) for cut in cuts], 2 * n),
            1, numpy.inf))
    res = milp(c=numpy.repeat([-1.0 if largest else 1.0, 0.0], n),
               constraints=rows, bounds=Bounds(0, upper))
    if res.status != 0 or res.x is None:
        return None

    def exact(x):
        return min(x) >= 0 and all(
            sum(c * x[j] for j, c in row.items()) == 0 for row in cone) and (
            largest or all(any(x[j] for j in row) for row in least))

    return _rationalize((res.x[:n] + res.x[n:]).tolist(), exact)


def _shrink(lp, cone, least, conn, n, x):
    """A model inside the support of the model x with a small sum and a
    connected support: the shortest point of that support that meets the
    "at least one" rows, with a cut for each earlier point whose support
    was not connected.  A cut says that some edge of the support enters
    the nodes that point strands; x meets every such cut, since its support
    reaches all of them, so every LP has a point.  After SHRINK_CUTS cuts,
    x itself."""
    support = {j for j in range(n) if x[j]}
    cuts = []
    while len(cuts) <= SHRINK_CUTS:
        y = _cone_point(lp, cone, least, n, support, False, cuts)
        if y is None:
            break
        used = {j for j in support if y[j]}
        dist = _distances(conn, used)
        stranded = {node for j, src, dst in conn[1] if j in used
                    for node in (src, dst) if node not in dist}
        if not stranded:
            return y
        cuts.append({j for j, src, dst in conn[1] if j in support
                     and dst in stranded and src not in stranded})
    return x


def _exact_point(cone, n, alive):
    """A point of the cone on alive with the largest support, as integers,
    by the exact simplex: each run asks for a point that uses a column no
    earlier point used, and the first empty one proves that the columns
    left are 0 in every point."""
    cols = sorted(alive)
    pos = {j: k for k, j in enumerate(cols)}
    rows = []
    for row in cone:
        coeffs = {pos[j]: c for j, c in row.items() if j in pos}
        rows += [(coeffs, 0), ({k: -c for k, c in coeffs.items()}, 0)]
    total = [0] * n
    unused = cols
    while unused:
        x = _lp_feasible_exact(rows + [({pos[j]: -1 for j in unused}, -1)],
                               len(cols))
        if x is None:
            break
        scale = math.lcm(*(f.denominator for f in x))
        for j, f in zip(cols, x):
            total[j] += f.numerator * (scale // f.denominator)
        unused = [j for j in unused if not total[j]]
    return total


def _certified(lp, cone, alive, support):
    """Whether a Goldman-Tucker certificate (Goldman & Tucker, 1956) shows
    that the columns of alive outside support are 0 in every point of the
    cone on alive: a y with y'A >= 0 on alive and y'A > 0 off support, so
    that y'Ax = 0 forces those columns to 0.  The y of one float LP is
    rationalized and checked in integers.  lp holds the cone's
    coefficients in its first rows and columns."""
    cols = sorted(alive)
    res = linprog(c=numpy.zeros(len(cone)), A_ub=-lp[:len(cone), cols].T,
                  b_ub=[0 if j in support else -1 for j in cols],
                  bounds=(None, None), method="highs")

    def exact(y):
        combo = dict.fromkeys(cols, 0)
        for w, row in zip(y, cone):
            for j, c in row.items():
                if w and j in combo:
                    combo[j] += w * c
        return all(c > 0 or (c == 0 and j in support)
                   for j, c in combo.items())

    return res.status == 0 and _rationalize(res.x.tolist(), exact) is not None


def _lp_feasible_exact(rows, n):
    """A point of {Ax <= b, x >= 0} as n Fractions, or None if it is empty:
    phase-1 simplex with Bland's rule on a dense Fraction tableau.  rows:
    list of (coeffs, const), coeffs a dict from column index to a nonzero
    coefficient."""
    zero, one = Fraction(0), Fraction(1)
    if all(const >= 0 for _, const in rows):
        return [zero] * n
    m = len(rows)
    # columns: 0..n-1 structural, n the phase-1 variable x0, n+1..n+m slacks,
    # last the right-hand side
    tab = []
    for i, (coeffs, const) in enumerate(rows):
        row = [zero] * n + [Fraction(-1)] + [zero] * m
        for j, c in coeffs.items():
            row[j] = Fraction(c)
        row[n + 1 + i] = one
        row.append(Fraction(const))
        tab.append(row)
    basis = [n + 1 + i for i in range(m)]
    # make the basis feasible: pivot x0 in at the most negative row
    piv = min(range(m), key=lambda i: (tab[i][-1], i))
    _pivot(tab, basis, piv, n)
    # minimize x0; only x0 carries cost, so with x0 basic in row r the reduced
    # cost of column j is [j == n] - tab[r][j], and row r always passes the
    # ratio test of an improving column
    while True:
        r = next((i for i in range(m) if basis[i] == n), None)
        entering = None
        if r is not None:
            entering = next((j for j in range(n + 1 + m)
                             if (one if j == n else zero) - tab[r][j] < 0),
                            None)     # Bland: smallest improving index
        if entering is None:
            if r is not None and tab[r][-1] > 0:
                return None
            x = [zero] * n
            for i, col in enumerate(basis):
                if col < n:
                    x[col] = tab[i][-1]
            return x
        leaving = None
        best = None
        for i in range(m):
            if tab[i][entering] > 0:
                ratio = tab[i][-1] / tab[i][entering]
                if best is None or ratio < best or \
                        (ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        _pivot(tab, basis, leaving, entering)


def _pivot(tab, basis, row, col):
    m = len(tab)
    pr = tab[row]
    pv = pr[col]
    tab[row] = [a / pv for a in pr]
    for i in range(m):
        if i != row and tab[i][col] != 0:
            f = tab[i][col]
            tab[i] = [a - f * b for a, b in zip(tab[i], tab[row])]
    basis[row] = col


def _fixpoint(cone, least, conn, n, point, alive):
    """The largest support that a model on alive can have, found by
    repeating _prune and one point(alive) until nothing changes: the
    fixpoint's point as integers, or None if it misses an "at least one"
    row; and the rounds (alive, support) whose support point did not prove
    to be the largest.  point returns (x, proven)."""
    rounds = []
    while True:
        alive = _prune(cone, conn, alive)
        if not all(row & alive for row in least):
            return None, rounds
        x, proven = point(alive)
        support = {j for j in alive if x[j]}
        if support == alive:
            return x, rounds
        if not proven:
            rounds.append((alive, support))
        alive = support


def solve(system):
    """A natural-number model of the system, or None if it has none.

    The system must be homogeneous apart from "at least one" rows: each row
    is "= 0", or ">= 1" over non-negative coefficients, and there is at
    most one connectivity atom; anything else raises ValueError.  A
    rational model scaled by its common denominator is then an integer
    model with the same support, and connectivity depends on the support
    only.  So the support of every model lies in the fixpoint of two steps
    (_fixpoint): drop the columns that single rows or connectivity force to
    0 (_prune), and shrink to the largest support of a point of the cone
    {x >= 0 : "= 0" rows} on the columns left, found by one LP.  A model
    exists exactly when the fixpoint meets every "at least one" row, and
    then the fixpoint's point is one.

    That point uses every column it can, and witnesses should be short.
    So balls of columns around the root are tried first, smallest first
    (_balls): in each, the shortest point that meets every "at least one"
    row is a model if its support is connected; if not, the ball's
    fixpoint is tried, and a model it gives is shortened (_shrink).  The
    last ball holds every column, and its fixpoint decides.

    Every point is checked in integers.  A round whose LP point does not
    rationalize takes its point from the exact simplex.  A "no model"
    answer stands only when every column an LP dropped has a certificate
    (_certified); otherwise the fixpoint runs again on points of the exact
    simplex, which need none.
    """
    variables, cone, least, conn = _split(system)
    n = len(variables)
    alive = _prune(cone, conn, set(range(n)))
    if not all(row & alive for row in least):
        return None
    if not least:
        return dict.fromkeys(variables, 0)
    # one matrix for every LP: the cone rows over [t | s], for x = t + s,
    # then the "at least one" rows over t
    lp = _matrix([{**row, **{n + j: c for j, c in row.items()}}
                  for row in cone] + [dict.fromkeys(row, 1) for row in least],
                 2 * n).tocsc()

    def point(alive):
        x = _cone_point(lp, cone, least, n, alive, True)
        return (x, False) if x is not None else \
            (_exact_point(cone, n, alive), True)

    for ball in _balls(conn, alive):
        ball = _prune(cone, conn, ball)
        if not all(row & ball for row in least):
            continue
        x = _cone_point(lp, cone, least, n, ball, False)
        if x is not None:
            support = {j for j in range(n) if x[j]}
            if _reached(conn, support) == support:
                return dict(zip(variables, x))
        if x is not None or ball == alive:
            x, rounds = _fixpoint(cone, least, conn, n, point, ball)
            if x is not None:
                if conn is not None:
                    x = _shrink(lp, cone, least, conn, n, x)
                return dict(zip(variables, x))
    # the last ball was alive, and its fixpoint met no model
    if not all(_certified(lp, cone, alive, support)
               for alive, support in rounds):
        x, _ = _fixpoint(cone, least, conn, n,
                         lambda alive: (_exact_point(cone, n, alive), True),
                         alive)
        if x is not None:
            return dict(zip(variables, x))
    return None


# ---------------------------------------------------------------------------
# words

def derive_word(grammar, counts):
    """A word derivable using each production exactly counts[i] times, or
    None when the counts are not balanced (each nonterminal expanded as
    often as it occurs on right-hand sides, the start symbol once more) and
    connected (each used nonterminal reachable from the start through used
    productions).  The proof that such counts come from a derivation
    (Esparza, Fundamenta Informaticae 1997) builds one without search:

      1. A leftmost tree takes at each node the first production with uses
         left.  Balance keeps it from getting stuck, and what it leaves over
         is balanced on its own.
      2. While productions are left, connectivity puts some tree symbol X on
         a cycle of leftover productions (the tree enters every source
         component of their graph).  A shortest such cycle is the spine of a
         context X =>* uXv.  Its other nodes are expanded from the leftovers,
         X only while two or more X nodes are open, which balance again
         keeps from getting stuck, and the context is spliced in at an X
         node of the tree.

    The first tree symbol with leftovers will not always do: its leftover
    productions may all end in terminals.  Nodes are lists [symbol,
    children], so long derivations need no recursion.
    """
    prods = grammar.productions
    nonterminals = set(grammar.nonterminals)
    by_lhs = {}
    for i, (lhs, _) in enumerate(prods):
        by_lhs.setdefault(lhs, []).append(i)
    left = [counts.get(i, 0) for i in range(len(prods))]
    nodes = {}                # symbol -> a tree node labelled with it

    def expand(node, i):
        """Use production i at node; returns the new open nodes."""
        left[i] -= 1
        nodes.setdefault(node[0], node)
        node[1] = [[sym, None] if sym in nonterminals else sym
                   for sym in prods[i][1]]
        return [kid for kid in node[1] if isinstance(kid, list)]

    def grow(todo, x=None):
        """Expand the open nodes in todo and every node below them, last
        first, each by the first production of its symbol with uses left,
        but leave one node labelled x open.  Returns the nodes left open,
        or None when a node has no production left."""
        held = [node for node in todo if node[0] == x]
        todo = [node for node in todo if node[0] != x]
        while todo or len(held) > 1:
            node = todo.pop() if todo else held.pop()
            i = next((i for i in by_lhs.get(node[0], ()) if left[i]), None)
            if i is None:
                return None
            for kid in reversed(expand(node, i)):
                (held if kid[0] == x else todo).append(kid)
        return held

    def spine(x):
        """A shortest cycle of leftover productions through x, as pairs of a
        production and the position of the next spine symbol in it."""
        return graph.closed_walk(
            lambda sym: (((i, j), nxt) for i in by_lhs.get(sym, ()) if left[i]
                         for j, nxt in enumerate(prods[i][1])
                         if nxt == x or nxt in nonterminals), x)

    root = [grammar.start, None]
    if grow([root]) is None:
        return None
    while any(left):
        for x in list(nodes):
            chain = spine(x)
            if chain:
                break
            del nodes[x]      # leftovers only shrink: x stays off their cycles
        else:
            return None
        context = node = [x, None]
        side = []
        for i, j in chain:
            kids = expand(node, i)
            node = node[1][j]
            side += [kid for kid in kids if kid is not node]
        held = grow(side + [node], x)
        if held is None:
            return None
        at = nodes[x]
        held[0][1], at[1] = at[1], context[1]

    word = []
    todo = [root]
    while todo:
        item = todo.pop()
        if isinstance(item, list):
            todo.extend(reversed(item[1]))
        else:
            word.append(item)
    return word


def euler_witness(fsa, assignment):
    """A word of L(fsa) whose Parikh vector matches the assignment, which
    must satisfy parikh_fsa(fsa); AssertionError when it does not describe
    a walk.

    An automaton is a right-linear grammar: the edge (src, lab, dst) is the
    production ("s", src) -> lab ("s", dst), and the final state has one
    empty production.  The flow rows of parikh_fsa are that grammar's
    balance rows and its connectivity atom the grammar's connectivity, so
    derive_word turns the edge counts, plus one use of the empty
    production, into a walk from the initial to the final state (Euler's
    theorem is the right-linear case of the construction).
    """
    prods = tuple((("s", src), (lab, ("s", dst)))
                  for src, lab, dst in fsa.edges)
    counts = {i: assignment.get(edge_var(i), 0) for i in range(len(prods))}
    counts[len(prods)] = 1
    word = derive_word(
        Grammar(tuple(("s", q) for q in fsa.states),
                tuple(dict.fromkeys(lab for _, lab, _ in fsa.edges)),
                ("s", fsa.initial), prods + ((("s", fsa.final), ()),)),
        counts)
    if word is None:
        raise AssertionError("assignment does not describe a walk")
    return word
