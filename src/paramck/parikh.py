"""The grammar algorithms of both checkers: Parikh images of finite automata
and context-free grammars, the decision of the resulting natural-number
linear systems, and the words those decisions stand for.

The encodings follow the classic flow construction: one multiplicity variable
per edge (or production), flow balance per state (or nonterminal), and a
connectivity side condition forcing the used part of the graph to be
reachable from the start: fsa_flow and cfg_flow, which the checkers build
on, and parikh_fsa and parikh_cfg add a variable and a row per letter.
Connectivity is a first-class atom, so a system is a conjunction of
integer-linear rows and connectivity atoms over named natural variables.

solve decides the systems the checkers build: homogeneous rows, "at least
one" rows and one connectivity atom.  There integer and rational models
have the same supports, so the decision is a fixpoint of linear programs
and graph pruning, with no search and no budget.  linprog, an exact
simplex in integers, solves each program, so the supports it finds are the
largest and need no certificate; models are still checked in integers.
Every program, a connectivity cut's included, is solved from its rows.

A model becomes a word by one construction, derive_word; an automaton is a
right-linear grammar, so euler_witness is derive_word too.  One
shortest-derivation pass, shortest_derivations, finds the productive
symbols for reduce_grammar and the shortest words the checkers look for
first."""

import heapq
import math
from collections import namedtuple
from fractions import Fraction

from . import graph
from .machines import InternalError


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


class LinearSystem(namedtuple("LinearSystem", "variables atoms")):
    """Existential natural-number variables under a conjunction of
    integer-linear rows and connectivity atoms; variables are in
    declaration order, solve's column order."""

    __slots__ = ()

    def conjoin(self, atoms):
        return LinearSystem(self.variables, self.atoms + tuple(atoms))


class Fsa(namedtuple("Fsa", "states edges initial final")):
    """Finite automaton over an arbitrary label alphabet with one designated
    initial and one designated final state; edges are (src, label, dst)."""

    __slots__ = ()


class Grammar(namedtuple("Grammar", "nonterminals terminals start"
                                    " productions")):
    """A context-free grammar; productions are (lhs, rhs-tuple) pairs."""

    __slots__ = ()


def letter_var(label):
    return f"x[{label}]"


def edge_var(i):
    """The multiplicity variable of the i-th edge in parikh_fsa."""
    return f"e{i}"


def fsa_flow(fsa):
    """The flow system of the automaton over its edge columns e{i} alone:
    flow balance per state, in - out = [final] - [initial], then the
    connectivity atom, every used edge reachable from the initial state.
    Each row lists its edge variables in edge order, and a self-loop keeps
    its zero coefficient in its state's flow row."""
    evars = tuple(edge_var(i) for i in range(len(fsa.edges)))
    flow = {s: {} for s in fsa.states}
    for e, (src, _, dst) in zip(evars, fsa.edges):
        if dst in flow:
            flow[dst][e] = 1
        if src in flow:
            flow[src][e] = flow[src].get(e, 0) - 1
    atoms = [eq(flow[s], (1 if s == fsa.final else 0)
                - (1 if s == fsa.initial else 0)) for s in fsa.states]
    atoms.append(connected(fsa.initial,
                           [(e, src, dst)
                            for e, (src, _, dst) in zip(evars, fsa.edges)]))
    return LinearSystem(evars, tuple(atoms))


def parikh_fsa(fsa, alphabet=None):
    """Linear system whose solutions, projected to the letter variables
    x[label], are exactly the Parikh vectors of the automaton's language.

    Variables: x[label] per label, then fsa_flow's e{i} per edge, and a
    letter row x[label] = sum of its edges before the connectivity atom.
    Letters of the alphabet without any edge are constrained to zero; by
    default the alphabet is the set of labels appearing on edges.
    """
    labels = dict.fromkeys(alphabet if alphabet is not None else ())
    for _, lab, _ in fsa.edges:
        labels.setdefault(lab)
    flow = fsa_flow(fsa)
    letters = {lab: {letter_var(lab): 1} for lab in labels}
    for e, (_, lab, _) in zip(flow.variables, fsa.edges):
        letters[lab][e] = -1
    return LinearSystem(
        tuple(map(letter_var, labels)) + flow.variables, flow.atoms[:-1]
        + tuple(eq(row, 0) for row in letters.values()) + flow.atoms[-1:])


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


def cfg_flow(g):
    """The flow system of a reduced grammar whose start symbol derives a
    word, over its production columns y{i} alone.  Balance: each
    nonterminal is produced as often as it is expanded (the start symbol
    once more); connectivity mirrors the automaton case over the derivation
    forest.  All rows are filled in one pass over the productions."""
    terminals = set(g.terminals)
    yvars = tuple(f"y{i}" for i in range(len(g.productions)))
    rows = {nt: {} for nt in g.nonterminals}
    conn_edges = []
    for y, (lhs, rhs) in zip(yvars, g.productions):
        uses = {lhs: 0}
        for sym in rhs:
            uses[sym] = uses.get(sym, 0) + 1
        for sym, n in uses.items():
            c = (1 if sym == lhs else 0) - n
            if c and sym in rows:
                rows[sym][y] = c
        # every used nonterminal must be reachable from the start in the
        # derivation forest; the self edge marks lhs as used even when rhs
        # is all terminals
        conn_edges.append((y, lhs, lhs))
        for nt in dict.fromkeys(s for s in rhs if s not in terminals):
            conn_edges.append((y, lhs, nt))
    atoms = [eq(rows[nt], 1 if nt == g.start else 0) for nt in g.nonterminals]
    atoms.append(connected(g.start, conn_edges))
    return LinearSystem(yvars, tuple(atoms))


def parikh_cfg(g):
    """Linear system for the Parikh image of a context-free grammar.

    Variables: x[t] per terminal, then cfg_flow's y{i} per production of
    the reduced grammar, and a letter row x[t] = the occurrences of t in
    the productions used, before the connectivity atom.
    """
    g = reduce_grammar(g)
    if g.start not in g.nonterminals:
        return LinearSystem((), (FALSE,))
    flow = cfg_flow(g)
    letters = {t: {letter_var(t): 1} for t in g.terminals}
    for y, (_, rhs) in zip(flow.variables, g.productions):
        for sym in rhs:
            if sym in letters:
                letters[sym][y] = letters[sym].get(y, 0) - 1
    return LinearSystem(
        tuple(map(letter_var, g.terminals)) + flow.variables, flow.atoms[:-1]
        + tuple(eq(row, 0) for row in letters.values()) + flow.atoms[-1:])


# ---------------------------------------------------------------------------
# decision

#: the most cuts _shrink adds before it keeps the model it was given
SHRINK_CUTS = 12

#: degenerate pivots in a row after which linprog prices by Bland's rule
DEGENERATE_RUN = 12

#: the key of a tableau row's constant
RHS = -1


def _combine(row, pivot, col):
    """row minus the multiple of pivot (pivot[col] > 0) that clears col, as
    a primitive positive multiple of that equation."""
    g = math.gcd(pivot[col], row[col])
    p, a = pivot[col] // g, row[col] // g
    out = row.copy() if p == 1 else {k: p * c for k, c in row.items()}
    for k, c in pivot.items():
        c = out.get(k, 0) - a * c
        if c:
            out[k] = c
        else:
            out.pop(k, None)
    g = math.gcd(*out.values())
    return {k: c // g for k, c in out.items()} if g > 1 else out


def _enter(tab, basis, r, e):
    """Make column e basic in row r of the tableau, where tab[r][e] > 0."""
    for i, row in enumerate(tab):
        if i != r and e in row:
            tab[i] = _combine(row, tab[r], e)
    basis[r] = e


def linprog(cost, rows, upper):
    """A point x that minimizes cost·x subject to the rows, each (coeffs,
    const) for coeffs·x = const with coeffs a dict from column index to an
    integer, and 0 <= x[j] <= upper[j] (None: no upper bound), as
    Fractions; None when no point meets them, ValueError when cost·x has no
    lower bound.

    A bounded-variable primal simplex in integers.  A tableau row is a
    dict, its constant at RHS, a primitive positive multiple of its
    equation.  A nonbasic column is at 0, or complemented (x = upper - x')
    at its upper bound.  A "= 0" row gets its basic column by elimination,
    since x = 0 meets it; only the others get an artificial column, which
    phase 1 drives to 0 and phase 2 keeps there.  Pricing is Dantzig's
    rule, or Bland's (Bland 1977), which cannot cycle, after DEGENERATE_RUN
    pivots in a row that leave the point where it was.
    """
    n = len(upper)
    tab = []
    for coeffs, const in rows:
        row = {j: c for j, c in coeffs.items() if c and upper[j] != 0}
        row.update({RHS: const} if const else {})
        g = math.gcd(*row.values()) * (-1 if const < 0 else 1)
        tab += [{k: c // g for k, c in row.items()}] if g else []
    bound = list(upper) + [None] * len(tab)     # then the artificial columns
    basis, flipped = [None] * len(tab), set()
    for r, row in enumerate(tab):
        if RHS not in row and row:
            e = min(row, key=lambda j: (bound[j] is not None, abs(row[j])))
            tab[r] = {k: -c for k, c in row.items()} if row[e] < 0 else row
            _enter(tab, basis, r, e)

    def flip(j, rows):
        """Complement column j in rows."""
        flipped.symmetric_difference_update((j,))
        for row in rows:
            if row.get(j):
                row[RHS] = row.get(RHS, 0) - row[j] * bound[j]
                row[j] = -row[j]

    def run(obj):
        """Pivot until no column improves the objective row obj, that is,
        has a positive entry there; returns the last obj."""
        degenerate = 0
        while better := [j for j, w in obj.items() if w > 0 and j != RHS]:
            e = max(better, key=lambda j: (obj[j], -j)) \
                if degenerate < DEGENERATE_RUN else min(better)
            # the longest step num / den along e, to e's bound or where a
            # basic value meets 0 or its bound; ties go to the lowest basic
            num, den, r = bound[e], 1, None
            for i, row in enumerate(tab):
                a, beta = row.get(e, 0), basis[i]
                if a > 0:
                    t = (row.get(RHS, 0), a)
                elif a and bound[beta] is not None:
                    t = (row[beta] * bound[beta] - row.get(RHS, 0), -a)
                else:
                    continue
                if num is None or (t[0] * den, beta) < (
                        num * t[1], -1 if r is None else basis[r]):
                    (num, den), r = t, i
            if num is None:
                raise ValueError("the objective has no lower bound")
            degenerate = degenerate + 1 if num == 0 else 0
            if r is None:
                flip(e, tab + [obj])
                continue
            beta, row = basis[r], tab[r]
            if row[e] < 0:
                # beta leaves at its upper bound: complement it, and negate
                # the row so that its coefficient stays positive
                flip(beta, [row])
                tab[r] = {k: -c for k, c in row.items()}
            if e in obj:
                obj = _combine(obj, tab[r], e)
            _enter(tab, basis, r, e)
            if beta >= n:                # an artificial column left
                for row in tab + [obj]:
                    row.pop(beta, None)
        return obj

    obj = {}
    for r, b in enumerate(basis):
        if b is None:
            basis[r] = n + r
            for k, c in tab[r].items():
                obj[k] = obj.get(k, 0) + c
            tab[r][n + r] = 1
    if obj and run(obj).get(RHS, 0) > 0:
        return None
    bound[n:] = [0] * len(tab)
    obj = {j: c if j in flipped else -c
           for j, c in enumerate(cost) if c and upper[j] != 0}
    obj[RHS] = sum(c * upper[j] for j, c in enumerate(cost) if j in flipped)
    for row, b in zip(tab, basis):
        obj = _combine(obj, row, b) if b in obj else obj
    run(obj)
    x = dict.fromkeys(range(n), Fraction(0))
    x.update((b, Fraction(row.get(RHS, 0), row[b]))
             for row, b in zip(tab, basis))
    return [upper[j] - x[j] if j in flipped else x[j] for j in range(n)]


# an alias that solve never calls: the benchmark's tracer wraps the name
# milp, once scipy's integer solver here, and reads 0 calls from it
milp = linprog


class _Index:
    """One system of solve, indexed in one pass over its atoms: its
    variables (declared ones first, then the ones only mentioned), its
    "= 0" rows as dicts from column to nonzero coefficient and each
    column's rows and signs there, the column sets of its "at least one"
    rows, and its connectivity atom as (root, [(column, src, dst)]) or
    None, with each node's out-edges as (column, dst) and each column's
    edge sources (no atom means a bare root); ValueError outside that
    class.  Then, as solve goes, the LP parts of each support met and each
    point _cone_point has computed, by support, kind and cuts."""

    def __init__(self, system):
        col = {v: j for j, v in enumerate(dict.fromkeys(system.variables))}
        signs, sources = [[] for _ in col], [set() for _ in col]
        cone, least, conn, succ = [], [], None, {}

        def declare(names):
            """A new column for each of names not declared yet, in order."""
            for v in names:
                if v not in col:
                    col[v] = len(col)
                    signs.append([])
                    sources.append(set())

        for atom in system.atoms:
            kind, coeffs, const = atom
            if kind == "conn":
                if conn is not None:
                    raise ValueError("solve takes at most one connectivity"
                                     " atom")
                declare(v for v, _, _ in const)
                conn = coeffs, [(col[v], s, d) for v, s, d in const]
                for j, src, dst in conn[1]:
                    succ.setdefault(src, []).append((j, dst))
                    sources[j].add(src)
                continue
            if not col.keys() >= coeffs.keys():
                declare(coeffs)
            if kind == "eq" and const == 0:
                r, row = len(cone), {col[v]: c for v, c in coeffs.items() if c}
                for j, c in row.items():
                    signs[j].append((r, c > 0))
                cone.append(row)
            elif kind == "le" and const == -1 and \
                    all(c <= 0 for c in coeffs.values()):
                least.append({col[v] for v, c in coeffs.items() if c})
            else:
                raise ValueError("solve takes '= 0' rows and '>= 1' rows over"
                                 f" non-negative coefficients, not {atom!r}")
        self.cone, self.least, self.conn, self.succ = cone, least, conn, succ
        self.signs, self.sources = signs, sources
        self.variables, self.n = tuple(col), len(col)
        self.root = self.conn[0] if self.conn else None
        self.supports, self.points = {}, {}


def _distances(ix, cols):
    """The distance from the root of each node that the root reaches along
    the connectivity edges of the columns cols."""
    return dict(graph.bfs(ix.root, lambda node: (
        dst for j, dst in ix.succ.get(node, ()) if j in cols)))


def _reached(ix, cols):
    """The columns of cols whose connectivity edges all leave nodes that the
    root reaches along edges of cols."""
    dist = _distances(ix, cols)
    return {j for j in cols if dist.keys() >= ix.sources[j]}


def _prune(ix, alive):
    """The columns of alive that can be positive in a model, as far as
    single rows and connectivity tell.  A row whose coefficients on alive
    all have one sign sums to 0 only with those columns at 0, so it is its
    own Goldman-Tucker certificate; a column whose connectivity edge leaves
    a node the root cannot reach along alive edges is 0 too.  Both rules
    are monotone, so the largest set they keep is unique.  A worklist finds
    it: rows count their live columns by sign, a drop updates only its
    rows, and connectivity is searched whenever no row is left to drop."""
    alive, live = set(alive), [[0, 0] for _ in ix.cone]   # per row: -, +
    for j in alive:
        for r, positive in ix.signs[j]:
            live[r][positive] += 1
    todo = [r for r, (neg, pos) in enumerate(live) if (neg == 0) != (pos == 0)]
    while todo or (cut := alive - _reached(ix, alive)):
        for j in (ix.cone[todo.pop()].keys() if todo else cut) & alive:
            alive.discard(j)
            for r, positive in ix.signs[j]:
                live[r][positive] -= 1
                if not live[r][positive] and live[r][not positive]:
                    todo.append(r)
    return alive


def _balls(ix, alive):
    """Growing sets of columns around the root, the last one alive: for
    each distance d, the columns whose connectivity edges all leave nodes
    at most d from the root.  Each is made when a breadth-first search
    from the root has passed distance d, so the first ones need only the
    nodes near the root.  alive must be _prune's."""
    waiting = {j: len(ix.sources[j]) for j in alive}
    ball, shell, level = set(), [j for j, k in waiting.items() if not k], 0
    for node, d in graph.bfs(ix.root, lambda node: [
            dst for j, dst in ix.succ.get(node, ()) if j in alive]):
        if d > level and shell:
            ball.update(shell)
            shell = []
            yield set(ball)
        level = d
        for j in {j for j, _ in ix.succ.get(node, ()) if j in alive}:
            waiting[j] -= 1
            if not waiting[j]:
                shell.append(j)
    if shell:
        ball.update(shell)
        yield ball


def _definitions(cone, cols):
    """The "= 0" rows of cone on the columns cols, with each column x_v
    that one of them defines as a sum of other columns, x_v = sum c_j x_j
    with integers c_j >= 0, substituted out in one pass over the rows;
    such an x_v is >= 0 by itself.  Returns the rows left, as dicts over
    the columns not defined, and the definitions, each v -> {j: c_j}."""
    rows = [{j: c for j, c in row.items() if j in cols} for row in cone]
    defs = {}
    for row in rows:
        v = next((v for v, s in row.items() if s in (1, -1) and all(
            c * s < 0 for j, c in row.items() if j != v)), None)
        if v is None:
            continue
        sub = {j: -c * row[v] for j, c in row.items() if j != v}
        row.clear()
        for other in [*defs.values(), *rows]:
            c = other.pop(v, 0)
            for j, d in sub.items() if c else ():
                other[j] = other.get(j, 0) + c * d
                if not other[j]:
                    del other[j]
        defs[v] = sub
    return [row for row in rows if row], defs


def _cone_point(ix, cols, largest, cuts=()):
    """A point x of the cone {x >= 0 : cone rows = 0} that is 0 off the
    columns cols, as integers, or None: linprog's optimum on the free
    columns times the lcm of their denominators, and the columns a row
    defines (_definitions) read back as integer sums.  A support's
    definitions, free columns and LP rows are made once per index from the
    cone rows its columns are in, and so is each point: no LP is solved
    twice on one index.

    largest: x = t + s, and maximise the sum of t subject to t <= 1.  The
    cone is closed under scaling, so the optimum has t_j = 1 exactly on the
    columns that some point uses: its support is the largest.  Otherwise
    minimise the sum of x subject to every "at least one" row and every cut
    (a column set) summing to >= 1: a short point that meets those rows,
    whose support need not be connected.  A point that fails the check in
    integers raises InternalError; the check reads only the cone rows of
    the columns cols, since every other row is 0 at a point that is 0 off
    them.
    """
    point = (key := frozenset(cols), largest, tuple(map(frozenset, cuts)))
    if point in ix.points:
        return ix.points[point]
    if key not in ix.supports:
        met = sorted({r for j in cols for r, _ in ix.signs[j]})
        rows, defs = _definitions([ix.cone[r] for r in met], cols)
        free = sorted(cols - defs.keys())
        pos = {j: k for k, j in enumerate(free)}
        ix.supports[key] = defs, free, pos, [
            {pos[j]: c for j, c in row.items()} for row in rows], met
    defs, free, pos, rows, met = ix.supports[key]
    m = len(free)

    def total(group):
        """The sum of the columns of group, over the free columns."""
        coeffs = [0] * m
        for j in group:
            for i, c in defs.get(j, {j: 1}).items():
                coeffs[pos[i]] += c
        return coeffs

    if largest:
        lp = linprog([-1] * m + [0] * m,
                     [({**row, **{m + k: c for k, c in row.items()}}, 0)
                      for row in rows], [1] * m + [None] * m)
    else:
        groups = [row & cols for row in ix.least] + list(cuts)
        lp = linprog(total(cols) + [0] * len(groups),
                     [(row, 0) for row in rows] +
                     [({**dict(enumerate(total(group))), m + i: -1}, 1)
                      for i, group in enumerate(groups)],
                     [None] * (m + len(groups)))
    if lp is None:
        ix.points[point] = None
        return None
    values = [lp[k] + lp[m + k] for k in range(m)] if largest else lp[:m]
    scale = math.lcm(*(f.denominator for f in values))
    x = [0] * ix.n
    for j, f in zip(free, values):
        x[j] = f.numerator * (scale // f.denominator)
    for v, sub in defs.items():
        x[v] = sum(c * x[j] for j, c in sub.items())
    if any(x[j] < 0 for j in cols) or any(
            sum(c * x[j] for j, c in ix.cone[r].items()) for r in met) or \
            not largest and not all(any(x[j] for j in row)
                                    for row in ix.least):
        raise InternalError("linprog returned a point off the cone")
    ix.points[point] = x
    return x


def _shrink(ix, x):
    """A model inside the support of the model x with a small sum and a
    connected support: the shortest point of that support that meets the
    "at least one" rows, with a cut for each earlier point whose support
    was not connected.  A cut says that some edge of the support enters
    the nodes that point strands; x meets every such cut, since its support
    reaches all of them, so every LP has a point.  Each point is solved
    with all its cuts (_cone_point).  After SHRINK_CUTS cuts, x itself."""
    support = {j for j in range(ix.n) if x[j]}
    cuts = []
    while len(cuts) <= SHRINK_CUTS:
        y = _cone_point(ix, support, False, cuts)
        if y is None:
            break
        used = {j for j in support if y[j]}
        dist = _distances(ix, used)
        stranded = {node for j, src, dst in ix.conn[1] if j in used
                    for node in (src, dst) if node not in dist}
        if not stranded:
            return y
        cuts.append({j for j, src, dst in ix.conn[1] if j in support
                     and dst in stranded and src not in stranded})
    return x


def _fixpoint(ix, alive):
    """The largest support that a model on alive, a set that _prune keeps,
    can have, found by repeating one largest point of the columns left and
    _prune until nothing changes: the fixpoint's point as integers, or None
    if it misses an "at least one" row."""
    while all(row & alive for row in ix.least):
        x = _cone_point(ix, alive, True)
        support = {j for j in alive if x[j]}
        if support == alive:
            return x
        alive = _prune(ix, support)
    return None


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
    {x >= 0 : "= 0" rows} on the columns left, found by one exact LP.  A
    model exists exactly when the fixpoint meets every "at least one" row,
    and then the fixpoint's point is one.

    That point uses every column it can, and witnesses should be short.
    So balls of columns around the root are tried first, smallest first
    (_balls, made as they are reached): in each, the shortest point that
    meets every "at least one" row is a model if its support is connected;
    if not, the ball's fixpoint is tried, and a model it gives is shortened
    (_shrink).  The last ball holds every column, and its fixpoint
    decides.  All steps share one index of the system (_Index), made in
    one pass over its atoms; one _prune of every column comes first, and
    most systems without a model end there.
    """
    ix = _Index(system)
    alive = _prune(ix, set(range(ix.n)))
    if not all(row & alive for row in ix.least):
        return None
    if not ix.least:
        return dict.fromkeys(ix.variables, 0)
    for ball in _balls(ix, alive):
        ball = _prune(ix, ball) if len(ball) < len(alive) else alive
        if not all(row & ball for row in ix.least):
            continue
        x = _cone_point(ix, ball, False)
        if x is not None:
            support = {j for j in ball if x[j]}
            if _reached(ix, support) == support:
                return dict(zip(ix.variables, x))
        if x is not None or ball == alive:
            x = _fixpoint(ix, ball)
            if x is not None:
                if ix.conn is not None:
                    x = _shrink(ix, x)
                return dict(zip(ix.variables, x))
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
