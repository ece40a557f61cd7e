"""The integer solver that decided Parikh systems before the max-support
fixpoint (parikh.solve), kept as a test oracle.

It finds natural-number models of any system of integer-linear rows and
connectivity atoms, not only the homogeneous ones parikh.solve decides, so
the encoding tests that pin letters to constants use it too.  HiGHS MILP
proposes a model, which is checked exactly; otherwise bounds propagation and
branch and bound, pruned by an LP relaxation whose infeasibility is
certified exactly, search for one.  The exact fallback of that relaxation,
_lp_feasible_exact, is a dense Fraction simplex of its own, so the oracle
shares no LP code with parikh.linprog.  Connectivity is enforced by cuts: a model
whose support strands a set of nodes is cut away by "some edge enters the
set" or "the set is unused".  The search raises BudgetExceeded past
node_budget nodes instead of guessing.

prune and point are the bookkeeping of parikh.solve before it indexed
each system once and built its points in integers, kept to check that
neither changes anything.
"""

import functools
import math
from fractions import Fraction

import numpy
from scipy.optimize import Bounds, LinearConstraint, linprog, milp
from scipy.sparse import csr_array

from paramck import parikh
from paramck.machines import BudgetExceeded
from paramck.parikh import eq, ge

SOLVE_BUDGET = 500_000


def _matrix(rows, n):
    """The coefficients of rows, each (coeffs, const) with coeffs a dict
    from column index to a nonzero coefficient, as a sparse float matrix
    with n columns."""
    data, indices, indptr = [], [], [0]
    for coeffs, _ in rows:
        indices.extend(coeffs)
        data.extend(coeffs.values())
        indptr.append(len(indices))
    return csr_array((numpy.array(data, dtype=float), indices, indptr),
                     shape=(len(rows), n))


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


def _farkas_infeasible(rows, n):
    """Try to certify infeasibility of {Ax <= b, x >= 0} exactly.

    rows: list of (coeffs, const), coeffs a dict from column index to a
    nonzero coefficient; n is the number of columns.  Solves
    min b'y subject to A'y >= 0, 0 <= y <= 1 in floats; a negative optimum
    suggests a Farkas certificate y, which is rationalized and then verified
    in exact integer arithmetic over its support: only the rows with y_i > 0
    and their nonzero coefficients enter the sums.  Returns True only on a
    verified certificate, so a True answer is trustworthy; False just means
    no certificate was found this way.
    """
    b = numpy.array([float(const) for _, const in rows])
    res = linprog(c=b, A_ub=-_matrix(rows, n).T, b_ub=numpy.zeros(n),
                  bounds=(0, 1), method="highs")
    if res.status != 0 or res.x is None or res.fun > -1e-9:
        return False
    support = [(i, Fraction(v)) for i, v in enumerate(res.x) if v]
    for denom in (1, 16, 1024, 10 ** 6):
        y = [(i, f.limit_denominator(denom)) for i, f in support]
        y = [(i, f) for i, f in y if f]
        if any(f < 0 for _, f in y):
            continue
        # y scaled by the common denominator of its entries: the signs of
        # y'A and y'b are unchanged and the sums stay in integers
        scale = math.lcm(*(f.denominator for _, f in y))
        combo = {}
        rhs = 0
        for i, f in y:
            w = f.numerator * (scale // f.denominator)
            coeffs, const = rows[i]
            rhs += w * const
            for j, c in coeffs.items():
                combo[j] = combo.get(j, 0) + w * c
        if rhs < 0 and all(c >= 0 for c in combo.values()):
            return True
    return False


def _lp_feasible(rows, n):
    """Feasibility of {Ax <= b, x >= 0} over the rationals, exactly.

    A float LP answers first: a feasible answer is accepted as-is (wrongly
    accepting feasibility only costs pruning, never correctness), an
    infeasible answer must be backed by an exact Farkas certificate or
    confirmed by the exact simplex."""
    if all(const >= 0 for _, const in rows):
        return True
    b = numpy.array([float(const) for _, const in rows])
    res = linprog(c=numpy.zeros(n), A_ub=_matrix(rows, n), b_ub=b,
                  bounds=(0, None), method="highs")
    if res.status == 0:
        return True
    if res.status == 2 and _farkas_infeasible(rows, n):
        return False
    return _lp_feasible_exact(rows, n) is not None


def _value_cap(n_vars, atoms):
    a = 2
    for _, coeffs, const in atoms:
        for c in coeffs.values():
            a = max(a, abs(c))
        a = max(a, abs(const))
    m = len(atoms)
    return (a * (m + n_vars + 2)) ** (2 * min(m + n_vars, 12) + 1)


class _Budget:
    def __init__(self, nodes):
        self.left = nodes

    def tick(self):
        self.left -= 1
        if self.left < 0:
            raise BudgetExceeded("solver node budget exhausted")


def _propagate(atoms, lb, ub):
    """Interval tightening to (bounded-round) fixpoint; False on conflict."""
    for _ in range(50):
        changed = False
        for kind, coeffs, const in atoms:
            forms = [(coeffs, const)]
            if kind == "eq":
                forms.append(({v: -c for v, c in coeffs.items()}, -const))
            for cs, b in forms:
                # sum cs*x <= b
                lo = 0
                unbounded = []
                for v, c in cs.items():
                    if c > 0:
                        lo += c * lb[v]
                    elif ub[v] is None:
                        unbounded.append(v)
                    else:
                        lo += c * ub[v]
                if not unbounded and lo > b:
                    return False
                for v, c in cs.items():
                    if c > 0:
                        if unbounded:
                            continue   # some other term has no lower bound
                        rest = lo - c * lb[v]
                        new_ub = (b - rest) // c
                        if new_ub < lb[v]:
                            return False
                        if ub[v] is None or new_ub < ub[v]:
                            ub[v] = new_ub
                            changed = True
                    elif c < 0:
                        if unbounded != [v] and unbounded:
                            continue
                        rest = lo if v in unbounded else lo - c * ub[v]
                        # c*x <= b - rest with c < 0 gives x >= (rest-b)/(-c)
                        new_lb = (rest - b + (-c) - 1) // (-c)
                        if new_lb > lb[v]:
                            if ub[v] is not None and new_lb > ub[v]:
                                return False
                            lb[v] = new_lb
                            changed = True
        if not changed:
            return True
    return True


def _check_all(atoms, model):
    for kind, coeffs, const in atoms:
        s = sum(c * model[v] for v, c in coeffs.items())
        if kind == "eq" and s != const:
            return False
        if kind == "le" and s > const:
            return False
    return True


def _milp_model(variables, atoms, rows, lb, ub):
    """Ask HiGHS for an integer model.  rows holds each atom as (coeffs,
    const), coeffs by column index as _lp_feasible takes them.  A returned
    model is checked exactly by the caller; None only means HiGHS found
    nothing, never a trusted UNSAT."""
    n = len(variables)
    hi = [float(const) for _, _, const in atoms]
    lo = [h if kind == "eq" else -numpy.inf
          for (kind, _, _), h in zip(atoms, hi)]
    lower = [float(lb[v]) for v in variables]
    upper = [numpy.inf if ub[v] is None else float(ub[v]) for v in variables]
    try:
        res = milp(c=numpy.zeros(n),
                   constraints=LinearConstraint(_matrix(rows, n),
                                                numpy.array(lo),
                                                numpy.array(hi)),
                   bounds=Bounds(numpy.array(lower), numpy.array(upper)),
                   integrality=numpy.ones(n))
    except ValueError:
        return None
    if res.status != 0 or res.x is None:
        return None
    return {v: int(round(x)) for v, x in zip(variables, res.x)}


def _solve_conjunction(variables, atoms, budget):
    """An integer model of the linear rows in atoms, or None if none exists."""
    variables = list(variables)
    for _, coeffs, _ in atoms:
        for v in coeffs:
            if v not in variables:
                variables.append(v)   # mentioned but undeclared: fresh natural
    if not variables:
        return {} if _check_all(atoms, {}) else None
    lb = {v: 0 for v in variables}
    ub = {v: None for v in variables}
    vi = {v: i for i, v in enumerate(variables)}
    # each atom as (coeffs, const), coeffs a dict from column index to
    # nonzero coefficient; the LP takes an equation as two inequalities
    atom_rows = [({vi[v]: c for v, c in coeffs.items() if c}, const)
                 for _, coeffs, const in atoms]
    lp_rows = []
    for (kind, _, _), (coeffs, const) in zip(atoms, atom_rows):
        lp_rows.append((coeffs, const))
        if kind == "eq":
            lp_rows.append(({j: -c for j, c in coeffs.items()}, -const))
    # only a branch on a variable without an upper bound needs the cap
    cap = functools.cache(lambda: _value_cap(len(variables), atoms))

    budget.tick()
    first = {v: 0 for v in variables}
    if not _propagate(atoms, dict(lb), dict(ub)):
        return None
    if atoms:
        model = _milp_model(variables, atoms, atom_rows, lb, ub)
        if model is not None and _check_all(atoms, model):
            return model
        # fall through to the exact search: a missing HiGHS model is not a
        # trusted unsatisfiability verdict
    elif _check_all(atoms, first):
        return first

    def lp_ok(lb, ub):
        rows = list(lp_rows)
        for v in variables:
            if lb[v] > 0:
                rows.append(({vi[v]: -1}, -lb[v]))
            if ub[v] is not None:
                rows.append(({vi[v]: 1}, ub[v]))
        return _lp_feasible(rows, len(variables))

    def search(lb, ub):
        budget.tick()
        lb, ub = dict(lb), dict(ub)
        if not _propagate(atoms, lb, ub):
            return None
        free = [v for v in variables if ub[v] is None or lb[v] < ub[v]]
        if not free:
            model = {v: lb[v] for v in variables}
            return model if _check_all(atoms, model) else None
        if not lp_ok(lb, ub):
            return None
        v = free[0]
        hi = ub[v] if ub[v] is not None else cap()
        val = lb[v]
        while val <= hi:
            budget.tick()
            lb2, ub2 = dict(lb), dict(ub)
            lb2[v] = ub2[v] = val
            res = search(lb2, ub2)
            if res is not None:
                return res
            # before trying the next value, ask propagation and the LP whether
            # any larger value can work at all
            lb2, ub2 = dict(lb), dict(ub)
            lb2[v] = val + 1
            if not _propagate(atoms, lb2, ub2):
                return None
            if not lp_ok(lb2, ub2):
                return None
            lb, ub = lb2, ub2
            val = max(val + 1, lb[v])
            hi = cap() if ub[v] is None else ub[v]
        return None

    return search(lb, ub)


def _conn_cut(node, model):
    """Check a connectivity atom against a model.

    Returns None when satisfied.  Otherwise returns the options of a cut,
    each a list of rows, such that every model of the atom satisfies one of
    them while the current model satisfies none: either some edge enters
    the stranded node set from outside, or the stranded set is not used at
    all.  With no edge that could enter, only the second option is left.
    """
    _, root, edges = node
    present = [(v, s, d) for v, s, d in edges if model.get(v, 0) > 0]
    used = set()
    adj = {}
    for v, s, d in present:
        used.add(s)
        used.add(d)
        adj.setdefault(s, []).append(d)
    reach = {root}
    stack = [root]
    while stack:
        for d in adj.get(stack.pop(), ()):
            if d not in reach:
                reach.add(d)
                stack.append(d)
    bad = used - reach
    if not bad:
        return None
    crossing = sorted({v for v, s, d in edges if d in bad and s not in bad})
    incident = sorted({v for v, s, d in edges if s in bad or d in bad})
    options = [[ge({v: 1 for v in crossing}, 1)]] if crossing else []
    options.append([eq({v: 1}, 0) for v in incident])
    return options


def solve(system, node_budget=SOLVE_BUDGET):
    """Find a natural-number model of the system, or None if there is none.

    The linear rows are solved first, and a connectivity atom the model
    violates adds a cut: each of its options is tried in turn, with its rows
    appended to the rows solved so far.  Deterministic: cut options are
    tried in order and values smallest-first, so the returned model is the
    first one of a fixed depth-first search.  Raises BudgetExceeded instead
    of returning a wrong verdict when out of budget.
    """
    budget = _Budget(node_budget)
    rows = [a for a in system.atoms if a[0] != "conn"]
    conns = [a for a in system.atoms if a[0] == "conn"]
    todo = [rows]
    while todo:
        rows = todo.pop()
        model = _solve_conjunction(system.variables, rows, budget)
        if model is None:
            continue
        cut = next(filter(None, (_conn_cut(c, model) for c in conns)), None)
        if cut is None:
            return model
        todo += [rows + option for option in reversed(cut)]
    return None


# ---------------------------------------------------------------------------
# the bookkeeping of parikh.solve before it indexed each system once: a
# pruning loop that rescans every row in every round, and points built in
# Fractions and scaled afterwards

def prune(cone, conn, alive):
    """parikh._prune by rescanning: the columns of alive that connectivity
    keeps (each connectivity edge of the column leaves a node that the root
    reaches along alive edges) and that no row drops (a row drops its
    columns when its coefficients on the kept ones all have one sign),
    repeated until nothing changes.  cone: rows as dicts from column to a
    nonzero coefficient; conn: (root, [(column, src, dst)]) or None."""
    while True:
        kept = alive
        if conn is not None:
            root, edges = conn
            succ = {}
            for j, src, dst in edges:
                if j in alive:
                    succ.setdefault(src, []).append(dst)
            reach, todo = {root}, [root]
            while todo:
                for dst in succ.get(todo.pop(), ()):
                    if dst not in reach:
                        reach.add(dst)
                        todo.append(dst)
            kept = alive - {j for j, src, _ in edges if src not in reach}
        for row in cone:
            if len({c > 0 for j, c in row.items() if j in kept}) == 1:
                kept = kept - row.keys()
        if kept == alive:
            return alive
        alive = kept


def point(cone, n, cols, largest, lp):
    """parikh._cone_point's point from linprog's optimum lp on the support
    cols, built in Fractions: each free column's value (t + s when
    largest), each column a row defines as its sum (parikh._definitions),
    and all of them scaled by the lcm of their denominators."""
    defs = parikh._definitions(cone, cols)[1]
    free = sorted(cols - defs.keys())
    m = len(free)
    values = {j: lp[k] + lp[m + k] if largest else lp[k]
              for k, j in enumerate(free)}
    for v, sub in defs.items():
        values[v] = sum(c * values[j] for j, c in sub.items())
    scale = math.lcm(*(f.denominator for f in values.values()))
    return [int(values.get(j, 0) * scale) for j in range(n)]
