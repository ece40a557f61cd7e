import itertools
import random
from fractions import Fraction

import numpy
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

import integer_oracle
from paramck import parikh
from paramck.parikh import (FALSE, Fsa, Grammar, LinearSystem, eq, ge, le,
                            letter_var, euler_witness, parikh_cfg, parikh_fsa,
                            reduce_grammar, shortest_derivations, solve)
from fixtures import satisfies


# ---------------------------------------------------------------------------
# enumeration oracles

def fsa_vectors(fsa, alphabet, max_len):
    """Letter-count vectors over alphabet of the words of length at most
    max_len from the initial to the final state, by dynamic programming
    over (state, count vector), one letter at a time."""
    def bump(vec, lab):
        return tuple(n + (a == lab) for n, a in zip(vec, alphabet))

    out = set()
    layer = {(fsa.initial, (0,) * len(alphabet))}
    for length in range(max_len + 1):
        out |= {vec for state, vec in layer if state == fsa.final}
        if length < max_len:
            layer = {(dst, bump(vec, lab)) for state, vec in layer
                     for src, lab, dst in fsa.edges if src == state}
    return out


def cfg_vectors(g, max_sum):
    """Terminal-count vectors of derivable words with at most max_sum
    terminals, by a least fixpoint over (nonterminal, count vector)."""
    terms = g.terminals
    unit = {t: tuple(int(t == u) for u in terms) for t in terms}
    vecs = {n: set() for n in g.nonterminals}
    changed = True
    while changed:
        changed = False
        for lhs, rhs in g.productions:
            sums = {(0,) * len(terms)}
            for sym in rhs:
                parts = vecs[sym] if sym in vecs else {unit[sym]}
                sums = {tuple(x + y for x, y in zip(s, p))
                        for s in sums for p in parts
                        if sum(s) + sum(p) <= max_sum}
            if not sums <= vecs[lhs]:
                vecs[lhs] |= sums
                changed = True
    return vecs[g.start]


def characterized_vectors(system, alphabet, max_sum):
    """The letter vectors of the system with at most max_sum letters, one
    integer-oracle solve per vector: pinning a letter to a constant takes
    the system out of the class parikh.solve decides."""
    out = set()
    for cand in itertools.product(range(max_sum + 1), repeat=len(alphabet)):
        if sum(cand) > max_sum:
            continue
        pinned = system.conjoin(
            [eq({letter_var(a): 1}, c) for a, c in zip(alphabet, cand)])
        if integer_oracle.solve(pinned) is not None:
            out.add(cand)
    return out


def random_fsa(rng, max_states=5):
    states = tuple(range(rng.randint(1, max_states)))
    alphabet = ("a", "b")[:rng.randint(1, 2)]
    edges = tuple((rng.choice(states), rng.choice(alphabet),
                   rng.choice(states))
                  for _ in range(rng.randint(1, 8)))
    return Fsa(states, edges, rng.choice(states), rng.choice(states)), alphabet


def random_cfg(rng, max_nts=5):
    nts = tuple(f"N{i}" for i in range(rng.randint(1, max_nts)))
    terms = ("a", "b")[:rng.randint(1, 2)]
    prods = []
    for _ in range(rng.randint(1, 6)):
        rhs = tuple(rng.choice(nts + terms)
                    for _ in range(rng.randint(0, 3)))
        prods.append((rng.choice(nts), rhs))
    return Grammar(nts, terms, nts[0], tuple(prods))


# ---------------------------------------------------------------------------
# encodings

def test_fsa_encoding_matches_enumeration_sample():
    rng = random.Random(20)
    for _ in range(25):
        fsa, alphabet = random_fsa(rng)
        truth = fsa_vectors(fsa, alphabet, 6)
        system = parikh_fsa(fsa, alphabet=alphabet)
        assert characterized_vectors(system, alphabet, 6) == truth


def test_cfg_encoding_matches_enumeration_sample():
    rng = random.Random(21)
    for _ in range(25):
        g = random_cfg(rng)
        truth = cfg_vectors(g, 6)
        system = parikh_cfg(g)
        assert characterized_vectors(system, g.terminals, 6) == truth


@pytest.mark.parametrize("fsa", [
    # self-loop on the initial (and final) state
    Fsa((0, 1), ((0, "a", 0), (0, "b", 1), (1, "a", 0)), 0, 0),
    # self-loop on a state that is neither initial nor final
    Fsa((0, 1, 2), ((0, "a", 1), (1, "b", 1), (1, "a", 2), (2, "b", 0)),
        0, 0),
    # initial != final, self-loops on both and on a third state
    Fsa((0, 1, 2), ((0, "a", 0), (0, "b", 1), (1, "a", 2), (2, "b", 2),
                    (2, "a", 1), (1, "b", 1)), 0, 1),
    # initial != final with no edge between them
    Fsa((0, 1), ((0, "a", 0), (1, "b", 1)), 0, 1),
], ids=["initial-loop", "inner-loop", "initial-ne-final", "unreachable"])
def test_fsa_encoding_edge_cases(fsa):
    alphabet = ("a", "b")
    system = parikh_fsa(fsa, alphabet=alphabet)
    assert characterized_vectors(system, alphabet, 6) == \
        fsa_vectors(fsa, alphabet, 6)
    # one flow row per state, in state order; a self-loop keeps its zero
    # coefficient there
    flow = system.atoms[:len(fsa.states)]
    for s, (kind, coeffs, const) in zip(fsa.states, flow):
        assert kind == "eq"
        assert const == (s == fsa.final) - (s == fsa.initial)
        assert coeffs == {f"e{i}": (dst == s) - (src == s)
                          for i, (src, _, dst) in enumerate(fsa.edges)
                          if s in (src, dst)}
        assert list(coeffs) == sorted(coeffs, key=lambda v: int(v[1:]))


def test_absent_letters_forced_to_zero():
    fsa = Fsa((0,), ((0, "a", 0),), 0, 0)
    system = parikh_fsa(fsa, alphabet=("a", "b"))
    assert solve(system.conjoin([ge({letter_var("b"): 1}, 1)])) is None
    assert solve(system.conjoin([ge({letter_var("a"): 1}, 1)])) is not None


def test_disconnected_flow_rejected():
    # two disjoint self-loops; a circulation on the far one alone is flow
    # balanced but does not describe a word
    fsa = Fsa((0, 1), ((0, "a", 0), (1, "b", 1)), 0, 0)
    system = parikh_fsa(fsa)
    assert solve(system.conjoin([ge({letter_var("b"): 1}, 1)])) is None
    model = solve(system.conjoin([ge({letter_var("a"): 1}, 1)]))
    assert model["e0"] >= 1 and model["e1"] == 0


def test_reduce_grammar_removes_junk_and_is_idempotent():
    g = Grammar(("S", "U", "D"), ("a",), "S",
                (("S", ("a",)), ("U", ("U",)), ("D", ("a",))))
    r = reduce_grammar(g)
    assert r.nonterminals == ("S",)
    assert r.productions == (("S", ("a",)),)
    assert reduce_grammar(r) == r


def naive_reduce_grammar(g):
    """reduce_grammar by naive fixpoints that rescan every production."""
    productive = set()
    changed = True
    while changed:
        changed = False
        for lhs, rhs in g.productions:
            if lhs in productive:
                continue
            if all(sym in productive or sym in g.terminals for sym in rhs):
                productive.add(lhs)
                changed = True
    prods = [(lhs, rhs) for lhs, rhs in g.productions
             if lhs in productive
             and all(s in productive or s in g.terminals for s in rhs)]
    reachable = {g.start}
    changed = True
    while changed:
        changed = False
        for lhs, rhs in prods:
            if lhs in reachable:
                for sym in rhs:
                    if sym not in g.terminals and sym not in reachable:
                        reachable.add(sym)
                        changed = True
    prods = tuple((lhs, rhs) for lhs, rhs in prods if lhs in reachable)
    nts = tuple(nt for nt in g.nonterminals
                if nt in reachable and nt in productive)
    return Grammar(nts, g.terminals, g.start, prods)


def naive_parikh_cfg(g):
    """parikh_cfg with one pass over the productions per symbol."""
    g = naive_reduce_grammar(g)
    if g.start not in g.nonterminals:
        return LinearSystem((), (FALSE,))
    variables = tuple([letter_var(t) for t in g.terminals]
                      + [f"y{i}" for i in range(len(g.productions))])
    atoms = []
    for nt in g.nonterminals:
        coeffs = {}
        for i, (lhs, rhs) in enumerate(g.productions):
            c = (1 if lhs == nt else 0) - sum(1 for s in rhs if s == nt)
            if c:
                coeffs[f"y{i}"] = c
        atoms.append(eq(coeffs, 1 if nt == g.start else 0))
    for t in g.terminals:
        coeffs = {letter_var(t): 1}
        for i, (_, rhs) in enumerate(g.productions):
            c = sum(1 for s in rhs if s == t)
            if c:
                coeffs[f"y{i}"] = -c
        atoms.append(eq(coeffs, 0))
    conn_edges = []
    for i, (lhs, rhs) in enumerate(g.productions):
        conn_edges.append((f"y{i}", lhs, lhs))
        for nt in dict.fromkeys(s for s in rhs if s not in g.terminals):
            conn_edges.append((f"y{i}", lhs, nt))
    atoms.append(parikh.connected(g.start, conn_edges))
    return LinearSystem(variables, tuple(atoms))


def odd_cfg(rng):
    """A random grammar that may also use undeclared symbols, a terminal on
    a left-hand side, a nonterminal that is also a terminal, or an
    undeclared start symbol."""
    nts = tuple(f"N{i}" for i in range(rng.randint(1, 6)))
    terms = ("a", "b", "N0")[:rng.randint(1, 3)]
    prods = []
    for _ in range(rng.randint(1, 12)):
        rhs = tuple(rng.choice(nts + terms + ("X",))
                    for _ in range(rng.randint(0, 4)))
        prods.append((rng.choice(nts + ("a",)), rhs))
    return Grammar(nts, terms, rng.choice(nts + ("Z",)), tuple(prods))


def test_grammar_passes_agree_with_naive_fixpoints():
    rng = random.Random(22)
    for i in range(3000):
        g = random_cfg(rng, max_nts=6) if i % 2 else odd_cfg(rng)
        assert reduce_grammar(g) == naive_reduce_grammar(g)
        # same atoms, same order, same coefficient key order
        assert repr(parikh_cfg(g)) == repr(naive_parikh_cfg(g))


def naive_shortest_derivations(g):
    """The shortest length of each productive symbol and the weight of each
    production, by rounds that rescan every production until no length
    drops."""
    length = {}
    changed = True
    while changed:
        changed = False
        for lhs, rhs in g.productions:
            if all(s in g.terminals or s in length for s in rhs):
                n = sum(1 if s in g.terminals else length[s] for s in rhs)
                if n < length.get(lhs, n + 1):
                    length[lhs] = n
                    changed = True
    weight = [sum(1 if s in g.terminals else length[s] for s in rhs)
              if all(s in g.terminals or s in length for s in rhs) else None
              for _, rhs in g.productions]
    return length, weight


def test_shortest_derivations_agree_with_naive_rounds():
    rng = random.Random(23)
    for i in range(3000):
        g = random_cfg(rng, max_nts=6) if i % 2 else odd_cfg(rng)
        length, best, weight = shortest_derivations(g.productions,
                                                    g.terminals)
        assert (length, weight) == naive_shortest_derivations(g)
        assert best.keys() == length.keys()
        for sym, n in length.items():
            assert g.productions[best[sym]][0] == sym
            assert weight[best[sym]] == n
            # expanding by the lightest productions ends, in a word of
            # the shortest length
            word, todo = [], list(reversed(g.productions[best[sym]][1]))
            while todo:
                s = todo.pop()
                if s in g.terminals:
                    word.append(s)
                else:
                    todo.extend(reversed(g.productions[best[s]][1]))
            assert len(word) == n


def test_unproductive_start_gives_false():
    g = Grammar(("S",), ("a",), "S", (("S", ("S", "a")),))
    assert parikh_cfg(g).atoms == (FALSE,)


# ---------------------------------------------------------------------------
# solver

def brute_force(variables, atoms, bound=6):
    for vals in itertools.product(range(bound + 1), repeat=len(variables)):
        model = dict(zip(variables, vals))
        if satisfies(atoms, model):
            return model
    return None


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_solver_agrees_with_brute_force(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    variables = ("u", "v", "w")[:rng.randint(1, 3)]
    atoms = []
    for _ in range(rng.randint(1, 4)):
        coeffs = {v: rng.randint(-3, 3) for v in variables}
        const = rng.randint(-6, 10)
        atoms.append((rng.choice([eq, le, ge]))(coeffs, const))
    # keep the search space finite so the brute force oracle terminates
    atoms.append(le({v: 1 for v in variables}, 6))
    got = integer_oracle.solve(LinearSystem(variables, tuple(atoms)))
    want = brute_force(variables, atoms)
    assert (got is None) == (want is None)
    if got is not None:
        assert satisfies(atoms, got)


def random_cone(rng):
    """A random system of the class parikh.solve decides: "= 0" rows with
    coefficients of either sign, ">= 1" rows over positive ones, and half
    the time a connectivity atom with an edge per variable."""
    variables = tuple(f"v{i}" for i in range(rng.randint(1, 6)))
    atoms = [eq({v: c for v in variables
                 if (c := rng.choice([0, 0, -2, -1, 1, 2]))}, 0)
             for _ in range(rng.randint(0, 4))]
    atoms += [ge({v: rng.randint(1, 2)
                  for v in rng.sample(variables,
                                      rng.randint(1, len(variables)))}, 1)
              for _ in range(rng.randint(0, 2))]
    if rng.random() < 0.5:
        atoms.append(parikh.connected(0, [(v, rng.randrange(3),
                                           rng.randrange(3))
                                          for v in variables]))
    return LinearSystem(variables, tuple(atoms))


def test_solve_agrees_with_the_integer_oracle_on_random_cones():
    rng = random.Random(41)
    found = 0
    for _ in range(400):
        system = random_cone(rng)
        model = solve(system)
        assert (model is None) == (integer_oracle.solve(system) is None)
        if model is not None:
            found += 1
            assert satisfies(system.atoms, model)
    assert 80 < found < 320


@pytest.mark.parametrize("atom", [
    eq({"u": 1}, 1),
    le({"u": 1}, 0),
    ge({"u": 1}, 2),
    ge({"u": 1, "v": -1}, 1),
    parikh.connected(1, [("v", 1, 0)]),
], ids=["eq-1", "le-0", "ge-2", "ge-negative", "second-conn"])
def test_solve_rejects_systems_outside_its_class(atom):
    system = LinearSystem(("u", "v"), (
        eq({"u": 1, "v": -1}, 0), ge({"u": 1}, 1),
        parikh.connected(0, [("u", 0, 1), ("v", 1, 0)])))
    assert solve(system) is not None
    with pytest.raises(ValueError):
        solve(system.conjoin([atom]))


def test_fractional_multipliers_need_no_float_step(monkeypatch):
    # the second row makes a = b, and then the first makes d = 0.  Every
    # Goldman-Tucker certificate of d = 0 is a multiple of (3, 1), which a
    # float LP finds as (1, 1/3); the exact LP's largest point drops d by
    # itself, and every number it returns is a Fraction
    system = LinearSystem(("a", "b", "d"), (
        eq({"a": 1, "b": -1, "d": 1}, 0), eq({"a": -3, "b": 3}, 0),
        ge({"d": 1}, 1)))
    points = []

    def recording(*args):
        x = linprog(*args)
        points.append(x)
        return x

    linprog = parikh.linprog
    monkeypatch.setattr(parikh, "linprog", recording)
    assert solve(system) is None
    assert points and all(isinstance(v, Fraction)
                          for x in points if x is not None for v in x)
    ix = parikh._Index(system)
    x = parikh._cone_point(ix, {0, 1, 2}, True)
    assert x[0] == x[1] > 0 and x[2] == 0
    assert integer_oracle.solve(system) is None


# ---------------------------------------------------------------------------
# the integer oracle's LP layer

def dense_farkas_infeasible(rows, n):
    """Reference for the oracle's _farkas_infeasible: the same certificate LP on a
    dense matrix, checked with Fraction sums over every row and column."""
    dense = [[coeffs.get(j, 0) for j in range(n)] for coeffs, _ in rows]
    consts = [const for _, const in rows]
    a = numpy.array(dense, dtype=float)
    b = numpy.array(consts, dtype=float)
    res = linprog(c=b, A_ub=-a.T, b_ub=numpy.zeros(n), bounds=(0, 1),
                  method="highs")
    if res.status != 0 or res.x is None or res.fun > -1e-9:
        return False
    for denom in (1, 16, 1024, 10 ** 6):
        y = [Fraction(v).limit_denominator(denom) for v in res.x]
        if any(yi < 0 for yi in y):
            continue
        combo = [sum(yi * row[j] for yi, row in zip(y, dense))
                 for j in range(n)]
        rhs = sum(yi * b for yi, b in zip(y, consts))
        if all(c >= 0 for c in combo) and rhs < 0:
            return True
    return False


def random_lp(rng):
    """Rows of {Ax <= b, x >= 0} in the solver's sparse form: about half
    the coefficients zero, and constants of either sign."""
    n = rng.randint(1, 5)
    rows = []
    for _ in range(rng.randint(1, 7)):
        coeffs = {j: c for j in range(n)
                  if (c := rng.choice([0, 0, 0, -3, -2, -1, 1, 2, 3]))}
        rows.append((coeffs, rng.randint(-6, 6)))
    return rows, n


def test_lp_layer_agrees_with_exact_simplex_and_dense_oracle():
    rng = random.Random(31)
    certified = feasible = 0
    for _ in range(400):
        rows, n = random_lp(rng)
        point = integer_oracle._lp_feasible_exact(rows, n)
        exact = point is not None
        if exact:
            assert all(v >= 0 for v in point)
            assert all(sum(c * point[j] for j, c in coeffs.items()) <= const
                       for coeffs, const in rows)
        certificate = integer_oracle._farkas_infeasible(rows, n)
        assert certificate == dense_farkas_infeasible(rows, n)
        if certificate:
            assert not exact
        assert integer_oracle._lp_feasible(rows, n) == exact
        certified += certificate
        feasible += exact
    assert certified > 0 and 0 < feasible < 400


def test_farkas_certificate_with_fractional_multipliers():
    # x0 - x1 <= -1 and 2 x1 - x0 <= -1 sum, with y = (1, 1), to x1 <= -2;
    # with x1 >= 0 in the third row, y = (1, 1, 1) certifies infeasibility
    rows = [({0: 1, 1: -1}, -1), ({0: -1, 1: 2}, -1), ({1: -1}, 0)]
    assert integer_oracle._farkas_infeasible(rows, 2)
    assert dense_farkas_infeasible(rows, 2)
    assert integer_oracle._lp_feasible_exact(rows, 2) is None
    assert not integer_oracle._lp_feasible(rows, 2)


def test_infeasibility_without_a_small_certificate_falls_back_to_simplex():
    # x0 >= 1, x1 >= N x0 and x1 <= N - 1: the only certificates are
    # multiples of (N, 1, 1), so within y <= 1 two entries are 1/N, which
    # no denominator up to 10**6 approximates well enough
    big = 10 ** 7 + 19
    rows = [({0: -1}, -1), ({0: big, 1: -1}, 0), ({1: 1}, big - 1)]
    assert not integer_oracle._farkas_infeasible(rows, 2)
    assert not dense_farkas_infeasible(rows, 2)
    assert integer_oracle._lp_feasible_exact(rows, 2) is None
    assert not integer_oracle._lp_feasible(rows, 2)


def test_lp_without_rows_is_feasible():
    assert integer_oracle._lp_feasible([], 3)
    assert integer_oracle._lp_feasible_exact([], 3) == [0, 0, 0]


def test_solver_mentions_fresh_variables():
    system = LinearSystem((), (ge({"fresh": 1}, 1),))
    assert solve(system)["fresh"] >= 1


def test_euler_witness_matches_model():
    fsa = Fsa((0, 1), ((0, "a", 1), (1, "b", 0), (1, "c", 1)), 0, 0)
    system = parikh_fsa(fsa)
    model = solve(system.conjoin([ge({letter_var("c"): 1}, 1),
                                  ge({letter_var("a"): 1}, 1)]))
    word = euler_witness(fsa, model)
    assert word.count("c") == model[letter_var("c")] >= 1
    assert word.count("a") == word.count("b") == model[letter_var("a")]
    # the trail must be a word of the automaton: simulate it
    state = fsa.initial
    for lab in word:
        state = next(dst for src, elab, dst in fsa.edges
                     if src == state and elab == lab)
    assert state == fsa.final


def test_euler_witness_rejects_bogus_assignment():
    fsa = Fsa((0, 1), ((0, "a", 1),), 0, 0)
    with pytest.raises(AssertionError):
        euler_witness(fsa, {"e0": 1})


def tagged_fsa(rng):
    """A random automaton whose i-th edge carries its own label t<i>, so
    the letters of a word count the edges of its walk."""
    fsa, _ = random_fsa(rng)
    edges = tuple((src, f"t{i}", dst)
                  for i, (src, _, dst) in enumerate(fsa.edges))
    return Fsa(fsa.states, edges, fsa.initial, fsa.final)


def greedy_strands(fsa, counts):
    """Whether the walk that always takes the first edge with uses left
    strands some edge or stops off the final state."""
    left = dict(counts)
    state = fsa.initial
    while True:
        i = next((i for i, (src, _, _) in enumerate(fsa.edges)
                  if src == state and left[i]), None)
        if i is None:
            return state != fsa.final or any(left.values())
        left[i] -= 1
        state = fsa.edges[i][2]


def test_euler_witness_realizes_every_parikh_model():
    # the automaton twin of test_derive_word_realizes_every_parikh_model:
    # random lower bounds on edge counts make greedy walks strand edges
    rng = random.Random(32)
    models = stranded = 0
    while models < 1500:
        fsa = tagged_fsa(rng)
        bounds = [ge({parikh.edge_var(i): 1}, rng.randint(1, 3))
                  for i in range(len(fsa.edges)) if rng.random() < 0.4]
        model = integer_oracle.solve(parikh_fsa(fsa).conjoin(bounds))
        if model is None:
            continue
        models += 1
        counts = {i: model.get(parikh.edge_var(i), 0)
                  for i in range(len(fsa.edges))}
        word = euler_witness(fsa, model)
        assert {i: word.count(f"t{i}") for i in counts} == counts
        state = fsa.initial
        for lab in word:
            src, _, dst = fsa.edges[int(lab[1:])]
            assert src == state
            state = dst
        assert state == fsa.final
        stranded += greedy_strands(fsa, counts)
    assert stranded >= 100
