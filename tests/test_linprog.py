"""parikh.linprog, the exact simplex behind parikh.solve, against HiGHS
(scipy.optimize.linprog) on seeded random LPs and on Beale's cycling
example; _cone_point with and without its substitution of defining rows;
and solve on a dense system against the integer oracle."""

import json
import os
import random
from fractions import Fraction

import numpy
import pytest
from scipy.optimize import linprog as highs

import integer_oracle
from fixtures import satisfies
from paramck import parikh
from paramck.parikh import Fsa, eq, ge, letter_var, linprog, parikh_fsa


def highs_optimum(cost, rows, upper):
    """HiGHS's status (0 optimal, 2 infeasible, 3 unbounded) and value."""
    n = len(upper)
    a = numpy.zeros((len(rows), n))
    for i, (coeffs, _) in enumerate(rows):
        for j, c in coeffs.items():
            a[i, j] = c
    res = highs(cost, A_eq=a if rows else None,
                b_eq=[const for _, const in rows] if rows else None,
                bounds=[(0, u) for u in upper], method="highs")
    return res.status, res.fun


def random_lp(rng, homogeneous):
    """Rows "coeffs·x = const" over up to 8 columns, about half the
    coefficients zero; every constant 0 when homogeneous, else about half
    of them.  Columns are bounded by 1..3 or not at all, and costs have
    either sign."""
    n = rng.randint(1, 8)
    rows = []
    for _ in range(rng.randint(0, 6)):
        coeffs = {j: c for j in range(n)
                  if (c := rng.choice([0, 0, 0, -3, -2, -1, 1, 2, 3]))}
        const = 0 if homogeneous or rng.random() < 0.5 else \
            rng.randint(-6, 6)
        rows.append((coeffs, const))
    if rows and rng.random() < 0.2:
        rows.append(rows[0])              # a repeated row
    upper = [rng.choice([None, None, 1, 2, 3]) for _ in range(n)]
    cost = [rng.randint(-3, 3) for _ in range(n)]
    return cost, rows, upper


def check_point(x, rows, upper):
    assert all(isinstance(v, Fraction) for v in x)
    assert all(0 <= v and (u is None or v <= u) for v, u in zip(x, upper))
    for coeffs, const in rows:
        assert sum(c * x[j] for j, c in coeffs.items()) == const


@pytest.mark.parametrize("homogeneous", [False, True],
                         ids=["any-constants", "zero-constants"])
def test_linprog_agrees_with_highs_on_random_lps(homogeneous):
    rng = random.Random(61 + homogeneous)
    seen = {0: 0, 2: 0, 3: 0}
    for _ in range(1500):
        cost, rows, upper = random_lp(rng, homogeneous)
        status, value = highs_optimum(cost, rows, upper)
        seen[status] += 1
        if status == 3:
            with pytest.raises(ValueError):
                linprog(cost, rows, upper)
            continue
        x = linprog(cost, rows, upper)
        assert (x is None) == (status == 2)
        if x is not None:
            check_point(x, rows, upper)
            assert abs(sum(c * v for c, v in zip(cost, x)) - value) < 1e-9
    # a homogeneous system always has the point 0
    assert seen[0] >= 400 and seen[3] >= 150
    assert seen[2] == 0 if homogeneous else seen[2] >= 400


def test_linprog_on_the_largest_support_lps():
    # the LP _cone_point(largest=True) makes: x = t + s over the columns,
    # cone rows over both, t <= 1 and the sum of t maximised; all its
    # constants are 0, so every pivot that does not flip a bound is
    # degenerate
    rng = random.Random(63)
    for _ in range(300):
        m = rng.randint(1, 10)
        cone = [{j: c for j in range(m)
                 if (c := rng.choice([0, 0, -2, -1, 1, 2]))}
                for _ in range(rng.randint(1, 6))]
        rows = [({**row, **{m + j: c for j, c in row.items()}}, 0)
                for row in cone]
        cost, upper = [-1] * m + [0] * m, [1] * m + [None] * m
        status, value = highs_optimum(cost, rows, upper)
        x = linprog(cost, rows, upper)
        check_point(x, rows, upper)
        assert status == 0
        assert abs(sum(c * v for c, v in zip(cost, x)) - value) < 1e-9


@pytest.mark.parametrize("run", [0, 10 ** 9], ids=["bland", "dantzig"])
def test_either_pricing_rule_alone_reaches_the_optimum(monkeypatch, run):
    # DEGENERATE_RUN 0 prices by Bland's rule throughout, and a run longer
    # than any solve by Dantzig's; both reach HiGHS's optimum
    monkeypatch.setattr(parikh, "DEGENERATE_RUN", run)
    rng = random.Random(64)
    for _ in range(300):
        cost, rows, upper = random_lp(rng, rng.random() < 0.5)
        status, value = highs_optimum(cost, rows, upper)
        if status != 3:
            x = linprog(cost, rows, upper)
            assert (x is None) == (status == 2)
            if x is not None:
                check_point(x, rows, upper)
                assert abs(sum(c * v for c, v in zip(cost, x)) - value) < 1e-9


def test_beales_cycling_example_terminates_at_the_optimum(monkeypatch):
    # Beale (1955): min -3/4 x3 + 20 x4 - 1/2 x5 + 6 x6 subject to
    #   x0 + 1/4 x3 -  8 x4 -     x5 + 9 x6 = 0
    #   x1 + 1/2 x3 - 12 x4 - 1/2 x5 + 3 x6 = 0
    #   x2 +                      x5        = 1
    # on which Dantzig's rule cycles; the optimum is -5/4 at x0 = 3/4,
    # x3 = x5 = 1.  Rows and cost scaled to integers.
    rows = [({0: 4, 3: 1, 4: -32, 5: -4, 6: 36}, 0),
            ({1: 2, 3: 1, 4: -24, 5: -1, 6: 6}, 0),
            ({2: 1, 5: 1}, 1)]
    cost = [0, 0, 0, -3, 80, -2, 24]
    x = linprog(cost, rows, [None] * 7)
    check_point(x, rows, [None] * 7)
    assert sum(c * v for c, v in zip(cost, x)) == -5
    assert x == [Fraction(3, 4), 0, 0, 1, 0, 1, 0]
    # Dantzig's rule alone does cycle here: 1,000 pivots do not end it
    pivots = []

    def counting(*args, _real=parikh._enter):
        pivots.append(args)
        if len(pivots) > 1000:
            raise RuntimeError("cycling")
        _real(*args)

    monkeypatch.setattr(parikh, "_enter", counting)
    monkeypatch.setattr(parikh, "DEGENERATE_RUN", 10 ** 9)
    with pytest.raises(RuntimeError, match="cycling"):
        linprog(cost, rows, [None] * 7)


def test_linprog_edge_cases():
    # no rows: each column sits at the bound its cost prefers
    assert linprog([1, -1, 0], [], [None, 2, None]) == [0, 2, 0]
    with pytest.raises(ValueError):
        linprog([-1], [], [None])
    # a column fixed at 0 takes no part, and a row that needs it fails
    assert linprog([-1], [], [0]) == [0]
    assert linprog([0], [({0: 1}, 1)], [0]) is None
    # an empty row with a nonzero constant, and a redundant pair
    assert linprog([0], [({}, 2)], [None]) is None
    assert linprog([1, 1], [({0: 1, 1: 1}, 2), ({0: 2, 1: 2}, 4)],
                   [None, None]) == [2, 0]


def cone_systems():
    """The realizability and loop systems of test_solve's nets, whose flow
    rows define columns."""
    from paramck.pushdown import loop_system
    from test_solve import fsm_systems, loop_grammars, pdm_nets
    from test_cyclesearch import refinement_nets
    return [*fsm_systems(refinement_nets()[:60]),
            *(loop_system(net, grammar)
              for net, _, grammar, _ in loop_grammars(pdm_nets()))]


def test_cone_point_gives_the_same_optimum_without_substitution(
        monkeypatch):
    # the LP over every column, none substituted out, has the same largest
    # support and the same least sum (the objective counts each defined
    # column through the columns of its sum)
    optima = []

    def recording(cost, *args):
        x = real(cost, *args)
        optima.append(None if x is None else
                      sum(c * v for c, v in zip(cost, x)))
        return x

    real = parikh.linprog
    monkeypatch.setattr(parikh, "linprog", recording)
    substituted = 0
    for system in cone_systems():
        ix = parikh._Index(system)
        cone, n = ix.cone, ix.n
        alive = parikh._prune(ix, set(range(n)))
        results = []
        for definitions in (parikh._definitions,
                            lambda cone, cols: (
                                [{j: c for j, c in row.items() if j in cols}
                                 for row in cone], {})):
            monkeypatch.setattr(parikh, "_definitions", definitions)
            optima.clear()
            ix = parikh._Index(system)
            big = parikh._cone_point(ix, alive, True)
            short = parikh._cone_point(ix, alive, False)
            results.append(({j for j in range(n) if big[j]}, optima[1],
                            short is None))
        monkeypatch.undo()
        monkeypatch.setattr(parikh, "linprog", recording)
        assert results[0] == results[1]
        substituted += bool(parikh._definitions(cone, alive)[1])
    assert substituted >= 50


def test_solve_agrees_with_the_oracle_on_a_dense_cycle_system():
    # a cycle automaton of 40 states and 200 random edges over 24 letters,
    # anchored at state 0, with five token rows of +-1 over the letters:
    # its largest-support LP has 180 bounded columns and takes hundreds of
    # pivots.  This guards termination at size, not speed.
    path = os.path.join(os.path.dirname(__file__), "dense_cycle_system.json")
    with open(path) as f:
        data = json.load(f)
    edges = tuple(map(tuple, data["edges"]))
    system = parikh_fsa(Fsa(tuple(range(data["states"])), edges, 0, 0)) \
        .conjoin([eq({letter_var(t): c for t, c in row.items()}, 0)
                  for row in data["tokens"]]
                 + [ge({letter_var(lab): 1 for _, lab, _ in edges}, 1)])
    model = parikh.solve(system)
    assert (model is None) == (integer_oracle.solve(system) is None)
    assert model is not None and satisfies(system.atoms, model)
