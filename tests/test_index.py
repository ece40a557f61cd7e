"""parikh.solve's per-system bookkeeping against the bookkeeping it
replaced (integer_oracle.prune and integer_oracle.point): the worklist
_prune keeps the same columns, _cone_point builds in integers the point
that the Fraction construction builds from the same optimum, and a support
prepared once gives the same points as one prepared for each call.  On
seeded random cone systems and on every system the fixture nets hand to
solve."""

import random

import integer_oracle
from paramck import parikh
from paramck.api import run_check
from paramck.parikh import LinearSystem, connected, eq, ge
from paramck.pushdown import loop_system
from fixtures import ring_network
from test_cyclesearch import refinement_nets
from test_solve import fsm_systems, loop_grammars, pdm_nets


def random_cone_system(rng):
    """Up to 12 columns under up to 8 "= 0" rows, about 40% of them rows
    that define their first column, up to two "at least one" rows and,
    three times in four, a connectivity atom that gives each column 0-2
    edges among up to 6 nodes."""
    n = rng.randint(1, 12)
    names = [f"v{j}" for j in range(n)]
    atoms = []
    for _ in range(rng.randint(0, 8)):
        cols = rng.sample(range(n), rng.randint(1, min(n, 5)))
        if rng.random() < 0.4:
            s = rng.choice([1, -1])
            coeffs = {cols[0]: s}
            coeffs.update((j, -s * rng.randint(1, 2)) for j in cols[1:])
        else:
            coeffs = {j: rng.choice([-2, -1, 1, 2]) for j in cols}
        atoms.append(eq({names[j]: c for j, c in coeffs.items()}, 0))
    for _ in range(rng.randint(0, 2)):
        atoms.append(ge({v: 1 for v in rng.sample(names, rng.randint(1, n))},
                        1))
    if rng.random() < 0.75:
        nodes = rng.randint(1, 6)
        atoms.append(connected(0, [
            (v, rng.randrange(nodes), rng.randrange(nodes)) for v in names
            for _ in range(rng.choice([0, 1, 1, 2]))]))
    return LinearSystem(tuple(names), tuple(atoms))


def recording_lps(monkeypatch):
    """Patch parikh.linprog to record each optimum it returns; returns the
    list it records into."""
    optima = []

    def recording(*args, _real=parikh.linprog):
        optima.append(_real(*args))
        return optima[-1]

    monkeypatch.setattr(parikh, "linprog", recording)
    return optima


def assert_same_bookkeeping(system, rng, optima):
    """_prune from every column and from two random subsets, and
    _cone_point on each of those sets and on what _prune keeps: the point
    is the oracle's, built in Fractions from the same optimum (optima
    records linprog's), and a support prepared once for all its LPs (one
    index) gives the same points as one prepared afresh for each.  The
    shared index solves an LP only for a point it has not computed yet."""
    ix = parikh._Index(system)
    cone, conn, n = ix.cone, ix.conn, ix.n
    seen = set()    # (support, kind, cuts) of each point computed
    starts = [set(range(n))] + [{j for j in range(n) if rng.random() < 0.7}
                                for _ in range(2)]
    for start in starts:
        alive = parikh._prune(ix, set(start))
        assert alive == integer_oracle.prune(cone, conn, set(start))
        for cols in (start, alive):
            cut = {j for j in cols if rng.random() < 0.5}
            for largest, cuts in ((True, ()), (False, ()), (False, [cut])):
                optima.clear()
                key = (frozenset(cols), largest, tuple(map(frozenset, cuts)))
                new = key not in seen
                seen.add(key)
                x = parikh._cone_point(ix, cols, largest, cuts)
                assert len(optima) == new
                optima.clear()
                assert parikh._cone_point(parikh._Index(system), cols,
                                          largest, cuts) == x
                [lp] = optima
                assert x == (None if lp is None else integer_oracle.point(
                    cone, n, cols, largest, lp))


def test_bookkeeping_agrees_with_the_oracle_on_random_cone_systems(
        monkeypatch):
    rng = random.Random(71)
    optima = recording_lps(monkeypatch)
    pruned = defined = 0
    for _ in range(1000):
        system = random_cone_system(rng)
        assert_same_bookkeeping(system, rng, optima)
        ix = parikh._Index(system)
        cone, n = ix.cone, ix.n
        alive = integer_oracle.prune(cone, ix.conn, set(range(n)))
        pruned += 0 < len(alive) < n
        defined += bool(parikh._definitions(cone, alive)[1])
    # both rules, and points with defined columns, get work
    assert pruned >= 200 and defined >= 200


def test_bookkeeping_agrees_with_the_oracle_on_the_fixture_systems(
        monkeypatch):
    # the systems the checkers hand to solve on the fixture nets, and the
    # realizability and loop systems that test_solve hands it: one at each
    # accepting configuration and at each pivot with a loop grammar
    systems = []

    def recording(system, _real=parikh.solve):
        systems.append(system)
        return _real(system)

    monkeypatch.setattr(parikh, "solve", recording)
    for net in [ring_network()] + refinement_nets() + pdm_nets():
        run_check(net)
    monkeypatch.undo()
    checked = len(systems)
    systems += fsm_systems(refinement_nets())
    systems += [loop_system(net, grammar)
                for net, _, grammar, _ in loop_grammars(pdm_nets())]
    rng = random.Random(72)
    optima = recording_lps(monkeypatch)
    for system in systems:
        assert_same_bookkeeping(system, rng, optima)
    assert checked >= 5 and len(systems) - checked >= 400


def test_balls_are_the_distance_balls_in_order():
    # _balls yields, as the search from the root reaches them, the balls
    # that the distances of all of alive give: for each distance d, the
    # columns whose edges all leave nodes at most d from the root
    rng = random.Random(74)
    systems = [*fsm_systems(refinement_nets()),
               *(loop_system(net, grammar)
                 for net, _, grammar, _ in loop_grammars(pdm_nets())),
               *(random_cone_system(rng) for _ in range(2000))]
    several = 0
    for system in systems:
        ix = parikh._Index(system)
        alive = parikh._prune(ix, set(range(ix.n)))
        dist = parikh._distances(ix, alive)
        depth = {j: max((dist[s] for s in ix.sources[j]), default=0)
                 for j in alive}
        want = [{j for j in alive if depth[j] <= d}
                for d in sorted(set(depth.values()))]
        assert list(parikh._balls(ix, alive)) == want
        several += len(want) > 2
    # 162 of them have more than two balls
    assert several >= 150
