"""Shared fixture networks and random-instance generators.

The fixed networks are small enough to inspect by hand; expected verdicts in
the tests that use them were frozen from the explicit-state engine (and, for
single-machine fixtures, from pen-and-paper simulation) before the
parameterized checkers existed.
"""

from paramck.machines import (Action, Fsm, Pdm, PdmRule, LEADER, CONTRIBUTOR,
                              buchi_product, make_network)


def satisfies(atoms, model):
    """Whether model satisfies every atom of a Parikh system (variables it
    leaves out count as 0): each linear row, and each connectivity atom,
    whose present edges (variable positive) must all be reachable from its
    root along present edges."""
    for atom in atoms:
        if atom[0] == "conn":
            _, root, edges = atom
            present = [(s, d) for v, s, d in edges if model.get(v, 0) > 0]
            reach = {root}
            grew = True
            while grew:
                grew = False
                for s, d in present:
                    if s in reach and d not in reach:
                        reach.add(d)
                        grew = True
            if any(s not in reach for s, _ in present):
                return False
            continue
        kind, coeffs, const = atom
        total = sum(c * model.get(v, 0) for v, c in coeffs.items())
        if total > const or (kind == "eq" and total != const):
            return False
    return True


def la(kind, value):
    return Action(LEADER, kind, value)


def ca(kind, value):
    return Action(CONTRIBUTOR, kind, value)


def ring_network():
    """Leader cycling through reads of 1, 2, 3; contributors that can feed
    any one of the three values but need to observe the previous one first.
    Property: the leader reads 1 infinitely often."""
    leader = Fsm(
        frozenset(["p0", "p1", "p2"]), "p0",
        (("p0", la("read", "1"), "p1"),
         ("p1", la("read", "2"), "p2"),
         ("p2", la("read", "3"), "p0")))
    contributor = Fsm(
        frozenset("ABCDEFG"), "A",
        (("A", ca("write", "1"), "B"),
         ("B", ca("read", "3"), "C"),
         ("C", ca("read", "1"), "A"),
         ("A", ca("write", "2"), "D"),
         ("D", ca("read", "1"), "E"),
         ("E", ca("read", "2"), "A"),
         ("A", ca("write", "3"), "F"),
         ("F", ca("read", "2"), "G"),
         ("G", ca("read", "3"), "A")))
    prop = Fsm(
        frozenset(["s0", "s1"]), "s0",
        (("s0", la("read", "1"), "s1"),
         ("s0", la("read", "2"), "s0"),
         ("s0", la("read", "3"), "s0"),
         ("s1", la("read", "1"), "s1"),
         ("s1", la("read", "2"), "s0"),
         ("s1", la("read", "3"), "s0")),
        frozenset(["s1"]))
    return make_network(["1", "2", "3"], buchi_product(prop, leader),
                        contributor)


def stalled_network():
    """A contributor with one write and a leader that never moves but is
    always accepting.  The abstract system has an accepting self-loop (the
    contributor keeps writing), but no concrete cycle exists: the write moves
    a token one way and nothing ever moves it back."""
    leader = Fsm(frozenset(["d0"]), "d0", (), frozenset(["d0"]))
    contributor = Fsm(
        frozenset(["q0", "q1"]), "q0",
        (("q0", ca("write", "1"), "q1"),))
    prop = Fsm(frozenset(["s0"]), "s0", (), frozenset(["s0"]))
    # degenerate but legal: the product has no transitions, its single state
    # is accepting, and the contributor write is the only move anywhere
    return make_network(["1"], buchi_product(prop, leader), contributor)


def updown_pdm():
    """One-state pushdown that climbs with b after an initial a and descends
    with c.  Its runs are the height profiles; the canonical lasso below has
    effective stack heights 1,2,3,4,3,2,1."""
    r_a = PdmRule("p", ca("write", "1"), "Z", "p", ("push", "X"))
    r_b = PdmRule("p", ca("write", "2"), "X", "p", ("push", "X"))
    r_c = PdmRule("p", ca("write", "3"), "X", "p", ("pop",))
    pdm = Pdm(frozenset(["p"]), ("Z", "X"), "p", (r_a, r_b, r_c))
    return pdm, (r_a, r_b, r_c)


def updown_run():
    """The a b b c c c prefix of updown_pdm: up to height 4, down to 1."""
    from window_oracles import RunPrefix
    pdm, (r_a, r_b, r_c) = updown_pdm()
    return RunPrefix(pdm, (r_a, r_b, r_b, r_c, r_c, r_c))


def random_fsm_leader(rng, values, max_states=4):
    n = rng.randint(1, max_states)
    states = [f"p{i}" for i in range(n)]
    trans = tuple(
        (rng.choice(states),
         la(rng.choice(["read", "write"]), rng.choice(values)),
         rng.choice(states))
        for _ in range(rng.randint(1, 6)))
    accepting = frozenset(rng.sample(states, rng.randint(1, n)))
    return Fsm(frozenset(states), "p0", trans, accepting)


def random_fsm_contributor(rng, values, max_states=3):
    n = rng.randint(1, max_states)
    states = [f"q{i}" for i in range(n)]
    trans = tuple(
        (rng.choice(states),
         ca(rng.choice(["read", "write"]), rng.choice(values)),
         rng.choice(states))
        for _ in range(rng.randint(1, 5)))
    return Fsm(frozenset(states), "q0", trans, None)


def random_fsm_network(rng):
    """Random network with the leader already carrying the acceptance set
    (standing in for an already-built property product of <= 4 states)."""
    values = ["1", "2"][:rng.randint(1, 2)]
    return make_network(values, random_fsm_leader(rng, values),
                        random_fsm_contributor(rng, values))


def random_pdm_leader(rng, values, max_states=3):
    n = rng.randint(1, max_states)
    states = [f"p{i}" for i in range(n)]
    stack = ("Z", "A")[:rng.randint(1, 2)]
    rules = []
    for _ in range(rng.randint(1, 6)):
        act = la(rng.choice(["read", "write"]), rng.choice(values))
        effect = rng.choice([("push", stack[-1]), ("pop",)])
        if effect == ("push", stack[0]):
            effect = ("pop",)          # the bottom symbol may not be pushed
        rules.append(PdmRule(rng.choice(states), act, rng.choice(stack),
                             rng.choice(states), effect))
    accepting = frozenset(rng.sample(states, rng.randint(1, n)))
    return Pdm(frozenset(states), stack, "p0", tuple(rules), accepting)


def random_pdm_leader_network(rng):
    values = ["1", "2"][:rng.randint(1, 2)]
    return make_network(values, random_pdm_leader(rng, values),
                        random_fsm_contributor(rng, values))


def random_pdm_contributor(rng, values, max_states=2):
    n = rng.randint(1, max_states)
    states = [f"q{i}" for i in range(n)]
    stack = ("Z", "B")[:rng.randint(1, 2)]
    rules = []
    for _ in range(rng.randint(1, 5)):
        act = ca(rng.choice(["read", "write"]), rng.choice(values))
        effect = rng.choice([("push", stack[-1]), ("pop",)])
        if effect == ("push", stack[0]):
            effect = ("pop",)
        rules.append(PdmRule(rng.choice(states), act, rng.choice(stack),
                             rng.choice(states), effect))
    return Pdm(frozenset(states), stack, "q0", tuple(rules), None)


def random_pdm_pdm_network(rng):
    values = ["1", "2"][:rng.randint(1, 2)]
    return make_network(values, random_pdm_leader(rng, values),
                        random_pdm_contributor(rng, values))


def random_deep_pdm_network(rng):
    """A PDM leader with three states, two pushable symbols and up to ten
    rules, so that pops nest several symbols deep, with a random FSM
    contributor."""
    values = ["1", "2"]
    states = ["p0", "p1", "p2"]
    stack = ("Z", "A", "B")
    rules = []
    for _ in range(rng.randint(5, 10)):
        top = rng.choice(stack)
        effect = rng.choice([("push", "A"), ("push", "B"), ("pop",)])
        if top == "Z":
            effect = ("push", rng.choice(stack[1:]))
        rules.append(PdmRule(rng.choice(states),
                             la(rng.choice(["read", "write"]),
                                rng.choice(values)),
                             top, rng.choice(states), effect))
    leader = Pdm(frozenset(states), stack, "p0", tuple(rules),
                 frozenset(rng.sample(states, rng.randint(1, 3))))
    return make_network(values, leader, random_fsm_contributor(rng, values))


def random_small_pdm(rng, max_states=3, max_symbols=2):
    """A bare PDM (contributor role) for restriction tests."""
    values = ["1", "2"]
    n = rng.randint(1, max_states)
    states = [f"q{i}" for i in range(n)]
    stack = ("Z", "X", "Y")[:rng.randint(1, max_symbols)]
    rules = []
    for _ in range(rng.randint(1, 7)):
        act = ca(rng.choice(["read", "write"]), rng.choice(values))
        symbol = rng.choice(stack)
        if len(stack) > 1 and rng.random() < 0.6:
            effect = ("push", rng.choice(stack[1:]))
        else:
            effect = ("pop",)
        rules.append(PdmRule(rng.choice(states), act, symbol,
                             rng.choice(states), effect))
    return Pdm(frozenset(states), stack, "q0", tuple(rules), None)


def lift_fsm_to_pdm(fsm):
    """Language-preserving pushdown wrapper: every transition pushes a dummy
    symbol on the bottom and pops it back otherwise, so the stack oscillates
    between Z and XZ and the machine behaves exactly like the original FSM."""
    stack = ("Z", "X")
    rules = []
    for src, act, dst in fsm.transitions:
        rules.append(PdmRule(src, act, "Z", dst, ("push", "X")))
        rules.append(PdmRule(src, act, "X", dst, ("pop",)))
    return Pdm(fsm.states, stack, fsm.initial, tuple(rules), fsm.accepting)
