import random

import pytest

from paramck.machines import (BudgetExceeded, Fsm, Pdm, PdmRule, UNINIT,
                              make_network)
from paramck.pushdown import (_loop_controls, _loop_rules,
                              abstract_pdm_rules, build_loop_grammar,
                              check_pdm_fsm, derive_word, find_stem,
                              initial_control, pop_relation, post_star)
from paramck.explicit import check_explicit, replay
from paramck.reduction import restrict_network
from paramck import parikh, pushdown
from fixtures import (la, ca, random_fsm_contributor,
                      random_pdm_leader_network, random_pdm_pdm_network)


def counter_network(accept_high=False):
    """Leader counting a's pushes against c's pops; contributors only feed
    the store.  Accepting either at the bottom state or at the push state."""
    rules = (
        PdmRule("d0", la("read", "1"), "Z", "d1", ("push", "A")),
        PdmRule("d0", la("read", "1"), "A", "d1", ("push", "A")),
        PdmRule("d1", la("read", "1"), "A", "d1", ("push", "A")),
        PdmRule("d1", la("read", "2"), "A", "d1", ("pop",)),
        PdmRule("d1", la("read", "2"), "Z", "d0", ("push", "A")),
    )
    accepting = frozenset(["d1"] if accept_high else ["d0"])
    leader = Pdm(frozenset(["d0", "d1"]), ("Z", "A"), "d0",
                 rules, accepting)
    contrib = Fsm(frozenset(["q0", "q1"]), "q0",
                  (("q0", ca("write", "1"), "q1"),
                   ("q1", ca("write", "2"), "q0")))
    return make_network(["1", "2"], leader, contrib)


def test_abstract_rules_shapes():
    net = counter_network()
    init = initial_control(net)
    assert init == ("d0", UNINIT, frozenset(["q0"]))
    # uninitialized store: only the contributor write fires
    moves = abstract_pdm_rules(net, init, "Z")
    assert [(tid, repl) for tid, _, repl in moves] == [("c0", ("Z",))]
    after_write = ("d0", "1", frozenset(["q0", "q1"]))
    moves = abstract_pdm_rules(net, after_write, "Z")
    kinds = {tid: repl for tid, _, repl in moves}
    assert kinds["d0"] == ("A", "Z")       # push keeps the old top below
    assert kinds["c1"] == ("Z",)


def test_post_star_finds_deep_tops():
    net = counter_network()
    pairs = post_star(net)
    tops = {gamma for _, gamma in pairs}
    assert tops == {"Z", "A"}
    # pivots are discovered in saturation order, initial configuration first
    assert pairs[0] == (initial_control(net), "Z")


def test_pop_relation_on_loop_automaton():
    net = counter_network()
    Q = frozenset(["q0", "q1"])
    from paramck.pushdown import _loop_controls
    states = _loop_controls(net, Q)
    P, _ = pop_relation(net, states, net.leader.stack_alphabet)
    # an A pushed at d1 can be popped again at d1 (read 1 up, read 2 down)
    assert any(s[0][0] == "d1" and gamma == "A" and s2[0][0] == "d1"
               for s, gamma, s2 in P)
    # nothing can pop the bottom symbol: no rule pops Z
    assert not any(gamma == "Z" for _, gamma, _ in P)


def naive_pop_relation(net, states, alphabet):
    """The pop relation by naive fixpoint: every round scans the whole rule
    table and, for each rule, the whole relation found so far."""
    rules = {}
    for s in states:
        for gamma in alphabet:
            rules[(s, gamma)] = _loop_rules(net, s, gamma)
    P = {}
    changed = True
    while changed:
        changed = False
        for (s, gamma), rs in rules.items():
            for tid, s2, repl in rs:
                if repl == ():
                    new = [(s, gamma, s2)]
                elif len(repl) == 1:
                    new = [(s, gamma, x) for (a, g2, x) in P
                           if a == s2 and g2 == repl[0]]
                else:
                    beta, below = repl
                    mids = [x for (a, g2, x) in P if a == s2 and g2 == beta]
                    new = [(s, gamma, y) for x in mids
                           for (a, g2, y) in P if a == x and g2 == below]
                for triple in new:
                    if triple not in P:
                        P[triple] = None
                        changed = True
    return P, rules


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


def pivot_qs(net):
    return list(dict.fromkeys(control[2] for control, _ in post_star(net)))


def test_pop_relation_agrees_with_naive_fixpoint():
    rng = random.Random(31)
    nets = [counter_network(), counter_network(accept_high=True)]
    for _ in range(20):
        nets.append(random_pdm_leader_network(rng))
        nets.append(restrict_network(random_pdm_pdm_network(rng))[0])
        nets.append(random_deep_pdm_network(rng))
    triples = 0
    for net in nets:
        for Q in pivot_qs(net):
            states = _loop_controls(net, Q)
            P, rules = pop_relation(net, states, net.leader.stack_alphabet)
            P0, rules0 = naive_pop_relation(net, states,
                                            net.leader.stack_alphabet)
            assert set(P) == set(P0)
            # the same order, too, so the loop grammars do not change
            assert list(P) == list(P0)
            assert rules == rules0
            triples += len(P)
    assert triples > 500


def test_check_builds_one_loop_automaton_per_q(monkeypatch):
    calls = []
    original = pushdown.pop_relation

    def counting(net, states, alphabet):
        calls.append(states[0][0][2])
        return original(net, states, alphabet)

    monkeypatch.setattr(pushdown, "pop_relation", counting)
    rng = random.Random(88)
    shared = 0
    for _ in range(50):
        net = random_pdm_leader_network(rng)
        calls.clear()
        v = check_pdm_fsm(net)
        checked = post_star(net)[:v.stats["pivots_checked"]]
        qs = list(dict.fromkeys(control[2] for control, _ in checked))
        assert calls == qs
        shared += len(checked) - len(qs)
    assert shared > 0


def test_shared_loop_automata_give_the_same_grammars():
    rng = random.Random(32)
    for _ in range(15):
        net = random_pdm_leader_network(rng)
        automata = {}
        for control, gamma in post_star(net):
            assert build_loop_grammar(net, control, gamma, automata) == \
                build_loop_grammar(net, control, gamma)
        assert list(automata) == pivot_qs(net)


def test_loop_grammar_derives_balanced_words():
    net = counter_network(accept_high=True)
    control = ("d1", "1", frozenset(["q0", "q1"]))
    grammar = parikh.reduce_grammar(build_loop_grammar(net, control, "A"))
    assert grammar.start in grammar.nonterminals
    system = parikh.parikh_cfg(grammar)
    # d2 pushes an A at d1, d3 pops one; ask for a loop with at least one pop
    model = parikh.solve(system.conjoin(
        [parikh.ge({parikh.letter_var("d3"): 1}, 1)]))
    assert model is not None
    counts = {i: model.get(f"y{i}", 0)
              for i in range(len(grammar.productions))}
    word = derive_word(grammar, counts)
    assert word is not None
    assert word.count("d3") == model[parikh.letter_var("d3")]
    leader_moves = [lab for lab in word if lab.startswith("d")]
    assert set(leader_moves) <= {"d2", "d3"}
    # the loop returns to the pivot top, so pushes cover the pops
    assert word.count("d2") >= word.count("d3")


def test_derive_word_needs_no_deep_recursion():
    g = parikh.Grammar(("S",), ("a",), "S",
                       (("S", ("a", "S")), ("S", ("a",))))
    assert derive_word(g, {0: 1500, 1: 1}) == ["a"] * 1501
    assert derive_word(g, {0: 1500}) is None


def test_derive_word_backtracks_in_production_order():
    # S -> A strands the second use of A -> a, so the search backs up and
    # takes S -> A S; each configuration visited costs one unit of budget
    g = parikh.Grammar(("S", "A"), ("a",), "S",
                       (("S", ("A",)), ("S", ("A", "S")), ("A", ("a",))))
    counts = {0: 1, 1: 1, 2: 2}
    assert derive_word(g, counts, budget=7) == ["a", "a"]
    with pytest.raises(BudgetExceeded):
        derive_word(g, counts, budget=6)
    assert derive_word(g, {0: 2, 2: 2}) is None


def test_find_stem_reaches_pivot():
    net = counter_network()
    pairs = post_star(net)
    for control, gamma in pairs:
        path = find_stem(net, control, gamma, stack_cap=8)
        assert path is not None
        # the path must end at the pivot
        if path:
            last_control, last_stack = path[-1][2]
            assert last_control == control and last_stack[0] == gamma


def test_budget_env_variable_caps_find_stem(monkeypatch):
    net = counter_network()
    paths = {pair: find_stem(net, *pair, stack_cap=8)
             for pair in post_star(net)}
    pivot = max(paths, key=lambda pair: len(paths[pair]))
    assert len(paths[pivot]) >= 3
    monkeypatch.setenv("PARAMCK_BUDGET", "2")
    assert find_stem(net, *pivot, stack_cap=8) is None
    assert find_stem(net, *pivot, stack_cap=8, budget=300_000) == paths[pivot]


def test_budget_env_variable_caps_derive_word(monkeypatch):
    g = parikh.Grammar(("S",), ("a",), "S", (("S", ("a",)),))
    assert derive_word(g, {0: 1}) == ["a"]
    monkeypatch.setenv("PARAMCK_BUDGET", "0")
    with pytest.raises(BudgetExceeded):
        derive_word(g, {0: 1})


def test_counter_nonempty_with_replay():
    net = counter_network()
    v = check_pdm_fsm(net)
    assert v.kind == "NONEMPTY"
    assert v.witness.pivot is not None
    assert replay(net, v.witness) == ("valid", None)


def test_growing_stack_loop_is_found():
    # accepting only at the push state: a valid lasso may grow the stack on
    # every turn and never revisit a configuration
    net = counter_network(accept_high=True)
    v = check_pdm_fsm(net)
    assert v.kind == "NONEMPTY"
    assert replay(net, v.witness) == ("valid", None)


def test_no_accepting_state_is_empty():
    net = counter_network()
    leader = net.leader
    dead = Pdm(leader.states, leader.stack_alphabet, leader.initial,
               leader.rules, frozenset())
    net2 = make_network(net.values, dead, net.contributor)
    assert check_pdm_fsm(net2).kind == "EMPTY"


def test_agrees_with_bounded_oracle():
    rng = random.Random(88)
    for _ in range(50):
        net = random_pdm_leader_network(rng)
        v = check_pdm_fsm(net)
        if v.kind == "NONEMPTY":
            assert replay(net, v.witness) == ("valid", None)
        elif v.kind == "EMPTY":
            for k in (1, 2):
                assert check_explicit(net, k, stack_bound=6).kind == "EMPTY"
        if check_explicit(net, 2, stack_bound=5).kind == "NONEMPTY":
            assert v.kind in ("NONEMPTY", "BUDGET")
