import random
from collections import Counter

import pytest

from paramck.api import replay_network, run_check
from paramck.cyclesearch import lasso
from paramck.fileformat import parse_machine_file
from paramck.machines import (CONTRIBUTOR, EXPLORE_BUDGET, LEADER,
                              AbstractConfig, BudgetExceeded, Codec, Fsm, Pdm,
                              PdmRule, UNINIT, buchi_product, make_network)
from paramck.pushdown import (_loop_ends, build_loop_grammar, check_pdm_fsm,
                              derive_word, find_stem, loop_automaton,
                              loop_reach, loop_rules, loop_system,
                              pop_relation, post_star, token_free_word)
from paramck.explicit import check_explicit, replay
from paramck.reduction import restrict_network
from paramck import graph, parikh, pushdown
from abstraction_oracle import abstract_moves
import integer_oracle
import pushdown_oracle
from fixtures import (la, ca, random_deep_pdm_network,
                      random_pdm_leader_network, random_pdm_pdm_network)
from differential import bench_nets, fixture_nets
from test_cyclesearch import counting_solves
from test_machines import contributor_moves, leader_moves, leader_table
from test_trace import push_pop_network


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


def encode(net, d, g, Q):
    """The code of the configuration (d, g, Q), Q a set of states."""
    return net.moves.encode(AbstractConfig(d, g, frozenset(Q)))


def q_of(net, control):
    """The populated set of a control, as the bits of its code."""
    return control & net.moves.q_mask


def is_accepting(net, control):
    return net.moves.decode(control).leader_state in net.leader.accepting


def decoded_pairs(net, pairs):
    return [(net.moves.decode(control), gamma) for control, gamma in pairs]


def abstract_pdm_rules(net, control, top):
    """The abstract pushdown rules at (control, top) from the oracle scan,
    as (tid, control', replacement), controls as codes."""
    return [(t.tid, encode(net, d, g, Q), repl) for t, d, g, Q, repl
            in abstract_moves(net, *net.moves.decode(control), top)]


def test_move_table_shapes():
    net = counter_network()
    moves = net.moves
    init = net.moves.initial
    assert moves.decode(init) == ("d0", UNINIT, frozenset(["q0"]))
    # uninitialized store: the leader only reads, so only the contributor
    # write fires
    assert leader_table(moves, moves.key("d0", UNINIT), "Z") == []
    assert [(t.tid, g2) for t, g2 in contributor_moves(moves, UNINIT)] == \
        [("c0", "1"), ("c1", "2")]
    # a push keeps the old top below
    assert [(t.tid, d, g2, repl) for t, d, g2, repl
            in leader_moves(moves, "d0", "1", "Z")] == \
        [("d0", "d1", "1", ("A", "Z"))]
    # the pivots in breadth-first order: the initial one, then the write
    # to 1, then at ("d0", "1") the push and both contributor writes,
    # whose targets are in Q
    pairs = post_star(net)
    after_write = ("d0", "1", frozenset(["q0", "q1"]))
    assert decoded_pairs(net, pairs[:2]) == \
        [(moves.decode(init), "Z"), (after_write, "Z")]
    assert (("d1", "1", after_write[2]), "A") in decoded_pairs(net, pairs)


def test_post_star_finds_deep_tops():
    net = counter_network()
    pairs = post_star(net)
    tops = {gamma for _, gamma in pairs}
    assert tops == {"Z", "A"}
    # pivots come in breadth-first order, initial configuration first
    assert pairs[0] == (net.moves.initial, "Z")
    assert all(isinstance(control, int) for control, _ in pairs)


def loop_controls(net, Q):
    """All abstract controls whose populated set has the bits Q, paired
    with the seen-accepting bit, in the order of the whole rule table."""
    moves = net.moves
    out = []
    for d in sorted(net.leader.states, key=repr):
        for g in moves.stores:
            for b in (0, 1):
                out.append(((moves.key(d, g) << moves.width) | Q, b))
    return out


def table_nodes(net, Q):
    """Every node (state, top) of the loop automaton at Q, in table order."""
    return [(s, gamma) for s in loop_controls(net, Q)
            for gamma in net.leader.stack_alphabet]


def full_rule_table(net, Q):
    """loop_rules over every node of the table, as a dict."""
    rules_at = loop_rules(net)
    return {node: rules_at(*node) for node in table_nodes(net, Q)}


def test_pop_relation_on_loop_automaton():
    net = counter_network()
    Q = q_of(net, encode(net, "d0", UNINIT, ["q0", "q1"]))
    rules_at = loop_rules(net)
    _, P = pop_relation(rules_at, table_nodes(net, Q))

    def leader_state(s):
        return net.moves.decode(s[0]).leader_state
    # an A pushed at d1 can be popped again at d1 (read 1 up, read 2 down)
    assert any(leader_state(s) == "d1" and gamma == "A"
               and leader_state(s2) == "d1" for s, gamma, s2 in P)
    # nothing can pop the bottom symbol: no rule pops Z
    assert not any(gamma == "Z" for _, gamma, _ in P)
    # from one start only the nodes it reaches are built: the store is
    # never uninitialized again
    start = ((encode(net, "d1", "1", ["q0", "q1"]), 0), "A")
    rules, P = pop_relation(rules_at, [start])
    assert set(P) < set(pop_relation(rules_at, table_nodes(net, Q))[1])
    assert {net.moves.decode(code).store for (code, _), _ in rules} == \
        {"1", "2"}


def naive_loop_rules(net, state, top):
    """Loop-automaton rules at one (state, top), straight from the step
    kernel: abstract rules that keep Q fixed, with the sticky accepting bit
    folded into the control."""
    control, b = state
    out = []
    for tid, c2, repl in abstract_pdm_rules(net, control, top):
        if net.moves.decode(c2).Q != net.moves.decode(control).Q:
            continue
        b2 = 1 if is_accepting(net, c2) else b
        out.append((tid, (c2, b2), repl))
    return out


def naive_rule_table(net, Q):
    return {(s, gamma): naive_loop_rules(net, s, gamma)
            for s, gamma in table_nodes(net, Q)}


def naive_pop_relation(rules):
    """The pop relation by naive fixpoint: every round scans the whole rule
    table and, for each rule, the whole relation found so far."""
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
    return P


def pivot_qs(net):
    return list(dict.fromkeys(q_of(net, control)
                              for control, _ in post_star(net)))


def loop_test_nets():
    """The counter nets and 20 each of random PDM-leader, restricted
    PDM-PDM and deep PDM-leader nets."""
    rng = random.Random(31)
    nets = [counter_network(), counter_network(accept_high=True)]
    for _ in range(20):
        nets.append(random_pdm_leader_network(rng))
        nets.append(restrict_network(random_pdm_pdm_network(rng)))
        nets.append(random_deep_pdm_network(rng))
    return nets


def pivot_starts(net, pairs):
    """The start nodes of the pivots pairs, grouped by Q in post*'s order,
    as check_pdm_fsm gives them to loop_automaton."""
    starts = {}
    for control, gamma in pairs:
        starts.setdefault(q_of(net, control), []).append(
            _loop_ends(net, control, gamma)[0])
    return starts


def pivot_automata(net, pairs):
    """The loop automata check_pdm_fsm builds for the pivots pairs: one per
    Q, from the start nodes of all its pivots."""
    return {Q: loop_automaton(net, starts)
            for Q, starts in pivot_starts(net, pairs).items()}


def bfs_reach(net, automaton, control, gamma):
    """The nodes that the pivot's start reaches in the automaton's graph,
    by graph.bfs."""
    moves = automaton[2]
    return [node for node, _ in graph.bfs(
        _loop_ends(net, control, gamma)[0],
        lambda node: [succ for _, succ in moves[node]])]


def loop_grammar(net, control, gamma, automaton=None):
    """The pivot's loop grammar over the automaton (one built from the
    pivot's start alone if None), with the productions of every node in
    bfs_reach, whether or not loop_reach finds a nonempty loop there."""
    if automaton is None:
        automaton = loop_automaton(net, [_loop_ends(net, control, gamma)[0]])
    return build_loop_grammar(net, control, gamma, automaton,
                              bfs_reach(net, automaton, control, gamma))


def test_pop_relation_agrees_with_naive_fixpoint():
    # demanded from every node, the pop relation is the whole table's
    triples = 0
    for net in loop_test_nets():
        for Q in pivot_qs(net):
            rules = full_rule_table(net, Q)
            # the same rules in the same order as the step kernel gives
            assert rules == naive_rule_table(net, Q)
            demanded, P = pop_relation(loop_rules(net), list(rules))
            assert demanded == rules
            P0 = naive_pop_relation(rules)
            assert set(P) == set(P0)
            triples += len(P)
    assert triples > 500


def whole_graph(rules, P):
    """loop_automaton's graph over a whole rule table and its pop
    relation."""
    after = {}
    for s, gamma, x in P:
        after.setdefault((s, gamma), []).append(x)
    graph = {}
    for node, rs in rules.items():
        succ = graph[node] = []
        for _, s2, repl in rs:
            if repl:
                succ.append((s2, repl[0]))
            if len(repl) == 2:
                succ += [(x, repl[1]) for x in after.get((s2, repl[0]), ())]
    return graph


def whole_table_grammar(net, control, gamma):
    """The loop grammar with the productions of every node of the whole
    rule table at the pivot's Q, from the naive fixpoint, each index list
    in table order: build_loop_grammar given every node of the table as
    reached."""
    Q = q_of(net, control)
    rules = naive_rule_table(net, Q)
    rank = {s: i for i, s in enumerate(loop_controls(net, Q))}
    after = {}
    for s, g, x in naive_pop_relation(rules):
        after.setdefault((s, g), []).append(x)
    for xs in after.values():
        xs.sort(key=rank.__getitem__)
    return build_loop_grammar(net, control, gamma, (rules, after, None),
                              list(rules))


def test_demand_driven_automata_agree_with_the_whole_table():
    rng = random.Random(53)
    nets = loop_test_nets() + [gf_product_network(rng) for _ in range(100)]
    demanded = whole = passed = 0
    for net in nets:
        pairs = post_star(net)
        for Q, starts in pivot_starts(net, pairs).items():
            table = naive_rule_table(net, Q)
            P0 = naive_pop_relation(table)
            rules, P = pop_relation(loop_rules(net), starts)
            # the demanded nodes are what the starts reach in the whole
            # table's graph, with the same rules and the same triples
            moves = whole_graph(table, P0)
            reached = {node for start in starts
                       for node, _ in graph.bfs(start, moves.__getitem__)}
            assert set(rules) == reached
            assert all(rules[node] == table[node] for node in rules)
            assert set(P) == {t for t in P0 if t[:2] in reached}
            demanded += len(rules)
            whole += len(table)
        automata = pivot_automata(net, pairs)
        for control, gamma in pairs:
            automaton = automata[q_of(net, control)]
            # an accepting pivot's grammar keeps its start symbol for the
            # empty loop even where loop_reach finds no other
            if loop_reach(net, automaton, control, gamma) is not None or \
                    is_accepting(net, control):
                grammar = parikh.reduce_grammar(
                    loop_grammar(net, control, gamma, automaton))
                assert grammar == parikh.reduce_grammar(
                    whole_table_grammar(net, control, gamma))
                passed += 1
    assert passed >= 150 and 10 * demanded < whole


def test_check_builds_one_loop_automaton_per_q(monkeypatch):
    calls = []
    original = pushdown.pop_relation

    def counting(rules_at, starts, *args):
        if isinstance(starts[0][0], tuple):     # a loop automaton's state
            calls.append((q_of(net, starts[0][0][0]), starts))
        return original(rules_at, starts, *args)

    monkeypatch.setattr(pushdown, "pop_relation", counting)
    rng = random.Random(88)
    shared = 0
    for _ in range(50):
        net = random_pdm_leader_network(rng)
        calls.clear()
        v = check_pdm_fsm(net)
        pairs = post_star(net)
        checked = pairs[:v.stats["pivots_checked"]]
        qs = list(dict.fromkeys(q_of(net, control) for control, _ in checked))
        # one call per Q, with the start nodes of all of its pivots
        starts = pivot_starts(net, pairs)
        assert calls == [(Q, starts[Q]) for Q in qs]
        shared += len(checked) - len(qs)
    assert shared > 0


def gf_product_network(rng):
    """A random PDM-leader net whose leader is taken in product with "some
    leader action a infinitely often", so that many loops pass through
    controls that are not accepting."""
    net = random_pdm_leader_network(rng)
    actions = sorted({r.action for r in net.leader.rules}, key=str)
    a = rng.choice(actions)
    prop = Fsm(frozenset(["s0", "s1"]), "s0",
               tuple((s, b, "s1" if b == a else "s0")
                     for s in ("s0", "s1") for b in actions),
               frozenset(["s1"]))
    return make_network(net.values, buchi_product(prop, net.leader),
                        net.contributor)


def test_reachability_decides_the_reduced_grammar():
    rng = random.Random(53)
    nets = loop_test_nets() + [gf_product_network(rng) for _ in range(100)]
    verdicts = Counter()
    for net in nets:
        pairs = post_star(net)
        automata = pivot_automata(net, pairs)
        for control, gamma in pairs:
            automaton = automata[q_of(net, control)]
            grammar = parikh.reduce_grammar(
                loop_grammar(net, control, gamma, automaton))
            reached = loop_reach(net, automaton, control, gamma)
            found = reached is not None
            assert found == any(lhs == grammar.start and rhs
                                for lhs, rhs in grammar.productions)
            # a live pivot's search reaches what graph.bfs does
            assert reached in (None, bfs_reach(net, automaton, control, gamma))
            # an accepting pivot control starts with its bit set: the start
            # node is the accept node, and the empty loop is in the grammar
            accepting = is_accepting(net, control)
            assert (grammar.start in grammar.nonterminals) == \
                (found or accepting)
            verdicts[found, accepting] += 1
    assert verdicts[False, False] > 200
    assert verdicts[True, False] > 30      # accept reached from the start
    assert verdicts[True, True] > 60       # a nonempty loop at accept
    assert verdicts[False, True] > 30      # only the empty loop at accept


def text_network(leader, contributor, prop):
    """The network `paramck check` decides for the texts of its leader,
    contributor and property files, a PDM contributor restricted to its
    window."""
    (p, pvals), (l, lvals) = (parse_machine_file(text, LEADER)
                              for text in (prop, leader))
    c, cvals = parse_machine_file(contributor, CONTRIBUTOR)
    return replay_network(make_network(sorted({*pvals, *lvals, *cvals}),
                                       buchi_product(p, l), c))


def pdm_text_nets(nets):
    """(name, network) of the nets among (name, leader, contributor,
    property) texts whose leader is a PDM."""
    for name, *texts in nets:
        net = text_network(*texts)
        if isinstance(net.leader, Pdm):
            yield name, net


def test_token_free_words_are_models_that_replay():
    # on the pushdown bench nets and the pdm-fsm and pdm-pdm draws of the
    # differential set, at every pivot: the graph test finds a nonempty
    # loop word exactly when the reduced grammar has one, a pivot that it
    # drops has no model, and a token-free loop word is a model whose
    # lasso replays
    seen = Counter()
    for name, net in pdm_text_nets((*bench_nets(), *fixture_nets())):
        seen["nets"] += 1
        derivations = {}
        pairs = post_star(net, derivations=derivations)
        automata = pivot_automata(net, pairs)
        for control, gamma in pairs:
            automaton = automata[q_of(net, control)]
            grammar = parikh.reduce_grammar(
                loop_grammar(net, control, gamma, automaton))
            model = parikh.solve(loop_system(net, grammar))
            found = loop_reach(net, automaton, control, gamma) is not None
            assert found == any(lhs == grammar.start and rhs
                                for lhs, rhs in grammar.productions), name
            if not found:
                assert model is None, name
                seen["dropped", is_accepting(net, control)] += 1
                continue
            word = token_free_word(net, grammar)
            if word is None:
                seen["solved", model is not None] += 1
                continue
            assert model is not None, name
            moves = [net.transition(tid) for tid in word]
            assert all(t.src == t.dst for t in moves
                       if t.owner == CONTRIBUTOR), name
            stem = find_stem(net, control, gamma, derivations)
            witness = lasso(net, stem, net.moves.decode(control).Q, word,
                            gamma)
            assert replay(net, witness) == ("valid", None), name
            seen["token-free"] += 1
    assert seen["nets"] == 105
    assert seen["token-free"] > 100 and seen["dropped", True] > 50
    assert seen["dropped", False] > 200
    assert seen["solved", True] > 50 and seen["solved", False] > 10


def test_pushdown_bench_pass_makes_at_most_six_solves(monkeypatch):
    # without the token-free words the same pass makes 24 solves, and the
    # warm-up net 1
    calls = counting_solves(monkeypatch)
    solves = {}
    for name, net in pdm_text_nets(bench_nets()):
        before = len(calls)
        v = check_pdm_fsm(net)
        assert v.stats["solves"] == len(calls) - before
        solves[name] = v.stats["solves"]
    assert len(solves) == 25 and solves.pop("pushdown/warmup") == 0
    assert sum(solves.values()) <= 6


def unreachable_accepting_network():
    """The leader pushes forever at d0 and never reaches its accepting
    state d1, so no pivot's loop grammar derives a word."""
    rules = (PdmRule("d0", la("write", "1"), "Z", "d0", ("push", "A")),
             PdmRule("d0", la("write", "2"), "A", "d0", ("push", "A")),
             PdmRule("d1", la("read", "1"), "A", "d1", ("pop",)))
    leader = Pdm(frozenset(["d0", "d1"]), ("Z", "A"), "d0", rules,
                 frozenset(["d1"]))
    contrib = Fsm(frozenset(["q0", "q1"]), "q0",
                  (("q0", ca("read", "1"), "q1"),
                   ("q1", ca("write", "2"), "q0")))
    return make_network(["1", "2"], leader, contrib)


def test_check_builds_grammars_only_for_pivots_that_pass(monkeypatch):
    built = []
    original = pushdown.build_loop_grammar

    def counting(net, control, gamma, automaton, reached):
        built.append((control, gamma))
        return original(net, control, gamma, automaton, reached)

    monkeypatch.setattr(pushdown, "build_loop_grammar", counting)
    net = unreachable_accepting_network()
    v = check_pdm_fsm(net)
    assert v.kind == "EMPTY" and v.stats["pivots_checked"] >= 4
    assert built == []
    rng = random.Random(88)
    skipped = 0
    for _ in range(50):
        net = random_pdm_leader_network(rng)
        built.clear()
        v = check_pdm_fsm(net)
        checked = post_star(net)[:v.stats["pivots_checked"]]
        passing = [(control, gamma) for control, gamma in checked
                   if loop_reach(net, loop_automaton(
                       net, [_loop_ends(net, control, gamma)[0]]),
                       control, gamma) is not None]
        assert built == passing
        skipped += len(checked) - len(passing)
    assert skipped > 0


def test_shared_loop_automata_give_the_same_grammars():
    rng = random.Random(32)
    for _ in range(15):
        net = random_pdm_leader_network(rng)
        pairs = post_star(net)
        automata = pivot_automata(net, pairs)
        for control, gamma in pairs:
            start = _loop_ends(net, control, gamma)[0]
            assert loop_grammar(net, control, gamma,
                                automata[q_of(net, control)]) == \
                loop_grammar(net, control, gamma,
                             loop_automaton(net, [start]))
        assert list(automata) == pivot_qs(net)


def test_loop_grammar_derives_balanced_words():
    net = counter_network(accept_high=True)
    control = encode(net, "d1", "1", ["q0", "q1"])
    grammar = parikh.reduce_grammar(loop_grammar(net, control, "A"))
    assert grammar.start in grammar.nonterminals
    system = parikh.parikh_cfg(grammar)
    # d2 pushes an A at d1, d3 pops one; ask for a loop with at least one
    # pop.  The start row "= 1" is outside parikh.solve's class.
    model = integer_oracle.solve(system.conjoin(
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


def test_derive_word_splices_where_greedy_strands():
    # the leftmost derivation takes S -> A and strands S -> A S with a use
    # of A -> a; the leftovers form the context S => a S around the root
    g = parikh.Grammar(("S", "A"), ("a",), "S",
                       (("S", ("A",)), ("S", ("A", "S")), ("A", ("a",))))
    assert derive_word(g, {0: 1, 1: 1, 2: 2}) == ["a", "a"]
    # unbalanced: S is expanded twice but occurs on no right-hand side
    assert derive_word(g, {0: 2, 2: 2}) is None
    # the greedy tree S -> X W, X -> a, W -> b leaves W -> X W and X -> a:
    # X comes first in the tree, but only W lies on a cycle of leftovers
    g = parikh.Grammar(("S", "X", "W"), ("a", "b"), "S",
                       (("S", ("X", "W")), ("W", ("b",)),
                        ("W", ("X", "W")), ("X", ("a",))))
    assert derive_word(g, {0: 1, 1: 1, 2: 1, 3: 2}) == ["a", "a", "b"]
    # balanced but disconnected: nothing derives Y
    g = parikh.Grammar(("S", "Y"), ("a",), "S",
                       (("S", ("a",)), ("Y", ("a", "Y"))))
    assert derive_word(g, {0: 1, 1: 1}) is None


def test_derive_word_has_no_budget(monkeypatch):
    g = parikh.Grammar(("S", "A"), ("a",), "S",
                       (("S", ("A",)), ("S", ("A", "S")), ("A", ("a",))))
    monkeypatch.setenv("PARAMCK_BUDGET", "0")
    assert derive_word(g, {0: 1, 1: 400, 2: 401}) == ["a"] * 401


def tagged_cfg(rng):
    """A random grammar whose i-th production carries its own terminal t<i>,
    so the letters of a word count the productions of its derivation."""
    nts = tuple(f"N{i}" for i in range(rng.randint(1, 5)))
    prods = []
    for i in range(rng.randint(1, 8)):
        rhs = [rng.choice(nts + ("a",)) for _ in range(rng.randint(0, 3))]
        rhs.insert(rng.randint(0, len(rhs)), f"t{i}")
        prods.append((rng.choice(nts), tuple(rhs)))
    terminals = ("a",) + tuple(f"t{i}" for i in range(len(prods)))
    return parikh.Grammar(nts, terminals, nts[0], tuple(prods))


def earley_derives(g, word):
    """Earley recognizer for grammars without empty right-hand sides."""
    nts = set(g.nonterminals)
    chart = [set() for _ in range(len(word) + 1)]
    for k in range(len(word) + 1):
        agenda = []

        def add(item, k=k):
            if item not in chart[k]:
                chart[k].add(item)
                agenda.append(item)
        if k == 0:
            for lhs, rhs in g.productions:
                if lhs == g.start:
                    add((lhs, rhs, 0, 0))
        agenda.extend(chart[k])
        while agenda:
            lhs, rhs, dot, origin = agenda.pop()
            if dot == len(rhs):
                for l2, r2, d2, o2 in list(chart[origin]):
                    if d2 < len(r2) and r2[d2] == lhs:
                        add((l2, r2, d2 + 1, o2))
            elif rhs[dot] in nts:
                for l2, r2 in g.productions:
                    if l2 == rhs[dot]:
                        add((l2, r2, 0, k))
            elif k < len(word) and word[k] == rhs[dot]:
                chart[k + 1].add((lhs, rhs, dot + 1, origin))
    return any(lhs == g.start and dot == len(rhs) and origin == 0
               for lhs, rhs, dot, origin in chart[-1])


def test_derive_word_realizes_every_parikh_model():
    # models of parikh_cfg are balanced and connected; random lower bounds
    # on production counts make the greedy derivation strand leftovers
    rng = random.Random(31)
    models = stranded = 0
    while models < 3000:
        g = parikh.reduce_grammar(tagged_cfg(rng))
        system = parikh.parikh_cfg(g)
        if system.atoms == (parikh.FALSE,):
            continue
        bounds = [parikh.ge({f"y{i}": 1}, rng.randint(1, 3))
                  for i in range(len(g.productions)) if rng.random() < 0.4]
        model = integer_oracle.solve(system.conjoin(bounds))
        if model is None:
            continue
        models += 1
        counts = {i: model.get(f"y{i}", 0)
                  for i in range(len(g.productions))}
        word = derive_word(g, counts)
        assert word is not None
        tags = [next(sym for sym in rhs if sym.startswith("t"))
                for _, rhs in g.productions]
        assert {i: word.count(tags[i]) for i in counts} == counts
        assert word.count("a") == model.get(parikh.letter_var("a"), 0)
        assert earley_derives(g, word)
        greedy = leftmost_greedy(g, counts)
        if greedy is None:
            stranded += 1
        else:
            assert word == greedy
    assert stranded >= 100


def leftmost_greedy(g, counts):
    """The leftmost derivation that takes the first production with uses
    left, or None when it gets stuck or strands productions."""
    nts = set(g.nonterminals)
    left = dict(counts)
    word, stack = [], [g.start]
    while stack:
        sym = stack.pop()
        if sym not in nts:
            word.append(sym)
            continue
        i = next((i for i, (lhs, _) in enumerate(g.productions)
                  if lhs == sym and left.get(i)), None)
        if i is None:
            return None
        left[i] -= 1
        stack.extend(reversed(g.productions[i][1]))
    return word if not any(left.values()) else None


def is_abstract_chain(net, stem, pivot_control, pivot_symbol):
    """stem fires as abstract moves from the initial configuration and ends
    at the pivot control with the pivot symbol on top."""
    control, stack = net.moves.initial, (net.leader.bottom,)
    for t in stem:
        moves = [(c2, repl) for tid, c2, repl
                 in abstract_pdm_rules(net, control, stack[0])
                 if tid == t.tid]
        if len(moves) != 1:
            return False
        control, repl = moves[0]
        stack = repl + stack[1:]
        if not stack:
            return False
    return control == pivot_control and stack[0] == pivot_symbol


def test_pivots_and_stems_agree_with_the_post_star_automaton():
    # the pivots are the reachable (control, top) pairs that Schwoon's
    # post* automaton finds, the initial one first, and every stem read
    # back from the pop relation is an abstract chain to its pivot
    rng = random.Random(2024)
    nets = [counter_network(), counter_network(accept_high=True),
            deep_stem_network(8), doubling_calls_network(4)]
    nets += [random_pdm_leader_network(rng) for _ in range(40)]
    nets += [restrict_network(random_pdm_pdm_network(rng))
             for _ in range(40)]
    stems = Counter()
    for net in nets:
        derivations, reasons = {}, {}
        pairs = post_star(net, derivations=derivations)
        assert len(set(pairs)) == len(pairs)
        assert set(pairs) == set(pushdown_oracle.post_star(net,
                                                           reasons=reasons))
        assert pairs[0] == (net.moves.initial, net.leader.bottom)
        for control, gamma in pairs:
            stem = find_stem(net, control, gamma, derivations)
            assert is_abstract_chain(net, stem, control, gamma)
            if net.moves.decode(control).leader_state == "done":
                # every stem to done has the same length
                assert len(stem) == 2 ** 6 - 2 == len(
                    pushdown_oracle.find_stem(net, control, gamma, reasons))
                stems["done"] += 1
            stems["all"] += 1
    assert stems["all"] > 150 and stems["done"] == 1


def test_a_check_expands_each_pair_once(monkeypatch):
    # post* and the loop automata read the memo of net.moves: a loop
    # automaton's nodes are reachable pairs, so the check expands exactly
    # the pivots, each once
    expanded = Counter()
    expand = Codec.expand

    def counting(codec, code, top):
        expanded[(code, top)] += 1
        return expand(codec, code, top)

    monkeypatch.setattr(Codec, "expand", counting)
    rng = random.Random(25)
    nets = [counter_network(), counter_network(accept_high=True)]
    nets += [random_pdm_leader_network(rng) for _ in range(20)]
    nets += [restrict_network(random_pdm_pdm_network(rng)) for _ in range(10)]
    checked = 0
    for net in nets:
        expanded.clear()
        verdict = check_pdm_fsm(net)
        assert set(expanded.values()) == {1}
        assert len(expanded) == verdict.stats["pivots"]
        checked += verdict.stats["pivots_checked"]
    assert checked > 40


def test_budget_caps_the_stem():
    net = deep_stem_network(8)
    derivations = {}
    pairs = post_star(net, derivations=derivations)
    stems = {pair: find_stem(net, *pair, derivations) for pair in pairs}
    pivot = max(stems, key=lambda pair: len(stems[pair]))
    n = len(stems[pivot])
    assert n >= 8
    with pytest.raises(BudgetExceeded, match=f"stem longer than {n - 1}"):
        find_stem(net, *pivot, derivations, budget=n - 1)
    assert find_stem(net, *pivot, derivations, budget=n) == stems[pivot]


def test_a_stem_past_the_budget_is_a_budget_verdict(monkeypatch):
    # post* gets the default budget, so only the stem can run out
    net = deep_stem_network(8)
    saturate = pushdown.post_star
    monkeypatch.setattr(pushdown, "post_star",
                        lambda net, budget=None, derivations=None:
                        saturate(net, EXPLORE_BUDGET, derivations))
    monkeypatch.setenv("PARAMCK_BUDGET", "4")
    verdict, mode = run_check(net)
    assert (verdict.kind, mode) == ("BUDGET", "pdm-fsm")
    assert verdict.stats == {"reason": "stem longer than 4 moves"}


def doubling_calls_network(n):
    """A leader whose procedure P<i> calls P<i-1> twice, and P0 returns at
    once: s0 calls P<n> and reaches the accepting loop at done only after
    it returns, so every stem to done has 2**(n + 2) - 2 moves.  A call
    of P<i> pushes its return address, a<i> for the first and b<i> for the
    second, over the caller's, and ret pops it."""
    w = la("write", "0")
    entry = ["ret"] + [f"e{i}" for i in range(1, n + 1)]
    rules = [PdmRule("s0", w, "Z", entry[n], ("push", "M"))]
    for i in range(1, n + 1):
        for top in ["M"] if i == n else [f"a{i + 1}", f"b{i + 1}"]:
            rules += [PdmRule(f"e{i}", w, top, entry[i - 1], ("push", f"a{i}")),
                      PdmRule(f"m{i}", w, top, entry[i - 1], ("push", f"b{i}"))]
        rules += [PdmRule("ret", w, f"a{i}", f"m{i}", ("pop",)),
                  PdmRule("ret", w, f"b{i}", "ret", ("pop",))]
    rules += [PdmRule("ret", w, "M", "done", ("pop",)),
              PdmRule("done", w, "Z", "loop", ("push", "D")),
              PdmRule("loop", w, "D", "done", ("pop",))]
    leader = Pdm(frozenset(r.src for r in rules), ("Z", "M", "D") + tuple(
        f"{c}{i}" for i in range(1, n + 1) for c in "ab"), "s0", tuple(rules),
        frozenset(["done"]))
    contrib = Fsm(frozenset(["q0"]), "q0", (("q0", ca("read", "0"), "q0"),))
    return make_network(["0"], leader, contrib)


def test_a_stem_may_be_exponentially_longer_than_the_saturation(monkeypatch):
    # the saturation holds 74 pivots and 72 triples, and the stem to done
    # has 16,382 moves: the stem's budget check is not implied by the
    # saturation's
    net = doubling_calls_network(12)
    derivations = {}
    pairs = post_star(net, derivations=derivations)
    assert (len(pairs), len(derivations)) == (74, 146)
    control = next(c for c, _ in pairs
                   if net.moves.decode(c).leader_state == "done")
    assert len(find_stem(net, control, "Z", derivations)) == 2 ** 14 - 2
    monkeypatch.setenv("PARAMCK_BUDGET", "1000")
    verdict, _ = run_check(net)
    assert verdict.kind == "BUDGET"
    assert verdict.stats == {"reason": "stem longer than 1000 moves"}
    monkeypatch.setenv("PARAMCK_BUDGET", "100000")
    verdict, _ = run_check(net)
    assert verdict.kind == "NONEMPTY"
    assert replay(net, verdict.witness) == ("valid", None)


def renamed_leader_state(net, old, new):
    """net with the leader state old renamed to new."""
    leader = net.leader

    def name(d):
        return new if d == old else d
    rules = tuple(PdmRule(name(r.src), r.action, r.top, name(r.dst), r.effect)
                  for r in leader.rules)
    return make_network(net.values, Pdm(
        frozenset(map(name, leader.states)), leader.stack_alphabet,
        name(leader.initial), rules, frozenset(map(name, leader.accepting))),
        net.contributor)


def test_a_leader_state_named_mid_is_no_middle_state():
    # post* once told controls from its middle states ("mid", control,
    # symbol) by shape, so a leader state named mid made fake pivots
    rng = random.Random(5)
    kinds = Counter()
    for _ in range(300):
        net = random_deep_pdm_network(rng)
        verdict, _ = run_check(net)
        again, _ = run_check(renamed_leader_state(net, "p1", "mid"))
        assert (again.kind, again.stats) == (verdict.kind, verdict.stats)
        kinds[verdict.kind] += 1
    assert kinds["EMPTY"] > 50 and kinds["NONEMPTY"] > 50


def test_long_loop_builds_only_what_its_pivots_reach(monkeypatch, tmp_path):
    # counts, not wall clock: with the whole rule table, each loop
    # automaton of this check had 5,760 nodes and its grammar 19,089
    # productions, of which 3 survive reduction
    from perfbench.corpus import long_loop, write_corpus
    from perfbench.worker import load_network
    n = 240
    inst = long_loop(random.Random("pushdown:loop"), "loop", n)
    (_, *files), = write_corpus([inst], str(tmp_path))
    net = load_network(inst, files)
    nodes, productions = [], []
    automaton, grammar = pushdown.loop_automaton, pushdown.build_loop_grammar

    def counting_automaton(*args):
        rules, after, moves = automaton(*args)
        nodes.append(len(rules))
        return rules, after, moves

    def counting_grammar(*args):
        g = grammar(*args)
        productions.append(len(g.productions))
        return g

    monkeypatch.setattr(pushdown, "loop_automaton", counting_automaton)
    monkeypatch.setattr(pushdown, "build_loop_grammar", counting_grammar)
    verdict, _ = run_check(net)
    assert verdict.kind == "NONEMPTY"
    assert 0 < sum(nodes) <= 2 * (n + 2)
    assert 0 < sum(productions) <= 1000


def test_post_star_holds_at_most_budget_edges():
    # the budget counts the saturation's pivots and triples, and the
    # derivations hold each of them once
    net = push_pop_network()
    derivations = {}
    pairs = post_star(net, derivations=derivations)
    assert (len(pairs), len(derivations)) == (5, 7)
    with pytest.raises(BudgetExceeded, match="more than 6 pivots and triples"):
        post_star(net, 6)
    assert post_star(net, 7) == pairs


def deep_stem_network(d):
    """The leader pushes d symbols writing 0, then loops at s<d> writing 1
    (push) and reading it back (pop); the contributor only reads 1."""
    states = [f"s{i}" for i in range(d + 2)]
    rules = [PdmRule(states[i], la("write", "0"), "A" if i else "Z",
                     states[i + 1], ("push", "A")) for i in range(d)]
    rules += [PdmRule(states[d], la("write", "1"), "A", states[d + 1],
                      ("push", "A")),
              PdmRule(states[d + 1], la("read", "1"), "A", states[d],
                      ("pop",))]
    leader = Pdm(frozenset(states), ("Z", "A"), "s0", tuple(rules),
                 frozenset([states[d]]))
    contrib = Fsm(frozenset(["q0"]), "q0", (("q0", ca("read", "1"), "q0"),))
    return make_network(["0", "1"], leader, contrib)


def test_deep_stem_is_nonempty():
    # the stem pushes 30 symbols before the loop
    net = deep_stem_network(30)
    v = check_pdm_fsm(net)
    assert v.kind == "NONEMPTY"
    assert replay(net, v.witness) == ("valid", None)
    assert sum(1 for actor, _ in v.witness.stem if actor == 0) >= 30


def test_counter_nonempty_with_replay(monkeypatch):
    # a loop at the accepting d0 reads 1 and then 2, and only the moves
    # q0 w(1) q1 and q1 w(2) q0 write them: no loop is token-free, and the
    # pivot needs a solve
    calls = counting_solves(monkeypatch)
    net = counter_network()
    v = check_pdm_fsm(net)
    assert v.kind == "NONEMPTY"
    assert v.stats["solves"] == len(calls) >= 1
    assert v.witness.pivot is not None
    assert any(actor for actor, _ in v.witness.cycle)
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


def assert_nonempty_and_replays(net):
    verdict, mode = run_check(net)
    assert (verdict.kind, mode) == ("NONEMPTY", "pdm-fsm")
    assert replay(net, verdict.witness) == ("valid", None)


def test_pdm_fsm_token_rows_cover_undeclared_contributor_states():
    # the contributor declares q0 alone and moves through q1 and q2; each
    # needs its token row in the loop systems, or a model's loop leaves
    # tokens behind and does not replay
    leader = Pdm(frozenset(["p0", "p1"]), ("Z", "X"), "p0",
                 (PdmRule("p0", la("read", "1"), "Z", "p1", ("push", "X")),
                  PdmRule("p1", la("read", "3"), "X", "p0", ("push", "X")),
                  PdmRule("p0", la("read", "1"), "X", "p1", ("pop",)),
                  PdmRule("p1", la("read", "3"), "Z", "p0", ("push", "X"))),
                 frozenset(["p0"]))
    contrib = Fsm(frozenset(["q0"]), "q0", (("q0", ca("write", "1"), "q1"),
                                            ("q1", ca("write", "2"), "q2"),
                                            ("q2", ca("write", "3"), "q0")))
    net = make_network(["1", "2", "3"], leader, contrib)
    assert_nonempty_and_replays(net)
    assert [check_explicit(net, k, 3).kind for k in (1, 2, 3)] \
        == ["NONEMPTY"] * 3


def test_pdm_fsm_numbers_every_store():
    # stores in the table's order, UNINIT first and then by repr, so a
    # domain that mixes types sorts too
    leader = Pdm(frozenset(["p"]), ("Z", "A"), "p",
                 (PdmRule("p", la("read", 1), "Z", "p", ("push", "A")),
                  PdmRule("p", la("read", "a"), "A", "p", ("pop",))),
                 frozenset(["p"]))
    contrib = Fsm(frozenset(["q", "r"]), "q", (("q", ca("write", 1), "r"),
                                               ("r", ca("write", "a"), "q")))
    net = make_network([1, "a"], leader, contrib)
    assert net.moves.stores == (UNINIT, "a", 1)     # "'a'" < "1"
    assert_nonempty_and_replays(net)


def test_pdm_fsm_numbers_undeclared_states_and_values():
    # make_network does not validate: the leader and contributor move to
    # states they do not declare, and the contributor writes a value
    # outside the domain
    leader = Pdm(frozenset(["p0"]), ("Z", "A"), "p0",
                 (PdmRule("p0", la("read", "9"), "Z", "p1", ("push", "A")),
                  PdmRule("p1", la("read", "1"), "A", "p0", ("pop",))),
                 frozenset(["p0"]))
    contrib = Fsm(frozenset(["q0"]), "q0", (("q0", ca("write", "9"), "q1"),
                                            ("q1", ca("write", "1"), "q0")))
    net = make_network(["1"], leader, contrib)
    assert net.moves.stores == (UNINIT, "1", "9")
    assert_nonempty_and_replays(net)
