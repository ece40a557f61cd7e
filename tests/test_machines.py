import copy
import pickle
import random
from collections import Counter

import pytest

from paramck.machines import (AbstractConfig, Action, Codec, Fsm, Pdm,
                              PdmRule, Transition, UNINIT,
                              LEADER, CONTRIBUTOR, EXPLORE_BUDGET,
                              buchi_product, env_budget, make_network,
                              register_step, stack_step, step,
                              top_replacement, validate)
from paramck.fileformat import parse_machine_file
from paramck.cyclesearch import check_fsm_fsm, reachable_abstract
from paramck.pushdown import check_pdm_fsm, post_star
from paramck.reduction import restrict_network
from abstraction_oracle import abstract_moves
from fixtures import (la, ca, random_deep_pdm_network, random_fsm_leader,
                      random_fsm_network, random_pdm_leader,
                      random_pdm_leader_network, random_pdm_pdm_network,
                      ring_network, stalled_network, updown_pdm)


def test_action_str_roundtrip():
    assert str(la("read", "1")) == "r(1)"
    assert str(ca("write", "xyz")) == "w(xyz)"


def test_action_rejects_uninit_marker():
    with pytest.raises(ValueError):
        Action(LEADER, "read", UNINIT)


def test_action_rejects_bad_role_and_kind():
    with pytest.raises(ValueError):
        Action("neither", "read", "1")
    with pytest.raises(ValueError):
        Action(LEADER, "peek", "1")


def test_validate_flags_undeclared_pieces():
    fsm = Fsm(frozenset(["a"]), "b", (("a", la("read", "9"), "c"),))
    diags = validate(fsm, ["1"])
    text = " ".join(diags)
    assert "initial state" in text
    assert "'c'" in text
    assert "undeclared value '9'" in text


def test_validate_warns_on_unused_value():
    fsm = Fsm(frozenset(["a"]), "a", (("a", la("read", "1"), "a"),))
    diags = validate(fsm, ["1", "2"])
    assert diags == ["warning: value '2' unused"]


def test_validate_rejects_pushing_bottom():
    pdm = Pdm(frozenset(["q"]), ("Z", "A"), "q",
              (PdmRule("q", ca("read", "1"), "Z", "q", ("push", "Z")),))
    assert any("bottom symbol" in d for d in validate(pdm, ["1"]))


def test_validate_rejects_mixed_roles():
    fsm = Fsm(frozenset(["a"]), "a",
              (("a", la("read", "1"), "a"), ("a", ca("read", "1"), "a")))
    assert any("mixes" in d for d in validate(fsm, ["1"]))


def test_product_simple_acceptance():
    # leader with no own acceptance: product states are (property, leader)
    # pairs, accepting iff the property component is
    leader = Fsm(frozenset(["d0", "d1"]), "d0",
                 (("d0", la("write", "1"), "d1"),
                  ("d1", la("write", "1"), "d0")))
    prop = Fsm(frozenset(["s"]), "s", (("s", la("write", "1"), "s"),),
               frozenset(["s"]))
    prod = buchi_product(prop, leader)
    assert prod.initial == ("s", "d0")
    assert prod.accepting == frozenset([("s", "d0"), ("s", "d1")])
    assert len(prod.transitions) == 2


def test_product_degeneralizes_two_acceptance_sets():
    # leader acceptance on d1, property acceptance on s1: a run satisfies the
    # product iff it hits both infinitely often, tracked by the phase bit
    leader = Fsm(frozenset(["d0", "d1"]), "d0",
                 (("d0", la("write", "1"), "d1"),
                  ("d1", la("write", "1"), "d0")),
                 frozenset(["d1"]))
    prop = Fsm(frozenset(["s0", "s1"]), "s0",
               (("s0", la("write", "1"), "s1"),
                ("s1", la("write", "1"), "s0")),
               frozenset(["s1"]))
    prod = buchi_product(prop, leader)
    assert prod.initial == ("s0", "d0", 0)
    assert all(len(q) == 3 for q in prod.states)
    # only phase-0 property-accepting states accept
    assert all(q[2] == 0 and q[0] == "s1" for q in prod.accepting)


def brute_force_product(prop, leader):
    """The product by its definition, checked on every pair of product
    states: its states, initial state, accepting states and set of moves,
    each (src, action, dst) and, for a PDM leader, the rule's top and
    effect.  Phases are 0 and 1 when the leader has an acceptance set, and
    None (pairs for states) when not."""
    phases = [None] if leader.accepting is None else [0, 1]

    def state(a, d, i):
        return (a, d) if i is None else (a, d, i)

    def next_phase(i, a, d):
        if i == 0:
            return 1 if a in prop.accepting else 0
        if i == 1:
            return 0 if d in leader.accepting else 1
        return None

    triples = [(a, d, i) for a in prop.states for d in leader.states
               for i in phases]
    leader_moves = set(leader.transitions) if isinstance(leader, Fsm) else {
        (r.src, r.action, r.dst, r.top, r.effect) for r in leader.rules}
    moves = {(state(a, d, i), act, state(a2, d2, j), *rest)
             for a, d, i in triples for a2, d2, j in triples
             if j == next_phase(i, a, d)
             for src, act, dst, *rest in leader_moves
             if (src, dst) == (d, d2) and (a, act, a2) in prop.transitions}
    return ({state(*t) for t in triples},
            state(prop.initial, leader.initial, phases[0]),
            {state(a, d, i) for a, d, i in triples
             if a in prop.accepting and i in (0, None)}, moves)


def test_product_agrees_with_the_brute_force_product():
    # random property automata against random FSM and PDM leaders, each
    # with and without its own acceptance set
    rng = random.Random(31)
    values = ["1", "2"]
    seen = Counter()
    for _ in range(400):
        n = rng.randint(1, 3)
        prop_states = [f"s{i}" for i in range(n)]
        prop = Fsm(frozenset(prop_states), "s0", tuple(
            (rng.choice(prop_states),
             la(rng.choice(["read", "write"]), rng.choice(values)),
             rng.choice(prop_states)) for _ in range(rng.randint(1, 6))),
            frozenset(rng.sample(prop_states, rng.randint(0, n))))
        make = rng.choice([random_fsm_leader, random_pdm_leader])
        leader = make(rng, values)
        if rng.random() < 0.5:
            leader = leader._replace(accepting=None)
        prod = buchi_product(prop, leader)
        fsm = isinstance(leader, Fsm)
        seen[fsm, leader.accepting is None] += 1
        moves = prod.transitions if fsm else [
            (r.src, r.action, r.dst, r.top, r.effect) for r in prod.rules]
        assert type(prod) is type(leader)
        assert fsm or prod.stack_alphabet == leader.stack_alphabet
        assert (prod.states, prod.initial, prod.accepting, set(moves)) == \
            brute_force_product(prop, leader)
    assert len(seen) == 4 and min(seen.values()) >= 80


def test_product_requires_property_acceptance():
    leader = Fsm(frozenset(["d"]), "d", ())
    with pytest.raises(ValueError):
        buchi_product(Fsm(frozenset(["s"]), "s", ()), leader)


def test_product_rejects_contributor_actions_in_property():
    leader = Fsm(frozenset(["d"]), "d", ())
    prop = Fsm(frozenset(["s"]), "s", (("s", ca("read", "1"), "s"),),
               frozenset(["s"]))
    with pytest.raises(ValueError):
        buchi_product(prop, leader)


def test_network_tids_are_stable_and_ordered():
    net = ring_network()
    assert [t.tid for t in net.leader_transitions] == \
        [f"d{i}" for i in range(len(net.leader_transitions))]
    assert [t.tid for t in net.contributor_transitions] == \
        [f"c{i}" for i in range(9)]
    t = net.transition("c0")
    assert t.owner == CONTRIBUTOR
    assert t.src == "A" and t.dst == "B"


def test_transition_accessors_on_pdm_rules():
    rule = PdmRule("q0", ca("read", "1"), "Z", "q1", ("push", "A"))
    t = Transition(CONTRIBUTOR, "c0", rule)
    assert t.src == "q0" and t.dst == "q1"
    assert t.action == ca("read", "1")


def test_make_network_requires_buchi_leader():
    leader = Fsm(frozenset(["d"]), "d", ())
    contrib = Fsm(frozenset(["q"]), "q", ())
    with pytest.raises(ValueError):
        make_network(["1"], leader, contrib)


# ---------------------------------------------------------------------------
# step rules

def test_register_step_read_needs_stored_value_write_sets_it():
    assert register_step(ca("read", "1"), "1") == "1"
    assert register_step(ca("read", "1"), "2") is None
    assert register_step(ca("read", "1"), UNINIT) is None
    assert register_step(la("write", "2"), UNINIT) == "2"
    assert register_step(la("write", "2"), "1") == "2"


def test_top_replacement_push_pop_and_mismatch():
    _, (r_a, r_b, r_c) = updown_pdm()
    assert top_replacement(r_a, "Z") == ("X", "Z")
    assert top_replacement(r_b, "X") == ("X", "X")
    assert top_replacement(r_c, "X") == ()
    assert top_replacement(r_a, "X") is None
    assert top_replacement(r_c, "Z") is None


def test_stack_step_pushes_pops_and_never_empties():
    _, (r_a, r_b, r_c) = updown_pdm()
    assert stack_step(r_a, ("Z",)) == ("X", "Z")
    assert stack_step(r_b, ("X", "Z")) == ("X", "X", "Z")
    assert stack_step(r_c, ("X", "X", "Z")) == ("X", "Z")
    assert stack_step(r_a, ("X", "Z")) is None      # top does not match
    assert stack_step(r_c, ("X",)) is None          # a pop may not empty it
    assert stack_step(r_a, ()) is None              # a dead machine


def test_step_on_fsm_transitions():
    net = ring_network()
    c0, c1 = net.transition("c0"), net.transition("c1")   # A w(1) B, B r(3) C
    assert step(c0, "A", (), UNINIT) == ("B", (), "1")
    assert step(c0, "B", (), UNINIT) is None
    assert step(c1, "B", (), "3") == ("C", (), "3")
    assert step(c1, "B", (), "1") is None


def test_step_on_pdm_rules_needs_register_and_stack():
    rule = PdmRule("q0", ca("read", "1"), "X", "q1", ("pop",))
    t = Transition(CONTRIBUTOR, "c0", rule)
    assert step(t, "q0", ("X", "Z"), "1") == ("q1", ("Z",), "1")
    assert step(t, "q0", ("X", "Z"), "2") is None   # register rule fails
    assert step(t, "q0", ("Z",), "1") is None       # stack rule fails
    assert step(t, "q1", ("X", "Z"), "1") is None   # wrong source state


def leader_table(moves, key, top=None):
    """The leader's moves from key with top on its stack, (t, base,
    replacement) as in moves.leader: the move table's successors at an
    empty Q, where no contributor moves."""
    return moves.successors(key << moves.width, top)


def leader_moves(moves, d, g, top=None):
    """The leader's moves at leader state d, store g and top symbol top,
    decoded to (t, d', g', replacement)."""
    return [(t, *moves.decode(base)[:2], repl) for t, base, repl
            in leader_table(moves, moves.key(d, g), top)]


def contributor_moves(moves, g):
    """moves.contributor on store g, decoded to (t, g'), once the source
    and target bits are checked to be those of t's states."""
    i = moves.store_index[g]
    out = []
    for t, src, dst, shift in moves.contributor[i]:
        assert (src, dst) == (moves.bit[t.src], moves.bit[t.dst])
        assert shift % (1 << moves.width) == 0
        out.append((t, moves.stores[i + (shift >> moves.width)]))
    return out


def test_move_table_on_fsm_leader_indexes_moves_by_source():
    net = ring_network()
    moves = net.moves
    assert net.moves is moves             # built once, on first use
    assert moves.stores == (UNINIT, "1", "2", "3")
    # an FSM leader's moves have no top symbol and keep the stack; the
    # target code has Q empty
    assert leader_table(moves, moves.key(("s0", "p0"), "1")) == \
        [(net.transition("d0"), moves.key(("s1", "p1"), "1") << moves.width,
          (None,))]
    assert leader_moves(moves, ("s0", "p0"), "1") == \
        [(net.transition("d0"), ("s1", "p1"), "1", (None,))]
    assert leader_table(moves, moves.key(("s0", "p0"), "2")) == []
    # the contributor moves on a store, whatever their source, in tid
    # order; B's only move reads 3 and is not there on store 1
    assert [(t.tid, g2) for t, g2 in contributor_moves(moves, "1")] == \
        [("c0", "1"), ("c2", "1"), ("c3", "2"), ("c4", "1"), ("c6", "3")]
    assert [t.tid for t, _ in contributor_moves(moves, UNINIT)] == \
        ["c0", "c3", "c6"]


def test_move_table_on_pdm_leader_reports_top_replacement():
    pdm, _ = updown_pdm()
    leader = Pdm(pdm.states, pdm.stack_alphabet, pdm.initial,
                 tuple(PdmRule(r.src, la(r.action.kind, r.action.value),
                               r.top, r.dst, r.effect) for r in pdm.rules),
                 frozenset(pdm.states))
    contrib = Fsm(frozenset(["q"]), "q", (("q", ca("read", "3"), "q"),))
    net = make_network(["1", "2", "3"], leader, contrib)
    moves = net.moves
    assert [(t.tid, d, g2, repl) for t, d, g2, repl
            in leader_moves(moves, "p", "3", "X")] == \
        [("d1", "p", "2", ("X", "X")), ("d2", "p", "3", ())]
    assert [t.tid for t, *_ in leader_moves(moves, "p", "2", "Z")] == ["d0"]
    # a write fires on every store, the uninitialized one too
    assert all(leader_table(moves, moves.key("p", g), "Z")
               for g in moves.stores)
    assert [(t.tid, g2) for t, g2 in contributor_moves(moves, "3")] == \
        [("c0", "3")]
    assert contributor_moves(moves, "1") == []
    assert moves.accepting == [True] * len(moves.stores)


def mixed_domain_network():
    """A domain of mixed types, and a value no declaration names."""
    return make_network(
        [1, "a"],
        Fsm(frozenset(["p"]), "p", (("p", la("read", 1), "p"),),
            frozenset(["p"])),
        Fsm(frozenset(["q", "r"]), "q", (("q", ca("write", 1), "r"),
                                         ("r", ca("write", "9"), "q"))))


def oracle_nets():
    rng = random.Random(16)
    nets = [ring_network(), stalled_network()]
    for _ in range(20):
        nets.append(random_fsm_network(rng))
        nets.append(random_pdm_leader_network(rng))
        nets.append(random_deep_pdm_network(rng))
        nets.append(restrict_network(random_pdm_pdm_network(rng)))
    nets.append(mixed_domain_network())
    return nets


def test_move_table_agrees_with_the_oracle_scan():
    rng = random.Random(61)
    compared = 0
    for net in oracle_nets():
        moves = net.moves
        values = {t.action.value for t in
                  net.leader_transitions + net.contributor_transitions}
        assert set(moves.stores) == {UNINIT} | set(net.values) | values
        states = {s for t in net.leader_transitions for s in (t.src, t.dst)}
        assert moves.leader_states == \
            tuple(sorted(states | set(net.leader.states), key=repr))
        tops = net.leader.stack_alphabet if isinstance(net.leader, Pdm) \
            else (None,)
        contributor = sorted(net.contributor.states, key=repr)
        qs = [frozenset(), frozenset([net.contributor.initial]),
              frozenset(contributor),
              frozenset(rng.sample(contributor, len(contributor) // 2))]
        for d in moves.leader_states:
            for g in moves.stores:
                assert moves.accepting[moves.key(d, g)] == \
                    (d in net.leader.accepting)
                for top in tops:
                    for Q in qs:
                        code = moves.encode(AbstractConfig(d, g, Q))
                        table = [(t, *moves.decode(c2), repl) for t, c2, repl
                                 in moves.successors(code, top)]
                        # the same moves in the same order
                        assert table == abstract_moves(net, d, g, Q, top)
                        compared += len(table)
    assert compared > 5000


def scanned_leader_moves(net, moves, d, g, top):
    """The leader's moves at leader state d, store g and top, as (t, base,
    replacement), by a scan of every leader transition."""
    out = []
    for t in net.leader_transitions:
        repl = (None,) if top is None else top_replacement(t.payload, top)
        g2 = register_step(t.action, g)
        if t.src == d and repl is not None and g2 is not None:
            out.append((t, moves.key(t.dst, g2) << moves.width, repl))
    return out


def test_move_lists_agree_with_the_transition_scan():
    # every (key, top) list and every store's contributor list, built
    # from the value a move reads or writes, against a scan that applies
    # the register rule to each transition on each store; most keys are
    # ones that the check's own search never reaches
    compared = unreached = 0
    for net in oracle_nets():
        moves = net.moves
        pdm = isinstance(net.leader, Pdm)
        reached = {code >> moves.width for code, _ in post_star(net)} if pdm \
            else {code >> moves.width for code in reachable_abstract(net).order}
        tops = net.leader.stack_alphabet if pdm else (None,)
        for d in moves.leader_states:
            for g in moves.stores:
                key = moves.key(d, g)
                unreached += key not in reached
                for top in tops:
                    table = leader_table(moves, key, top)
                    assert table == scanned_leader_moves(net, moves, d, g, top)
                    compared += len(table)
        for i, g in enumerate(moves.stores):
            assert moves.contributor[i] == [
                (t, moves.bit[t.src], moves.bit[t.dst],
                 (moves.store_index[g2] - i) << moves.width)
                for t in net.contributor_transitions
                if (g2 := register_step(t.action, g)) is not None]
            compared += len(moves.contributor[i])
    assert compared > 1000 and unreached > 300


def test_transitions_and_parsed_actions_are_immutable_values():
    act = la("read", "1")
    t = Transition(LEADER, "d0", ("p", act, "q"))
    same = Transition(owner=LEADER, tid="d0",
                      payload=("p", la("read", "1"), "q"))
    assert t == same and hash(t) == hash(same) and {t: 1}[same] == 1
    assert (t.owner, t.tid, t.payload, t.src, t.action, t.dst) == \
        (LEADER, "d0", ("p", act, "q"), "p", act, "q")
    assert t != Transition(LEADER, "d1", ("p", act, "q"))
    assert t != Transition(CONTRIBUTOR, "d0", ("p", act, "q"))
    assert t != Transition(LEADER, "d0", ("p", act, "p"))
    assert repr(t) == ("Transition(owner='leader', tid='d0', payload=('p', "
                       "Action(role='leader', kind='read', value='1'), 'q'))")
    rule = PdmRule("p", act, "Z", "q", ("pop",))
    r = Transition(CONTRIBUTOR, "c0", rule)
    assert (r.src, r.action, r.dst, r.moves_token) == ("p", act, "q", True)
    assert repr(r) == f"Transition(owner='contributor', tid='c0', " \
                      f"payload={rule!r})"
    for name in ("owner", "tid", "payload", "src", "action", "dst", "other"):
        with pytest.raises(AttributeError):
            setattr(t, name, "x")
    assert pickle.loads(pickle.dumps(r)) == r
    assert copy.deepcopy(t) == t
    # a parsed file makes one Action per token, equal to a fresh one
    fsm, _ = parse_machine_file(
        "kind = fsm\nvalues = 1\nstates = p q\ninitial = p\n"
        "trans = p r(1) q\ntrans = q r(1) p\ntrans = q w(1) q\n", LEADER)
    (_, a, _), (_, b, _), (_, c, _) = fsm.transitions
    assert a is b and a == act and hash(a) == hash(act)
    assert c == Action(LEADER, "write", "1") and c != a
    assert repr(a) == "Action(role='leader', kind='read', value='1')"
    with pytest.raises(AttributeError):
        a.value = "2"


def test_a_second_check_on_a_network_expands_nothing(monkeypatch):
    # net.moves keeps its move lists past a check: a second check on the
    # same network reads them all and decides as the first did
    expanded = []
    expand = Codec.expand

    def counting(codec, code, top):
        expanded.append((code, top))
        return expand(codec, code, top)

    monkeypatch.setattr(Codec, "expand", counting)
    rng = random.Random(7)
    nets = [("fsm-fsm", ring_network()), ("fsm-fsm", stalled_network())]
    for _ in range(10):
        nets += [("fsm-fsm", random_fsm_network(rng)),
                 ("pdm-fsm", random_pdm_leader_network(rng)),
                 ("pdm-pdm", restrict_network(random_pdm_pdm_network(rng)))]
    seen, work = Counter(), Counter()
    for mode, net in nets:
        check = check_pdm_fsm if isinstance(net.leader, Pdm) else check_fsm_fsm
        expanded.clear()
        first = check(net)
        n = len(expanded)
        second = check(net)
        assert len(expanded) == n
        assert (second.kind, second.witness, second.stats) == \
            (first.kind, first.witness, first.stats)
        seen[mode, first.kind] += 1
        work[mode] += n
    assert all(seen[mode, kind] for mode in work
               for kind in ("EMPTY", "NONEMPTY"))
    assert min(work.values()) > 10


def test_codes_sort_as_their_configurations():
    # loop_automaton and build_loop_grammar sort codes, and the grammars,
    # so the witnesses, depend on that order: by leader state in repr
    # order, then by the store's position in stores, at one Q
    rng = random.Random(23)
    nets = [random_fsm_network(rng) for _ in range(10)]
    nets += [random_pdm_leader_network(rng) for _ in range(10)]
    nets.append(mixed_domain_network())
    compared = 0
    for net in nets:
        moves = net.moves
        contributor = sorted(moves.contributor_states, key=repr)
        for Q in (frozenset([net.contributor.initial]), frozenset(contributor),
                  frozenset(rng.sample(contributor, len(contributor) // 2))):
            states = [(moves.encode(AbstractConfig(d, g, Q)), b)
                      for d in moves.leader_states for g in moves.stores
                      for b in (0, 1)]
            rng.shuffle(states)
            assert [(moves.decode(c), b) for c, b in sorted(states)] == \
                sorted(((moves.decode(c), b) for c, b in states),
                       key=lambda s: (repr(s[0].leader_state),
                                      moves.stores.index(s[0].store), s[1]))
            compared += len(states)
    assert compared > 500


def test_env_budget_reads_an_integer_or_falls_back(monkeypatch):
    monkeypatch.delenv("PARAMCK_BUDGET", raising=False)
    assert env_budget() == EXPLORE_BUDGET
    for raw, budget in (("42", 42), ("1", 1), (" 7\n", 7)):
        monkeypatch.setenv("PARAMCK_BUDGET", raw)
        assert env_budget() == budget
    for raw in ("lots", "0", "-3", "", "2.5"):
        monkeypatch.setenv("PARAMCK_BUDGET", raw)
        with pytest.raises(ValueError, match="PARAMCK_BUDGET"):
            env_budget()


def test_env_budget_takes_ascii_digits_only(monkeypatch):
    # other scripts' decimal digits, signs, underscores and more digits
    # than int converts are refused with the same message; whitespace
    # around ASCII digits is still allowed
    for raw, budget in (("\t12 ", 12), ("0010", 10)):
        monkeypatch.setenv("PARAMCK_BUDGET", raw)
        assert env_budget() == budget
    for raw in ("\u0661\u0660", "\uff11", "+5", "1_000", "1" * 5000,
                "\u0661"):
        monkeypatch.setenv("PARAMCK_BUDGET", raw)
        with pytest.raises(ValueError) as e:
            env_budget()
        assert str(e.value) == ("PARAMCK_BUDGET must be an integer of at"
                                f" least 1, not {raw!r}")
