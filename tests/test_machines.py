import pytest

from paramck.machines import (Action, Fsm, Pdm, PdmRule, Transition, UNINIT,
                              LEADER, CONTRIBUTOR, EXPLORE_BUDGET,
                              abstract_moves,
                              buchi_product, env_budget, make_network,
                              register_step, stack_step, step,
                              top_replacement, validate)
from fixtures import la, ca, ring_network, updown_pdm


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


def test_abstract_moves_on_fsm_leader_keep_order_and_grow_q():
    net = ring_network()
    moves = abstract_moves(net, ("s0", "p0"), "1", frozenset("AB"))
    # leader moves first, then contributor moves, each in tid order; B's
    # only move reads 3 and is not enabled on store 1
    assert [m[0].tid for m in moves] == ["d0", "c0", "c3", "c6"]
    assert moves[0][1:] == (("s1", "p1"), "1", frozenset("AB"), (None,))
    assert moves[1][1:] == (("s0", "p0"), "1", frozenset("AB"), (None,))
    assert moves[2][1:] == (("s0", "p0"), "2", frozenset("ABD"), (None,))
    assert moves[3][1:] == (("s0", "p0"), "3", frozenset("ABF"), (None,))
    # no populated contributor state, no contributor move
    assert [m[0].tid for m in abstract_moves(
        net, ("s0", "p0"), "1", frozenset())] == ["d0"]


def test_abstract_moves_on_pdm_leader_report_top_replacement():
    pdm, _ = updown_pdm()
    leader = Pdm(pdm.states, pdm.stack_alphabet, pdm.initial,
                 tuple(PdmRule(r.src, la(r.action.kind, r.action.value),
                               r.top, r.dst, r.effect) for r in pdm.rules),
                 frozenset(pdm.states))
    contrib = Fsm(frozenset(["q"]), "q", (("q", ca("read", "3"), "q"),))
    net = make_network(["1", "2", "3"], leader, contrib)
    moves = abstract_moves(net, "p", "3", frozenset(["q"]), top="X")
    assert [(m[0].tid, m[2], m[4]) for m in moves] == \
        [("d1", "2", ("X", "X")), ("d2", "3", ()), ("c0", "3", ("X",))]
    assert [m[0].tid for m in abstract_moves(
        net, "p", "2", frozenset(["q"]), top="Z")] == ["d0"]


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
