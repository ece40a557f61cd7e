"""The package's records are immutable named tuples: each keeps the
constructor, field order, defaults, repr and hash of the frozen dataclass
it replaced, and pickles and deep-copies by value."""

import copy
import os
import pickle
import subprocess
import sys

import pytest

import paramck
from paramck.explicit import ConcreteConfig, Verdict, Witness
from paramck.graph import Exploration
from paramck.machines import (CONTRIBUTOR, LEADER, READ, UNINIT, WRITE,
                              AbstractConfig, Action, Codec, Fsm, Network,
                              Pdm, PdmRule, Transition, make_network)
from paramck.parikh import Fsa, Grammar, LinearSystem
from fixtures import ring_network

ACT = Action(LEADER, READ, "1")
ACT_TEXT = "Action(role='leader', kind='read', value='1')"
RULE = PdmRule("p", ACT, "A", "q", ("pop",))
RULE_TEXT = (f"PdmRule(src='p', action={ACT_TEXT}, top='A', dst='q',"
             " effect=('pop',))")
LEADER_FSM = Fsm(frozenset({"p"}), "p", (("p", ACT, "p"),), frozenset({"p"}))
LEADER_TEXT = (f"Fsm(states=frozenset({{'p'}}), initial='p', transitions="
               f"(('p', {ACT_TEXT}, 'p'),), accepting=frozenset({{'p'}}))")
CONTRIBUTOR_FSM = Fsm(frozenset({"q"}), "q", ())
CONTRIBUTOR_TEXT = ("Fsm(states=frozenset({'q'}), initial='q', transitions=(),"
                    " accepting=None)")
WITNESS = Witness(1, ((0, "d0"),), ((0, "d0"),))
WITNESS_TEXT = "Witness(k=1, stem=((0, 'd0'),), cycle=((0, 'd0'),), pivot=None)"

# (record type, every field by name in order, the repr, the fields that
# may be left out and their defaults); each repr is the one the frozen
# dataclass (typing.NamedTuple for AbstractConfig and Exploration) gave
RECORDS = [
    (Action, dict(role=LEADER, kind=READ, value="1"), ACT_TEXT, {}),
    (Fsm, dict(states=frozenset({"q"}), initial="q", transitions=(),
               accepting=None), CONTRIBUTOR_TEXT, {"accepting": None}),
    (PdmRule, dict(src="p", action=ACT, top="A", dst="q", effect=("pop",)),
     RULE_TEXT, {}),
    (Pdm, dict(states=frozenset({"p"}), stack_alphabet=("A",), initial="p",
               rules=(RULE,), accepting=None),
     f"Pdm(states=frozenset({{'p'}}), stack_alphabet=('A',), initial='p',"
     f" rules=({RULE_TEXT},), accepting=None)", {"accepting": None}),
    (Network, dict(values=frozenset({"1"}), leader=LEADER_FSM,
                   contributor=CONTRIBUTOR_FSM, leader_transitions=(),
                   contributor_transitions=()),
     f"Network(values=frozenset({{'1'}}), leader={LEADER_TEXT}, contributor="
     f"{CONTRIBUTOR_TEXT}, leader_transitions=(), contributor_transitions=())",
     {"leader_transitions": (), "contributor_transitions": ()}),
    (AbstractConfig, dict(leader_state="p", store=UNINIT, Q=frozenset({"q"})),
     "AbstractConfig(leader_state='p', store='#', Q=frozenset({'q'}))", {}),
    (ConcreteConfig, dict(leader_state="p", leader_stack=(), store=UNINIT,
                          population=(("q", 1),)),
     "ConcreteConfig(leader_state='p', leader_stack=(), store='#',"
     " population=(('q', 1),))", {}),
    (Witness, dict(k=1, stem=((0, "d0"),), cycle=((0, "d0"),), pivot=None),
     WITNESS_TEXT, {"pivot": None}),
    (Verdict, dict(kind="NONEMPTY", witness=WITNESS, stats={"solves": 1}),
     f"Verdict(kind='NONEMPTY', witness={WITNESS_TEXT},"
     " stats={'solves': 1})", {"witness": None}),
    (LinearSystem, dict(variables=("x",), atoms=()),
     "LinearSystem(variables=('x',), atoms=())", {}),
    (Fsa, dict(states=("a",), edges=(("a", "t", "a"),), initial="a",
               final="a"),
     "Fsa(states=('a',), edges=(('a', 't', 'a'),), initial='a', final='a')",
     {}),
    (Grammar, dict(nonterminals=("S",), terminals=("t",), start="S",
                   productions=(("S", ("t",)),)),
     "Grammar(nonterminals=('S',), terminals=('t',), start='S',"
     " productions=(('S', ('t',)),))", {}),
    (Exploration, dict(order=[1], edges={}, parent={1: None}),
     "Exploration(order=[1], edges={}, parent={1: None})", {}),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.mark.parametrize("cls, fields, text, defaults", RECORDS, ids=IDS)
def test_records_keep_constructor_fields_defaults_and_repr(cls, fields, text,
                                                           defaults):
    values = tuple(fields.values())
    rec = cls(**fields)
    assert rec == cls(*values) and repr(rec) == text
    assert tuple(getattr(rec, name) for name in fields) == values
    # equal by value, also to a plain tuple, and hashed as one
    assert rec == values and type(rec) is cls
    if cls not in (Verdict, Exploration):      # they hold dicts or lists
        assert hash(rec) == hash(values)
    required = {k: v for k, v in fields.items() if k not in defaults}
    short = cls(**required)
    assert {name: getattr(short, name) for name in defaults} == defaults
    assert rec._replace() == rec and rec._replace() is not rec


@pytest.mark.parametrize("cls, fields, text, defaults", RECORDS, ids=IDS)
def test_records_are_immutable_and_copy_by_value(cls, fields, text,
                                                 defaults):
    rec = cls(**fields)
    for name in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(rec, name, "x")
    for twin in (pickle.loads(pickle.dumps(rec)), copy.deepcopy(rec)):
        assert twin == rec and type(twin) is cls and repr(twin) == text


def test_a_network_pickles_and_copies_with_its_moves():
    net = ring_network()
    moves = net.moves
    assert net.transition("c0").tid == "c0"
    for twin in (pickle.loads(pickle.dumps(net)), copy.deepcopy(net)):
        assert twin == net and type(twin.moves) is Codec
        assert twin.moves is not moves
        assert (twin.moves.initial, twin.moves.stores) == \
            (moves.initial, moves.stores)
        assert twin.transition("c0") == net.transition("c0")
    # a copy made with _replace builds its own moves
    fresh = net._replace()
    assert "moves" not in vars(fresh) and fresh.moves is not moves
    assert fresh.moves.initial == moves.initial


def test_pdm_bottom_and_conjoin_stay():
    pdm = Pdm(frozenset({"p"}), ("A", "B"), "p", (RULE,))
    assert pdm.bottom == "A"
    system = LinearSystem(("x",), (("le", {"x": 1}, 2),))
    both = system.conjoin([("le", {"x": -1}, 0)])
    assert type(both) is LinearSystem and both.variables == ("x",)
    assert both.atoms == (("le", {"x": 1}, 2), ("le", {"x": -1}, 0))


def test_actions_validate_however_they_are_made():
    for args in (("boss", READ, "1"), (LEADER, "peek", "1"),
                 (LEADER, READ, UNINIT)):
        with pytest.raises(ValueError):
            Action(*args)
    with pytest.raises(ValueError):
        ACT._replace(value=UNINIT)
    assert ACT._replace(value="2") == Action(LEADER, READ, "2")
    assert str(ACT) == "r(1)"


def test_a_replaced_transition_payload_gives_its_src_action_and_dst():
    t = Transition(LEADER, "d0", ("p", ACT, "q"))
    u = t._replace(payload=RULE._replace(dst="r"))
    assert u == Transition(LEADER, "d0", RULE._replace(dst="r"))
    assert (u.src, u.action, u.dst) == ("p", ACT, "r")
    assert t._replace(tid="d1") == Transition(LEADER, "d1", ("p", ACT, "q"))


def test_each_verdict_made_without_stats_gets_its_own_dict():
    first, second = Verdict("EMPTY"), Verdict("EMPTY", None)
    assert first.stats == {} and first.stats is not second.stats
    first.stats["solves"] = 1
    assert second.stats == {} and Verdict("EMPTY", stats=None).stats == {}
    assert first != second      # stats take part in equality


def test_make_network_numbers_fsm_and_pdm_transitions():
    pdm = Pdm(frozenset({"p", "q"}), ("A",), "p", (RULE,), frozenset({"p"}))
    contributor = Fsm(frozenset({"q"}), "q",
                      (("q", Action(CONTRIBUTOR, WRITE, "1"), "q"),))
    net = make_network(["1"], pdm, contributor)
    assert net.leader_transitions == (Transition(LEADER, "d0", RULE),)
    assert net.contributor_transitions == (
        Transition(CONTRIBUTOR, "c0", contributor.transitions[0]),)
    assert [(t.src, t.dst) for t in net.leader_transitions
            + net.contributor_transitions] == [("p", "q"), ("q", "q")]


def test_the_cli_imports_no_dataclasses_typing_or_numeric_stack():
    # -S keeps site's own imports out of sys.modules
    src = os.path.dirname(os.path.dirname(paramck.__file__))
    code = ("import sys, paramck.cli; print(*sorted({m.split('.')[0] for m"
            " in sys.modules} & {'dataclasses', 'inspect', 'typing',"
            " 'numpy', 'scipy'}))")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == []
