import pytest

from paramck.machines import Fsm, Pdm, CONTRIBUTOR, LEADER
from paramck.explicit import Witness
from paramck.fileformat import (ParseError, parse_machine_file, parse_witness,
                                print_machine, print_witness)


FSM_TEXT = """\
# a comment line
kind = buchi-fsm
values = 1 2
states = p0 p1
initial = p0
accepting = p1
trans = p0 r(1) p1   # trailing comment
trans = p1 w(2) p0
"""

PDM_TEXT = """\
kind = pdm
values = 1
states = q0 q1
initial = q0
stack = Z X
rule = q0 w(1) Z -> q1 push X
rule = q1 r(1) X -> q0 pop
"""


def test_parse_buchi_fsm():
    machine, values = parse_machine_file(FSM_TEXT, LEADER)
    assert isinstance(machine, Fsm)
    assert values == ["1", "2"]
    assert machine.initial == "p0"
    assert machine.accepting == frozenset(["p1"])
    (src, act, dst), (src2, act2, dst2) = machine.transitions
    assert (src, dst) == ("p0", "p1")
    assert act.role == LEADER and act.kind == "read" and act.value == "1"
    assert act2.kind == "write" and act2.value == "2"


def test_parse_pdm():
    machine, values = parse_machine_file(PDM_TEXT, CONTRIBUTOR)
    assert isinstance(machine, Pdm)
    assert machine.stack_alphabet == ("Z", "X")
    assert machine.accepting is None
    push, pop = machine.rules
    assert push.effect == ("push", "X") and push.top == "Z"
    assert pop.effect == ("pop",) and pop.action.kind == "read"
    assert pop.action.role == CONTRIBUTOR


def test_machine_round_trip():
    for text, role in ((FSM_TEXT, LEADER), (PDM_TEXT, CONTRIBUTOR)):
        machine, values = parse_machine_file(text, role)
        again, values2 = parse_machine_file(print_machine(machine, values), role)
        assert again == machine and values2 == values


@pytest.mark.parametrize("text,line,msg", [
    ("kind = dfa\n", 1, "unknown kind"),
    ("kind = fsm\nvalues =\n", 2, "empty value domain"),
    ("kind = fsm\nvalues = 1\nstates = p\ninitial = p q\n", 4,
     "exactly one state"),
    ("kind = fsm\nvalues = 1\nstates = p\ninitial = p\ntrans = p r(1)\n", 5,
     "trans takes"),
    ("kind = fsm\nvalues = 1\nstates = p\ninitial = p\ntrans = p read1 p\n", 5,
     "bad action"),
    ("kind = pdm\nvalues = 1\nstates = p\ninitial = p\nstack = Z\n"
     "rule = p r(1) Z p pop\n", 6, "rule takes"),
    ("kind = fsm\nkind = fsm\n", 2, "duplicate"),
    ("just some text\n", 1, "key = value"),
    ("kind = fsm\nvalues = 1\nstates = p\ninitial = p\ncolor = red\n", 5,
     "unknown key"),
])
def test_machine_parse_errors_carry_line_numbers(text, line, msg):
    with pytest.raises(ParseError) as e:
        parse_machine_file(text, LEADER)
    assert e.value.line_no == line
    assert msg in str(e.value)


@pytest.mark.parametrize("text,msg", [
    ("values = 1\nstates = p\ninitial = p\n", "missing `kind =`"),
    ("kind = fsm\nstates = p\ninitial = p\n", "missing `values =`"),
    ("kind = buchi-fsm\nvalues = 1\nstates = p\ninitial = p\n",
     "need an `accepting =`"),
    ("kind = fsm\nvalues = 1\nstates = p\ninitial = p\naccepting = p\n",
     "does not take an accepting set"),
    ("kind = pdm\nvalues = 1\nstates = p\ninitial = p\n", "need a `stack =`"),
    ("kind = fsm\nvalues = 1\nstates = p\ninitial = p\nstack = Z\n",
     "do not take a `stack =`"),
    ("kind = pdm\nvalues = 1\nstates = p\ninitial = p\nstack = Z\n"
     "trans = p r(1) p\n", "use `rule =`"),
    ("kind = fsm\nvalues = 1\nstates = p\ninitial = p\n"
     "rule = p r(1) Z -> p pop\n", "use `trans =`"),
])
def test_machine_structural_errors(text, msg):
    with pytest.raises(ParseError) as e:
        parse_machine_file(text, LEADER)
    assert msg in str(e.value)


def test_witness_round_trip_plain():
    w = Witness(2, ((0, "d0"), (1, "c1")), ((0, "d1"),), None)
    assert parse_witness(print_witness(w)) == w


def test_witness_round_trip_with_pivot():
    w = Witness(3, ((0, "d0"),), ((0, "d1"), (2, "c0")), "A")
    assert "pivot = A\n" in print_witness(w)
    assert parse_witness(print_witness(w)) == w


def test_witness_accepts_comments_and_empty_cycle_section():
    parsed = parse_witness("k = 1\nstem:\n# none\ncycle:\n0 d0\n")
    assert parsed == Witness(1, (), ((0, "d0"),), None)


@pytest.mark.parametrize("text,msg", [
    ("k = two\nstem:\ncycle:\n", "bad contributor count"),
    ("k = 1_0\nstem:\ncycle:\n", "line 1: bad contributor count '1_0'"),
    ("k = -1\nstem:\ncycle:\n", "line 1: bad contributor count '-1'"),
    ("k = \N{DEVANAGARI DIGIT TWO}\nstem:\ncycle:\n",
     "line 1: bad contributor count"),
    ("k = " + "1" * 5000 + "\nstem:\ncycle:\n",      # past int's digits
     "line 1: bad contributor count"),
    ("k = 1\nstem:\n+1 d0\ncycle:\n", "line 3: bad actor index '+1'"),
    ("k = 1\nstem:\ncycle:\n0_0 d0\n", "line 4: bad actor index '0_0'"),
    ("k = 1\n0 d0\n", "outside of stem:/cycle:"),
    ("k = 1\nstem:\nd0\ncycle:\n", "expected `actor tid`"),
    ("k = 1\nstem:\nx d0\ncycle:\n", "bad actor index"),
    ("k = 1\nseed = 4\nstem:\ncycle:\n", "unknown key"),
    ("stem:\ncycle:\n", "missing `k =`"),
    ("k = 1\n", "missing stem:/cycle:"),
    ("k = 1\nstem:\nk = 2\ncycle:\n", "line 3: duplicate `k =`"),
    ("k = 1\npivot = A\npivot = B\nstem:\ncycle:\n",
     "line 3: duplicate `pivot =`"),
    ("k = 1\npivot =\nstem:\ncycle:\n", "line 2: pivot takes exactly one"),
    ("k = 1\npivot = A B\nstem:\ncycle:\n", "line 2: pivot takes exactly one"),
    ("k = 1\ncycle:\n0 d0\n", "line 2: unexpected `cycle:`"),
    ("k = 1\nstem:\ncycle:\n0 d0\nstem:\n0 d1\n",
     "line 5: unexpected `stem:`"),
    ("k = 1\nstem:\nstem:\ncycle:\n", "line 3: unexpected `stem:`"),
    ("k = 1\nstem:\ncycle:\ncycle:\n", "line 4: unexpected `cycle:`"),
    ("k = 1\nstem:\n0 d0\n", "line 3: missing `cycle:` section"),
    ("stem:\n0 d0\ncycle:\n0 d1\nk = 2\n",
     "line 5: `k =` line after `stem:`"),
    ("k = 1\nstem:\npivot = A\ncycle:\n",
     "line 3: `pivot =` line after `stem:`"),
])
def test_witness_parse_errors(text, msg):
    with pytest.raises(ParseError) as e:
        parse_witness(text)
    assert msg in str(e.value)
