"""Line-oriented machine and witness files.

Machine files are UTF-8 text, one `key = value` pair per line, `#` starts a
comment.  Keys: kind (fsm | pdm | buchi-fsm | buchi-pdm), values, states,
initial, accepting (buchi kinds), stack (pdm kinds, first symbol is the
bottom), and one trans/rule line per transition:

    trans = q0 w(1) q1
    rule  = q0 r(1) A -> q1 push B
    rule  = q1 w(2) B -> q0 pop

Actions are written r(g) / w(g); the role (leader or contributor) is implied
by which file the machine comes from and passed in by the caller.

Witness files list the population size, the pivot stack symbol (required
for pushdown leaders, absent otherwise), and the stem and cycle as
`actor tid` lines, each once and the sections in this order:

    k = 2
    pivot = A
    stem:
    0 d0
    1 c1
    cycle:
    0 d2
"""

from __future__ import annotations

import re

from .machines import Action, Fsm, Pdm, PdmRule, READ, WRITE
from .explicit import Witness


class ParseError(Exception):
    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


_ACTION_RE = re.compile(r"^([rw])\(([^()\s]+)\)$")
_RULE_RE = re.compile(r"^(\S+)\s+(\S+)\s+(\S+)\s+->\s+(\S+)\s+(push\s+\S+|pop)$")


def _parse_action(token, role, line_no, actions):
    """The Action that token writes, kept in actions (token -> Action) for
    the later lines of the file, which look it up there."""
    m = _ACTION_RE.match(token)
    if not m:
        raise ParseError(
            line_no, f"bad action {token!r}, expected r(g) or w(g)")
    kind = READ if m.group(1) == "r" else WRITE
    act = actions[token] = Action(role, kind, m.group(2))
    return act


def parse_machine_file(text, role):
    """Parse a machine file; returns (machine, declared values).

    Raises ParseError with a line number on malformed input.  Structural
    problems beyond syntax (undeclared states and the like) are left to
    machines.validate.  Lines that write one action share one Action.
    """
    kind = None
    values = None
    states = None
    initial = None
    accepting = None
    stack = None
    transitions = []
    rules = []
    seen = set()
    actions = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        key, eq, rest = line.partition("=")
        if not eq:
            raise ParseError(line_no, "expected `key = value`")
        key = key.rstrip()          # the line is stripped already
        if key == "trans":
            parts = rest.split()
            if len(parts) != 3:
                raise ParseError(line_no, "trans takes `src action dst`")
            src, act, dst = parts
            act = actions.get(act) or _parse_action(act, role, line_no, actions)
            transitions.append((src, act, dst))
            continue
        rest = rest.lstrip()
        if key == "rule":
            m = _RULE_RE.match(rest)
            if not m:
                raise ParseError(
                    line_no, "rule takes `src action top -> dst push γ|pop`")
            src, act, top, dst, eff = m.groups()
            effect = ("pop",) if eff == "pop" else ("push", eff.split()[1])
            act = actions.get(act) or _parse_action(act, role, line_no, actions)
            rules.append(PdmRule(src, act, top, dst, effect))
            continue
        if key in seen:
            raise ParseError(line_no, f"duplicate `{key} =` line")
        seen.add(key)
        if key == "kind":
            if rest not in ("fsm", "pdm", "buchi-fsm", "buchi-pdm"):
                raise ParseError(line_no, f"unknown kind {rest!r}")
            kind = rest
        elif key == "values":
            values = rest.split()
            if not values:
                raise ParseError(line_no, "empty value domain")
        elif key == "states":
            states = rest.split()
            if not states:
                raise ParseError(line_no, "empty state list")
        elif key == "initial":
            if not rest or len(rest.split()) != 1:
                raise ParseError(line_no, "initial takes exactly one state")
            initial = rest
        elif key == "accepting":
            accepting = rest.split()
        elif key == "stack":
            stack = rest.split()
            if not stack:
                raise ParseError(line_no, "empty stack alphabet")
        else:
            raise ParseError(line_no, f"unknown key {key!r}")

    if kind is None:
        raise ParseError(0, "missing `kind =` line")
    for need, name in ((values, "values"), (states, "states"), (initial, "initial")):
        if need is None:
            raise ParseError(0, f"missing `{name} =` line")
    is_buchi = kind.startswith("buchi")
    if is_buchi and accepting is None:
        raise ParseError(0, "buchi machines need an `accepting =` line")
    if not is_buchi and accepting is not None:
        raise ParseError(0, f"kind {kind} does not take an accepting set")
    acc = frozenset(accepting) if is_buchi else None

    if kind.endswith("pdm"):
        if stack is None:
            raise ParseError(0, "pdm machines need a `stack =` line")
        if transitions:
            raise ParseError(0, "pdm machines use `rule =`, not `trans =`")
        machine = Pdm(frozenset(states), tuple(stack), initial, tuple(rules), acc)
    else:
        if stack is not None:
            raise ParseError(0, "fsm machines do not take a `stack =` line")
        if rules:
            raise ParseError(0, "fsm machines use `trans =`, not `rule =`")
        machine = Fsm(frozenset(states), initial, tuple(transitions), acc)
    return machine, values


def print_machine(machine, values):
    """Inverse of parse_machine_file, up to state ordering."""
    lines = []
    is_pdm = isinstance(machine, Pdm)
    kind = ("buchi-" if machine.accepting is not None else "") + \
        ("pdm" if is_pdm else "fsm")
    lines.append(f"kind = {kind}")
    lines.append("values = " + " ".join(values))
    lines.append("states = " + " ".join(sorted(machine.states)))
    lines.append(f"initial = {machine.initial}")
    if machine.accepting is not None:
        lines.append("accepting = " + " ".join(sorted(machine.accepting)))
    if is_pdm:
        lines.append("stack = " + " ".join(machine.stack_alphabet))
        for r in machine.rules:
            eff = "pop" if r.effect[0] == "pop" else f"push {r.effect[1]}"
            lines.append(f"rule = {r.src} {r.action} {r.top} -> {r.dst} {eff}")
    else:
        for src, act, dst in machine.transitions:
            lines.append(f"trans = {src} {act} {dst}")
    return "\n".join(lines) + "\n"


def _number(text, line_no, what):
    """The number that text writes in ASCII decimal digits, or ParseError:
    int alone would also take signs, underscores and other scripts'
    digits."""
    if re.fullmatch("[0-9]+", text):
        try:
            return int(text)
        except ValueError:        # more digits than int converts
            pass
    raise ParseError(line_no, f"bad {what} {text!r}, not decimal digits")


def print_witness(w):
    lines = [f"k = {w.k}"]
    if w.pivot is not None:
        lines.append(f"pivot = {w.pivot}")
    lines.append("stem:")
    for actor, tid in w.stem:
        lines.append(f"{actor} {tid}")
    lines.append("cycle:")
    for actor, tid in w.cycle:
        lines.append(f"{actor} {tid}")
    return "\n".join(lines) + "\n"


def parse_witness(text):
    """Parse a witness file into a Witness whose pivot is the declared stack
    symbol, or None without a `pivot =` line.

    Raises ParseError with a line number on malformed input, a count or
    actor index that is not ASCII decimal digits, a repeated key, a key
    after `stem:`, a pivot that is not one symbol, or section headers other
    than one `stem:` followed by one `cycle:`.
    """
    k = pivot = None
    seen = set()
    sections = {"stem": [], "cycle": []}
    current = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line in ("stem:", "cycle:"):
            if line != {None: "stem:", "stem": "cycle:"}.get(current):
                raise ParseError(line_no, f"unexpected `{line}`, the sections"
                                          " are `stem:` then `cycle:`")
            current = line[:-1]
            continue
        if "=" in line:
            key, _, rest = line.partition("=")
            key, rest = key.strip(), rest.strip()
            if key not in ("k", "pivot"):
                raise ParseError(line_no, f"unknown key {key!r}")
            if key in seen:
                raise ParseError(line_no, f"duplicate `{key} =` line")
            if current is not None:
                raise ParseError(line_no, f"`{key} =` line after `stem:`")
            seen.add(key)
            if key == "k":
                k = _number(rest, line_no, "contributor count")
            elif len(rest.split()) != 1:
                raise ParseError(line_no, "pivot takes exactly one symbol")
            else:
                pivot = rest
            continue
        if current is None:
            raise ParseError(line_no, "step outside of stem:/cycle: section")
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(line_no, "expected `actor tid`")
        sections[current].append(
            (_number(parts[0], line_no, "actor index"), parts[1]))
    if k is None:
        raise ParseError(0, "missing `k =` line")
    if current is None:
        raise ParseError(0, "missing stem:/cycle: sections")
    if current == "stem":       # line_no is the last line's
        raise ParseError(line_no, "missing `cycle:` section")
    return Witness(k, tuple(sections["stem"]), tuple(sections["cycle"]), pivot)
