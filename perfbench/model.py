"""The benchmark's own view of the machines it generates.

Nothing here imports paramck.  Machines are plain tuples, written to the
machine-file format the checker reads; the property product, the step
semantics of leaders and contributors (FSMs and PDMs), witness replay and the
structural predicate of the ``fsm-refute`` family are written out again here,
so that a verdict of the checker is confirmed by code it does not share.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

UNINIT = "#"


@dataclass(frozen=True)
class Machine:
    """An FSM (``rules`` hold (src, act, dst)) or a PDM (``rules`` hold
    (src, act, top, dst, effect)).  An action is ("r" | "w", value); an
    effect is ("push", symbol) or ("pop",).  ``stack[0]`` is the bottom."""

    kind: str                      # "fsm" or "pdm"
    states: tuple
    initial: str
    rules: tuple
    stack: tuple = ()
    accepting: tuple | None = None


def machine_text(m, values):
    """The machine file for m, in the format ``paramck`` parses."""
    kind = ("buchi-" if m.accepting is not None else "") + m.kind
    lines = [f"kind = {kind}", "values = " + " ".join(values),
             "states = " + " ".join(m.states), f"initial = {m.initial}"]
    if m.accepting is not None:
        lines.append("accepting = " + " ".join(m.accepting))
    if m.kind == "pdm":
        lines.append("stack = " + " ".join(m.stack))
        for src, (op, val), top, dst, eff in m.rules:
            effect = "pop" if eff[0] == "pop" else f"push {eff[1]}"
            lines.append(f"rule = {src} {op}({val}) {top} -> {dst} {effect}")
    else:
        for src, (op, val), dst in m.rules:
            lines.append(f"trans = {src} {op}({val}) {dst}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Instance:
    """One check: leader, contributor and Buchi property over a value domain.

    ``expect`` is the verdict known by construction ("EMPTY", "NONEMPTY") or
    None for a random draw.
    """

    name: str
    values: tuple
    leader: Machine
    contributor: Machine
    prop: Machine
    expect: str | None = None


def product(prop, leader):
    """Buchi product of the property with a leader without acceptance set.

    Transitions are numbered as the witness format prescribes (``d<i>`` is
    the i-th product transition): leader transitions in file order, each
    paired with the property transitions on the same action in file order.
    Returns a Machine over states (property state, leader state).
    """
    by_action = {}
    for a_src, act, a_dst in prop.rules:
        by_action.setdefault(act, []).append((a_src, a_dst))
    states = tuple((a, d) for a in prop.states for d in leader.states)
    accepting = tuple((a, d) for a in prop.states if a in prop.accepting
                      for d in leader.states)
    rules = []
    for rule in leader.rules:
        act = rule[1]
        for a_src, a_dst in by_action.get(act, ()):
            if leader.kind == "pdm":
                src, _, top, dst, eff = rule
                rules.append(((a_src, src), act, top, (a_dst, dst), eff))
            else:
                src, _, dst = rule
                rules.append(((a_src, src), act, (a_dst, dst)))
    return Machine(leader.kind, states, (prop.initial, leader.initial),
                   tuple(rules), leader.stack, accepting)


def step(machine, rule, local, store):
    """Apply one rule of an FSM or PDM to (local, store).

    ``local`` is a state for an FSM and (state, stack) for a PDM, the stack
    top first.  Returns the new (local, store), or a reason string when the
    rule does not apply.
    """
    if machine.kind == "pdm":
        src, (op, val), top, dst, eff = rule
        state, stack = local
        if state != src:
            return f"at {state!r}, rule needs {src!r}"
        if stack[0] != top:
            return f"top is {stack[0]!r}, rule needs {top!r}"
    else:
        src, (op, val), dst = rule
        if local != src:
            return f"at {local!r}, rule needs {src!r}"
    if op == "r" and store != val:
        return f"store holds {store!r}, read needs {val!r}"
    store = val if op == "w" else store
    if machine.kind == "fsm":
        return dst, store
    if eff[0] == "push":
        return (dst, (eff[1],) + stack), store
    if len(stack) == 1:
        return "pop would empty the stack"
    return (dst, stack[1:]), store


def initial_local(machine):
    if machine.kind == "pdm":
        return (machine.initial, (machine.stack[0],))
    return machine.initial


class WitnessError(Exception):
    pass


def replay_witness(leader, contributor, witness):
    """Check a NONEMPTY witness from the checker's JSON report.

    ``leader`` is the property product, ``contributor`` the machine whose
    transitions the ``c<i>`` ids index.  The stem must apply step by step;
    for a PDM leader the pivot is the leader state and top symbol after the
    stem, and the top must be the declared pivot symbol.  The cycle must apply,
    visit an accepting leader state, never pop below the pivot symbol, and
    return to the same leader state (for a PDM: the pivot state with the
    pivot symbol on top), store and contributor population.  Raises
    WitnessError on the first violation.
    """
    k = witness["k"]
    if not isinstance(k, int) or k < 1:
        raise WitnessError(f"bad contributor count {k!r}")
    if not witness["cycle"]:
        raise WitnessError("empty cycle")
    pdm = leader.kind == "pdm"
    lead = initial_local(leader)
    store = UNINIT
    locals_ = [initial_local(contributor)] * k

    def apply(i, actor, tid):
        nonlocal lead, store
        machine, prefix = (leader, "d") if actor == 0 else (contributor, "c")
        if not (tid.startswith(prefix) and tid[1:].isdigit()
                and int(tid[1:]) < len(machine.rules)):
            raise WitnessError(f"step {i}: actor {actor} cannot take {tid}")
        rule = machine.rules[int(tid[1:])]
        if actor == 0:
            res = step(machine, rule, lead, store)
        elif 1 <= actor <= k:
            res = step(machine, rule, locals_[actor - 1], store)
        else:
            raise WitnessError(f"step {i}: actor {actor} out of range")
        if isinstance(res, str):
            raise WitnessError(f"step {i}: {res}")
        if actor == 0:
            lead, store = res
        else:
            locals_[actor - 1], store = res

    steps = [tuple(s) for s in witness["stem"]]
    for i, (actor, tid) in enumerate(steps):
        apply(i, actor, tid)
    start_lead, start_store = lead, store
    start_pop = Counter(locals_)
    if pdm and witness.get("pivot") != start_lead[1][0]:
        raise WitnessError(f"pivot {witness.get('pivot')!r} is not the top"
                           f" {start_lead[1][0]!r} after the stem")
    leader_state = (lambda loc: loc[0]) if pdm else (lambda loc: loc)
    floor = len(start_lead[1]) if pdm else 0
    accepting = set(leader.accepting)
    seen_accepting = leader_state(lead) in accepting
    for i, (actor, tid) in enumerate(witness["cycle"], start=len(steps)):
        apply(i, actor, tid)
        if pdm and len(lead[1]) < floor:
            raise WitnessError(f"step {i}: cycle pops below the pivot")
        seen_accepting |= leader_state(lead) in accepting
    if not seen_accepting:
        raise WitnessError("cycle visits no accepting state")
    if pdm:
        if lead[0] != start_lead[0] or lead[1][0] != start_lead[1][0]:
            raise WitnessError("cycle does not return to the pivot")
    elif lead != start_lead:
        raise WitnessError("cycle does not return to the leader state")
    if store != start_store or Counter(locals_) != start_pop:
        raise WitnessError("store or population differs after the cycle")


def check_window(pdm, window_fsm):
    """Every transition ((q, w), act, (q2, w2)) of a window FSM must apply a
    rule of the PDM: same states and action, the window's top is the rule's
    top, and the new window is the old one pushed (then cut to the longest
    window seen) or popped.  Raises WitnessError otherwise."""
    rules = set(pdm.rules)
    width = max(len(w) for _, w in window_fsm.states)
    for (q, w), act, (q2, w2) in window_fsm.rules:
        if (q, act, w[0], q2, ("pop",)) in rules and w2 == w[1:] and w2:
            continue
        if len(w2) >= 1 and (q, act, w[0], q2, ("push", w2[0])) in rules \
                and w2 == ((w2[0],) + w)[:width]:
            continue
        raise WitnessError(f"window transition {(q, w)} {act} {(q2, w2)}"
                           " applies no rule of the PDM")


def window_states(pdm, limit):
    """Number of states of the PDM's window FSM (states (q, top window),
    windows of at most 2 |Q|^2 |Gamma| + 1 symbols, as in the paper), or
    limit + 1 as soon as it has more than limit."""
    width = 2 * len(pdm.states) ** 2 * len(pdm.stack) + 1
    start = (pdm.initial, (pdm.stack[0],))
    seen = {start}
    todo = [start]
    while todo and len(seen) <= limit:
        q, window = todo.pop()
        for src, _, top, dst, eff in pdm.rules:
            if src != q or top != window[0]:
                continue
            if eff[0] == "push":
                nxt = (dst, ((eff[1],) + window)[:width])
            elif len(window) > 1:
                nxt = (dst, window[1:])
            else:
                continue
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return min(len(seen), limit + 1)


def _acyclic(fsm):
    """Contributor transitions all go forward in some order of its states."""
    succ = {s: set() for s in fsm.states}
    for src, _, dst in fsm.rules:
        if src == dst:
            return False
        succ[src].add(dst)
    indegree = Counter(d for ds in succ.values() for d in ds)
    ready = [s for s in fsm.states if not indegree[s]]
    done = 0
    while ready:
        s = ready.pop()
        done += 1
        for d in succ[s]:
            indegree[d] -= 1
            if not indegree[d]:
                ready.append(d)
    return done == len(fsm.states)


def refute_shape(inst):
    """The structural predicate of the fsm-refute family.

    Holds when the contributor is an FSM without cycles and, on the part of
    the property product reachable from its initial state, some value x is
    never written by the leader, every leader transition into an accepting
    state reads x from a non-accepting state, and every leader transition out
    of an accepting state writes.  Then every run is EMPTY: contributors make
    finitely many moves, after which the register changes only through leader
    writes, none of which is x, and between two accepting visits the leader
    writes before it reads x again.
    """
    if inst.leader.kind != "fsm" or inst.contributor.kind != "fsm":
        return False
    if not _acyclic(inst.contributor):
        return False
    lead = product(inst.prop, inst.leader)
    reach = {lead.initial}
    todo = [lead.initial]
    while todo:
        s = todo.pop()
        for src, _, dst in lead.rules:
            if src == s and dst not in reach:
                reach.add(dst)
                todo.append(dst)
    rules = [r for r in lead.rules if r[0] in reach]
    acc = set(lead.accepting)
    for x in inst.values:
        if all(act != ("w", x)
               and (dst not in acc or (act == ("r", x) and src not in acc))
               and (src not in acc or act[0] == "w")
               for src, act, dst in rules):
            return True
    return False
