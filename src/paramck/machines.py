"""Core automata model: read/write actions, FSMs, PDMs, the leader/property
product, and the step rules (register, stack, concrete and abstract moves)
that every procedure runs on.

A network couples one leader machine and arbitrarily many copies of a
contributor machine through a shared register holding values from a finite
domain G.  The register starts out uninitialized, which we represent with the
out-of-band marker ``#``; that marker never appears as the value of a read or
write action.

In the abstraction, a move depends only on the leader state, the store, the
leader's top symbol and whether the populated set Q holds the contributor's
source.  Codec numbers the abstract configurations (leader state, store, Q)
as integers and lists these moves over the codes, indexed by source, in
one pass over the transitions: a read touches the one store it reads and
a write every store, so each entry follows from the value the move reads
or writes.  Network.moves keeps the table and each move list read off it:
the fsm-fsm search and the pop relations of the pdm-fsm check share them.
"""

import os
import re
from collections import namedtuple
from functools import cached_property
from operator import attrgetter

#: marker for the uninitialized store; not a member of G
UNINIT = "#"

LEADER = "leader"
CONTRIBUTOR = "contributor"

READ = "read"
WRITE = "write"


#: budget when PARAMCK_BUDGET is unset, and the default budget argument:
#: configurations, pdm-fsm pivots and triples, window states or pdm-fsm
#: stem moves per exploration (solves have no budget: parikh.solve runs a
#: bounded number of LPs)
EXPLORE_BUDGET = 5_000_000


class BudgetExceeded(Exception):
    """Raised when an exploration exceeds its configured budget."""


class InternalError(Exception):
    """Raised when a checker cannot turn a model it found into a witness
    that replays: a defect of the checker, not a verdict."""


def env_budget():
    """PARAMCK_BUDGET, or EXPLORE_BUDGET when it is unset.  Raises
    ValueError unless it holds an integer of at least 1 in ASCII decimal
    digits, with whitespace around them allowed: other scripts' digits and
    more digits than int converts are refused too."""
    raw = os.environ.get("PARAMCK_BUDGET")
    if raw is None:
        return EXPLORE_BUDGET
    if re.fullmatch("[0-9]+", raw.strip()):
        try:
            if int(raw) >= 1:
                return int(raw)
        except ValueError:        # more digits than int converts
            pass
    raise ValueError(
        f"PARAMCK_BUDGET must be an integer of at least 1, not {raw!r}")


class Action(namedtuple("Action", "role kind value")):
    """role is LEADER or CONTRIBUTOR, kind READ or WRITE."""

    __slots__ = ()

    def __new__(cls, role, kind, value):
        if role not in (LEADER, CONTRIBUTOR):
            raise ValueError(f"bad role {role!r}")
        if kind not in (READ, WRITE):
            raise ValueError(f"bad kind {kind!r}")
        if value == UNINIT:
            raise ValueError("action value may not be the uninitialized marker")
        return tuple.__new__(cls, (role, kind, value))

    @classmethod
    def _make(cls, iterable):       # so that _replace validates too
        return cls(*iterable)

    def __str__(self):
        letter = "r" if self.kind == READ else "w"
        return f"{letter}({self.value})"


class Fsm(namedtuple("Fsm", "states initial transitions accepting",
                     defaults=(None,))):
    """Finite-state machine of (src, Action, dst) transitions; with an
    accepting set it is a Buchi automaton."""

    __slots__ = ()


class PdmRule(namedtuple("PdmRule", "src action top dst effect")):
    """A pushdown rule: it fires on top (a stack symbol), and its effect is
    ("push", symbol) or ("pop",)."""

    __slots__ = ()


class Pdm(namedtuple("Pdm", "states stack_alphabet initial rules accepting",
                     defaults=(None,))):
    """Pushdown machine of PdmRules.  stack_alphabet[0] is the bottom symbol.

    A push rule applied to top gamma yields stack gamma' gamma w (gamma is
    retained below the pushed symbol); a pop rule removes gamma.
    """

    __slots__ = ()

    @property
    def bottom(self):
        return self.stack_alphabet[0]


class Transition(namedtuple("Transition", "owner tid payload src action dst")):
    """A leader (LEADER) or contributor (CONTRIBUTOR) transition with a
    stable identity, as an immutable tuple.

    The tid is unique across the union of both machines' transitions and is
    used as a letter in cycle automata and loop grammars.
    src, action and dst are copied from the payload, an Fsm transition
    triple or a PdmRule, so owner, tid and payload decide equality and
    hash, and they are what repr shows and pickle keeps.
    """

    __slots__ = ()

    def __new__(cls, owner, tid, payload):
        p = payload
        triple = (p.src, p.action, p.dst) if isinstance(p, PdmRule) else p
        return tuple.__new__(cls, (owner, tid, p) + tuple(triple))

    def __getnewargs__(self):
        return self[:3]

    @classmethod
    def _make(cls, iterable):       # so that _replace rereads the payload
        return cls(*tuple(iterable)[:3])

    def __repr__(self):
        return (f"Transition(owner={self.owner!r}, tid={self.tid!r}, "
                f"payload={self.payload!r})")

    @property
    def moves_token(self):
        """Whether this move takes a contributor token to another state;
        leader moves and contributor self-loops move none."""
        return self.owner == CONTRIBUTOR and self.src != self.dst


def register_step(action, store):
    """The register rule: the store after action, or None when a read finds
    another value there."""
    if action.kind == READ:
        return store if store == action.value else None
    return action.value


def top_replacement(rule, top):
    """The stack rule on the top symbol: what rule puts in place of top, ()
    for a pop and (pushed, top) for a push, or None when top does not match."""
    if rule.top != top:
        return None
    return () if rule.effect[0] == "pop" else (rule.effect[1], top)


def stack_step(rule, stack):
    """The stack (top first) after rule fires, or None when the top does not
    match or a pop would empty it: a machine without a stack is dead."""
    repl = top_replacement(rule, stack[0]) if stack else None
    if repl is None:
        return None
    return repl + stack[1:] or None


def step(t, state, stack, store):
    """One concrete move of transition t by a machine at (state, stack) on the
    shared store; stack is () for an FSM.  Returns (state', stack', store')
    or None when t is not enabled."""
    if t.src != state:
        return None
    store = register_step(t.action, store)
    if store is None:
        return None
    if isinstance(t.payload, PdmRule):
        stack = stack_step(t.payload, stack)
        if stack is None:
            return None
    return t.dst, stack, store


class AbstractConfig(namedtuple("AbstractConfig", "leader_state store Q")):
    """Q is the frozenset of populated contributor states, never empty."""

    __slots__ = ()


class Codec:
    """A network's abstract moves over the integer codes of its
    configurations (Network.moves), and the numbering behind the codes.

    The leader states, the stores (UNINIT first, then the values) and the
    contributor states are each numbered in sorted(key=repr) order.  Each
    numbering takes what the network declares and what its transitions
    name, so a network built without validation or with a domain of mixed
    types still has a code for every configuration its moves reach.  (l, g,
    Q) has the code (key << width) | Qmask, where key = l * len(stores) + g
    and bit i of Qmask stands for the i-th contributor state.  Codes sort as
    their configurations do by leader state and store; a move keeps Q iff
    it keeps the bits of q_mask.

    leader[(key, top)] lists the leader's moves from key with top on its
    stack (the pair is absent when there are none), top None for an FSM
    leader, as (t, base, replacement): from code
    c the move goes to base | (c & q_mask).  The replacement is what it puts
    in place of top: () for a pop, (pushed, top) for a push and (None,) for
    an FSM leader.  contributor[g] lists the moves on the g-th store as (t,
    source bit, target bit, shift): from c, when c has the source bit, the
    move goes to (c + shift) | target bit and keeps the leader's stack.
    Every list is in tid order.  accepting[key] tells whether the key's
    leader state is accepting, and initial is the initial configuration's
    code.  successors keeps each list that expand builds, so the checks
    on one network expand no (code, top) pair twice.
    """

    def __init__(self, net):
        def named(machine, transitions):
            return tuple(sorted(
                {machine.initial, *machine.states,
                 *map(attrgetter("src"), transitions),
                 *map(attrgetter("dst"), transitions)}, key=repr))

        self.leader_states = named(net.leader, net.leader_transitions)
        self.stores = (UNINIT,) + tuple(sorted(
            set(net.values) | {t.action.value for t in
                               net.leader_transitions
                               + net.contributor_transitions}, key=repr))
        self.contributor_states = named(net.contributor,
                                        net.contributor_transitions)
        self.width = n = len(self.contributor_states)
        self.q_mask = (1 << n) - 1
        self.leader_index = {s: i for i, s in enumerate(self.leader_states)}
        self.store_index = store = {g: i for i, g in enumerate(self.stores)}
        self.bit = {q: 1 << i for i, q in enumerate(self.contributor_states)}
        accepting = net.leader.accepting
        self.accepting = [s in accepting
                          for s in self.leader_states for _ in self.stores]
        # a read of v fires on store v and keeps it, a write of v fires on
        # every store g and leaves v there: the lists follow from v alone
        m, index = len(self.stores), self.leader_index
        self.leader = {}
        for t in net.leader_transitions:
            p = t.payload
            top = p.top if isinstance(p, PdmRule) else None
            repl = (top,) if top is None else top_replacement(p, top)
            v = store[t.action.value]
            move = (t, (index[t.dst] * m + v) << n, repl)
            key = index[t.src] * m
            for g in (v,) if t.action.kind == READ else range(m):
                self.leader.setdefault((key + g, top), []).append(move)
        self.contributor = [[] for _ in self.stores]
        for t in net.contributor_transitions:
            v, src, dst = store[t.action.value], self.bit[t.src], self.bit[t.dst]
            for g in (v,) if t.action.kind == READ else range(m):
                self.contributor[g].append((t, src, dst, (v - g) << n))
        self.initial = self.encode(AbstractConfig(
            net.leader.initial, UNINIT, frozenset([net.contributor.initial])))
        self.memo = {}              # (code, top) -> its successors list

    def key(self, leader_state, store):
        return self.leader_index[leader_state] * len(self.stores) \
            + self.store_index[store]

    def encode(self, a):
        return (self.key(a.leader_state, a.store) << self.width) \
            | sum(self.bit[q] for q in a.Q)

    def decode(self, code):
        leader, store = divmod(code >> self.width, len(self.stores))
        return AbstractConfig(
            self.leader_states[leader], self.stores[store],
            frozenset(q for i, q in enumerate(self.contributor_states)
                      if (code >> i) & 1))

    def successors(self, code, top=None):
        """expand(code, top), built on the first call and kept: every
        caller gets the same list, and none may change it."""
        succ = self.memo.get((code, top))
        if succ is None:
            succ = self.memo[code, top] = self.expand(code, top)
        return succ

    def expand(self, code, top):
        """The abstract moves from code with top on the leader's stack, as
        (t, code', replacement): the leader's, then the contributors'."""
        key, Q, keep = code >> self.width, code & self.q_mask, (top,)
        return [(t, base | Q, repl)
                for t, base, repl in self.leader.get((key, top), ())] + \
            [(t, (code + shift) | dst, keep) for t, src, dst, shift
             in self.contributor[key % len(self.stores)] if Q & src]


def validate(machine, values):
    """Check a machine's structural invariants against the value domain.

    Returns a list of diagnostic strings; errors are prefixed with "error:",
    warnings with "warning:".  An empty list means the machine is well formed
    and uses every declared value.
    """
    diags = []
    if UNINIT in values:
        diags.append("error: value domain contains the uninitialized marker")
    if not values:
        diags.append("error: value domain is empty")
    states = machine.states
    if machine.initial not in states:
        diags.append(f"error: initial state {machine.initial!r} not declared")

    roles = set()
    used_values = set()

    if isinstance(machine, Fsm):
        for src, (role, _, value), dst in machine.transitions:
            if src not in states:
                diags.append(f"error: transition source {src!r} not declared")
            if dst not in states:
                diags.append(f"error: transition target {dst!r} not declared")
            if value not in values:
                diags.append(f"error: transition uses undeclared value {value!r}")
            roles.add(role)
            used_values.add(value)
    else:
        alphabet = set(machine.stack_alphabet)
        if len(alphabet) != len(machine.stack_alphabet):
            diags.append("error: duplicate stack symbols")
        for src, (role, _, value), top, dst, effect in machine.rules:
            if src not in states:
                diags.append(f"error: rule source {src!r} not declared")
            if dst not in states:
                diags.append(f"error: rule target {dst!r} not declared")
            if top not in alphabet:
                diags.append(f"error: rule top symbol {top!r} not declared")
            if value not in values:
                diags.append(f"error: rule uses undeclared value {value!r}")
            if effect[0] == "push":
                if effect[1] == machine.bottom:
                    diags.append("error: bottom symbol may not be pushed")
                elif effect[1] not in alphabet:
                    diags.append(f"error: pushed symbol {effect[1]!r} not declared")
            elif effect[0] != "pop":
                diags.append(f"error: bad rule effect {effect!r}")
            roles.add(role)
            used_values.add(value)

    if machine.accepting is not None:
        for q in machine.accepting:
            if q not in states:
                diags.append(f"error: accepting state {q!r} not declared")
    if len(roles) > 1:
        diags.append("error: machine mixes leader and contributor actions")
    for v in sorted(set(values) - used_values):
        diags.append(f"warning: value {v!r} unused")
    return diags


def buchi_product(prop, leader):
    """Product of a Buchi property automaton with the leader machine.

    Both run over the leader alphabet.  A product state is accepting iff its
    property component is accepting (and, when the leader itself carries a
    Buchi set, its phase is 0).  In that case a one-bit phase counter
    degeneralizes the two acceptance sets: phase 0 turns to 1 on leaving a
    property-accepting state, and back on leaving a leader-accepting one.
    So the leader runs that take infinitely many actions are accepted iff
    they are in both omega-languages.  A run in which the leader stops for
    good, and only contributors move from then on, is accepted iff the
    leader stops at an accepting product state, whether or not the leader
    state is in the leader's own Buchi set.
    """
    if prop.accepting is None:
        raise ValueError("property automaton must have an accepting set")
    # a product state is (a, d) + phase, the phase () when the leader has
    # no Buchi set, else (0,) or (1,)
    phases = [()] if leader.accepting is None else [(0,), (1,)]

    states = frozenset((a, d) + i for a in prop.states
                       for d in leader.states for i in phases)
    initial = (prop.initial, leader.initial) + phases[0]
    accepting = frozenset((a, d) + phases[0] for a in prop.states
                          if a in prop.accepting for d in leader.states)

    by_action = {}
    for a_src, act, a_dst in prop.transitions:
        if act.role != LEADER:
            raise ValueError("property automaton must use leader actions")
        by_action.setdefault(act, []).append((a_src, a_dst))

    fsm, moves = isinstance(leader, Fsm), []
    for move in leader.transitions if fsm else leader.rules:
        d_src, act, d_dst = move if fsm else (move.src, move.action, move.dst)
        if act.role != LEADER:
            raise ValueError("leader machine must use leader actions")
        for a_src, a_dst in by_action.get(act, ()):
            for i in phases:
                j = (1,) if i == (0,) and a_src in prop.accepting else \
                    (0,) if i == (1,) and d_src in leader.accepting else i
                src, dst = (a_src, d_src) + i, (a_dst, d_dst) + j
                moves.append((src, act, dst) if fsm else
                             PdmRule(src, act, move.top, dst, move.effect))
    if fsm:
        return Fsm(states, initial, tuple(moves), accepting)
    return Pdm(states, leader.stack_alphabet, initial, tuple(moves), accepting)


class Network(namedtuple("Network", "values leader contributor"
                         " leader_transitions contributor_transitions",
                         defaults=((), ()))):
    """A fully assembled network: value domain, Buchi leader (already the
    property product), contributor machine, and stably numbered transitions.
    _by_tid and moves are cached in its __dict__ (so it has no __slots__)."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}")

    def transition(self, tid):
        return self._by_tid[tid]

    @cached_property
    def _by_tid(self):
        return {t.tid: t
                for t in self.leader_transitions + self.contributor_transitions}

    @cached_property
    def moves(self):
        """The abstract move table (Codec), built on first use."""
        return Codec(self)


def make_network(values, leader, contributor):
    """Assemble a network, assigning transition ids d0,d1,... and c0,c1,...

    The leader must already carry a Buchi acceptance condition (apply
    buchi_product first if the property is separate).
    """
    if leader.accepting is None:
        raise ValueError("leader must carry a Buchi acceptance condition")

    def numbered(owner, prefix, machine):
        # Transition(owner, tid, payload) with the machine's kind tested once
        new = tuple.__new__
        if isinstance(machine, Pdm):
            return tuple(new(Transition, (owner, f"{prefix}{i}", r, r.src,
                                          r.action, r.dst))
                         for i, r in enumerate(machine.rules))
        return tuple(new(Transition, (owner, f"{prefix}{i}", t, *t))
                     for i, t in enumerate(machine.transitions))

    return Network(frozenset(values), leader, contributor,
                   numbered(LEADER, "d", leader),
                   numbered(CONTRIBUTOR, "c", contributor))
