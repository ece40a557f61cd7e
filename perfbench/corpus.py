"""Seeded corpora of machine files, one per workload.

Every generator takes a ``random.Random`` and returns ``Instance`` objects
(see model.py).  The nets are the same for every run; the run's seed
orders them (see make_corpus).  The checker sees nothing but the machine
files written by ``write_corpus``.
"""

from __future__ import annotations

import os
import random

from .model import Instance, Machine, machine_text, window_states

READ, WRITE = "r", "w"

WORKLOADS = ("fsm", "pushdown")
REFUTE_NETS = 40
RANDOM_NETS = 48
PDM_FSM_NETS = 8
PDM_PDM_NETS = 8
LOOP_LENGTHS = (12, 24, 36)
STEM_DEPTHS = (4, 12, 20, 24, 25)
WINDOW_LIMIT = 8


def actions(values):
    return [(op, v) for v in values for op in (READ, WRITE)]


def gf_property(values, action):
    """Buchi property "the leader takes ``action`` infinitely often", over
    every leader action of the value domain."""
    rules = []
    for src in ("s0", "s1"):
        for act in actions(values):
            rules.append((src, act, "s1" if act == action else "s0"))
    return Machine("fsm", ("s0", "s1"), "s0", tuple(rules), (), ("s1",))


def _states(prefix, n):
    return tuple(f"{prefix}{i}" for i in range(n))


def random_fsm(rng, prefix, n_states, n_rules, values):
    """A random FSM whose first rules form a ring through all its states,
    so that no state is dead; the rest are drawn freely."""
    states = _states(prefix, n_states)
    rules = [(s, rng.choice(actions(values)), states[(i + 1) % n_states])
             for i, s in enumerate(states)]
    rules += [(rng.choice(states), rng.choice(actions(values)),
               rng.choice(states)) for _ in range(n_rules - n_states)]
    return Machine("fsm", states, states[0], tuple(rules))


def fsm_refute(rng, name, n_leader=4, n_contrib=4, n_values=3):
    """An FSM/FSM net that is EMPTY by construction (model.refute_shape).

    The property asks for infinitely many leader reads of x.  The leader
    never writes x, only its reads of x lead into "after-read" states, and
    every transition out of an after-read state writes another value.  A
    ring through all leader states keeps every state live.  The
    contributor's transitions only go forward in the order of its states.
    """
    values = tuple(str(i) for i in range(n_values))
    x = rng.choice(values)
    others = [v for v in values if v != x]
    states = _states("p", n_leader)
    after = set(rng.sample(states[1:], max(1, n_leader // 3)))

    def action(src, dst):
        if src in after:
            return (WRITE, rng.choice(others))
        if dst in after:
            return (READ, x)
        return rng.choice([(READ, v) for v in others]
                          + [(WRITE, v) for v in others])

    pairs = [(s, states[(i + 1) % n_leader]) for i, s in enumerate(states)]
    pairs += [(rng.choice(states), rng.choice(states))
              for _ in range(n_leader)]
    leader = Machine("fsm", states, "p0",
                     tuple((s, action(s, d), d) for s, d in pairs))

    cstates = _states("q", n_contrib)
    crules = [("q0", (WRITE, x), rng.choice(cstates[1:]))]
    while len(crules) < 2 * n_contrib:
        i, j = sorted(rng.sample(range(n_contrib), 2))
        crules.append((cstates[i], rng.choice(actions(values)), cstates[j]))
    contrib = Machine("fsm", cstates, "q0", tuple(crules))
    return Instance(name, values, leader, contrib,
                    gf_property(values, (READ, x)), "EMPTY")


def fsm_random(rng, name, n_leader=9, n_contrib=4, n_values=3):
    """A random FSM/FSM net in the style of the test fixtures, larger and
    with ring-connected machines.  The property asks for one action the
    leader has, infinitely often."""
    values = tuple(str(i) for i in range(n_values))
    leader = random_fsm(rng, "p", n_leader, 2 * n_leader, values)
    contrib = random_fsm(rng, "q", n_contrib, 2 * n_contrib, values)
    prop = gf_property(values, rng.choice(leader.rules)[1])
    return Instance(name, values, leader, contrib, prop)


def random_pdm(rng, prefix, n_states, stack, extra_rules, values):
    """A random PDM with at least one rule for every (state, top symbol), so
    that no configuration is dead; rules on the bottom symbol push."""
    states = _states(prefix, n_states)
    pairs = [(s, top) for s in states for top in stack]
    pairs += [(rng.choice(states), rng.choice(stack))
              for _ in range(extra_rules)]
    rules = []
    for src, top in pairs:
        if top == stack[0] or rng.random() < 0.5:
            effect = ("push", rng.choice(stack[1:]))
        else:
            effect = ("pop",)
        rules.append((src, rng.choice(actions(values)), top,
                      rng.choice(states), effect))
    return Machine("pdm", states, states[0], tuple(rules), tuple(stack))


def pdm_random(rng, name, pdm_contributor):
    """A random PDM leader with a random FSM contributor (pdm-fsm) or a
    one-state, three-symbol PDM contributor (pdm-pdm).  PDM contributors are
    drawn again until their window FSM has at most WINDOW_LIMIT states:
    draws with 15 and 30 window states were still running after 15 s and
    8 s, where those with at most 8 took under 2 s."""
    values = ("0", "1")
    leader = random_pdm(rng, "p", 3, ("Z", "A", "B"), 3, values)
    if pdm_contributor:
        contrib = random_pdm(rng, "q", 1, ("Y", "C", "D"), 1, values)
        while window_states(contrib, WINDOW_LIMIT) > WINDOW_LIMIT:
            contrib = random_pdm(rng, "q", 1, ("Y", "C", "D"), 1, values)
    else:
        contrib = random_fsm(rng, "q", 3, 5, values)
    prop = gf_property(values, rng.choice(leader.rules)[1])
    return Instance(name, values, leader, contrib, prop)


def long_loop(rng, name, n):
    """NONEMPTY by construction: the leader loops through n steps that each
    read g, pushing and popping along a random balanced pattern, and the
    contributor writes g as its first move."""
    values = ("0", "1")
    g = rng.choice(values)
    states = _states("m", n)
    depth = 0
    rules = []
    for i in range(n):
        left = n - i
        if depth and (depth >= left - 1 or rng.random() < 0.5):
            effect, top = ("pop",), "A"
            depth -= 1
        else:
            effect, top = ("push", "A"), "A" if depth else "Z"
            depth += 1
        rules.append((states[i], (READ, g), top, states[(i + 1) % n],
                      effect))
    leader = Machine("pdm", states, "m0", tuple(rules), ("Z", "A"))
    contrib = Machine("fsm", ("q0", "q1"), "q0",
                      (("q0", (WRITE, g), "q1"), ("q1", (WRITE, g), "q0")))
    return Instance(name, values, leader, contrib,
                    gf_property(values, (READ, g)), "NONEMPTY")


def deep_stem(rng, name, d):
    """NONEMPTY by construction: the leader pushes d symbols, then loops at
    a state that writes h infinitely often."""
    values = ("0", "1")
    g, h = rng.sample(values, 2)
    states = _states("s", d + 2)
    rules = [(states[i], (WRITE, g), "A" if i else "Z", states[i + 1],
              ("push", "A")) for i in range(d)]
    loop, back = states[d], states[d + 1]
    rules += [(loop, (WRITE, h), "A", back, ("push", "A")),
              (back, (READ, h), "A", loop, ("pop",))]
    leader = Machine("pdm", states, "s0", tuple(rules), ("Z", "A"))
    contrib = Machine("fsm", ("q0",), "q0", (("q0", (READ, h), "q0"),))
    return Instance(name, values, leader, contrib,
                    gf_property(values, (WRITE, h)), "NONEMPTY")


def make_corpus(workload, seed):
    """The workload's instances, in the check order the seed draws.

    The nets themselves are drawn from a fixed seed per family, the same
    for every run.  Check times of random draws of one size span four orders
    of magnitude (0.001 s to 20 s measured on FSM/FSM nets with a 6-state
    leader), so a corpus drawn afresh for every seed would need hundreds of
    nets to keep corpus_s within its bound; and even renamed copies of one
    net (states and values permuted, rules in the same order) moved its
    check time by up to a factor of 2.6, because the order in which paramck
    visits sets of states follows their names.
    """
    def draws(seed, make, prefix, count):
        rng = random.Random(seed)
        return [make(rng, f"{prefix}{i:02d}") for i in range(count)]

    if workload == "fsm":
        out = draws("fsm-refute:refute", fsm_refute, "refute", REFUTE_NETS)
        out += draws("fsm-random:random", fsm_random, "random", RANDOM_NETS)
    elif workload == "pushdown":
        rng = random.Random("pushdown:loop")
        out = [long_loop(rng, f"loop{n:03d}", n) for n in LOOP_LENGTHS]
        rng = random.Random("pushdown:stem")
        out += [deep_stem(rng, f"stem{d:02d}", d) for d in STEM_DEPTHS]
        out += draws("pushdown:pdmfsm", lambda r, n: pdm_random(r, n, False),
                     "pdmfsm", PDM_FSM_NETS)
        out += draws("pushdown:pdmpdm", lambda r, n: pdm_random(r, n, True),
                     "pdmpdm", PDM_PDM_NETS)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(f"{workload}:{seed}").shuffle(out)
    return out


def write_corpus(instances, directory):
    """Write each instance's three machine files; returns the paths as
    (instance, leader, contributor, property) tuples."""
    out = []
    for inst in instances:
        paths = []
        for role, m in (("leader", inst.leader),
                        ("contributor", inst.contributor),
                        ("property", inst.prop)):
            path = os.path.join(directory, f"{inst.name}.{role}")
            with open(path, "w", encoding="utf-8") as f:
                f.write(machine_text(m, inst.values))
            paths.append(path)
        out.append((inst, *paths))
    return out
