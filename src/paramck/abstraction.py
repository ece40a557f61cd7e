"""Abstraction of the concrete system for FSM contributors.

An abstract configuration keeps the leader state and store value but replaces
the population by the set Q of contributor states that hold at least one
token.  The abstraction simulates every concrete path, and Q only ever grows
along abstract paths.

The saturation explores integer codes of configurations.  With the leader
states, the stores (``#`` first, then the values) and the contributor
states each numbered in sorted(key=repr) order, (l, g, Q) has the code
((l * |stores| + g) << |C|) | Qmask, where bit i of Qmask stands for the
i-th contributor state.  A move keeps Q iff it keeps the low |C| bits, and
Q is a subset of Q' iff Qmask & ~Q'mask is 0.  Codec.decode turns a code
back into an AbstractConfig where a set is needed.
"""

from __future__ import annotations

from typing import NamedTuple

from . import graph
from .machines import EXPLORE_BUDGET, Fsm, UNINIT


class AbstractConfig(NamedTuple):
    leader_state: object
    store: str
    Q: frozenset           # populated contributor states, never empty


class Codec:
    """The numbering of a network's leader states, stores and contributor
    states behind the integer codes of its abstract configurations.

    Each numbering takes what the network declares and what its transitions
    name, so a network built without validation still has a code for every
    configuration its moves reach.  The stores are those of net.moves."""

    def __init__(self, net):
        def named(machine, transitions):
            return tuple(sorted(
                set(machine.states) | {machine.initial}
                | {s for t in transitions for s in (t.src, t.dst)}, key=repr))

        self.leader_states = named(net.leader, net.leader_transitions)
        self.stores = net.moves.stores
        self.contributor_states = named(net.contributor,
                                        net.contributor_transitions)
        self.width = len(self.contributor_states)
        self.q_mask = (1 << self.width) - 1
        self.leader_index = {s: i for i, s in enumerate(self.leader_states)}
        self.store_index = {g: i for i, g in enumerate(self.stores)}
        self.bit = {q: 1 << i for i, q in enumerate(self.contributor_states)}

    def encode(self, a):
        key = self.leader_index[a.leader_state] * len(self.stores) \
            + self.store_index[a.store]
        return (key << self.width) | sum(self.bit[q] for q in a.Q)

    def decode(self, code):
        leader, store = divmod(code >> self.width, len(self.stores))
        return AbstractConfig(
            self.leader_states[leader], self.stores[store],
            frozenset(q for i, q in enumerate(self.contributor_states)
                      if (code >> i) & 1))


class AbstractReach(NamedTuple):
    order: list            # codes in discovery order
    edges: dict            # code -> its (Transition, code) successors
    parent: dict           # code -> (predecessor, Transition), None at the root
    codec: Codec


def initial_abstract(net):
    return AbstractConfig(net.leader.initial, UNINIT,
                          frozenset([net.contributor.initial]))


def reachable_abstract(net, budget=EXPLORE_BUDGET):
    """Deterministic BFS saturation of the abstract system (FSM leader and
    contributor) over codes: the successors of a code are (Transition,
    code) pairs, the leader's moves and then the contributors', each in tid
    order.

    The moves come from two code tables filled from net.moves: per store,
    the contributor moves as (t, source bit, target bit, change of the
    code's high part), which a move makes when Q has the source bit; per
    (leader state, store), the leader moves as (t, code of the target with
    Q empty), which a move ORs with Q.

    One predecessor edge per configuration (first discovered) is kept for stem
    extraction; any stem works because every abstract path can be covered by a
    sufficiently large concrete population.
    """
    if not isinstance(net.leader, Fsm) or not isinstance(net.contributor, Fsm):
        raise ValueError("reachable_abstract needs FSM leader and contributor")
    codec = Codec(net)
    n, q_mask = codec.width, codec.q_mask
    stores = len(codec.stores)
    bit, store, state = codec.bit, codec.store_index, codec.leader_index
    contributor = [[(t, bit[t.src], bit[t.dst], (store[g2] - store[g]) << n)
                    for t, g2 in net.moves.contributor[g]]
                   for g in codec.stores]
    leader = [()] * (len(codec.leader_states) * stores)
    for (s, g, _), moves in net.moves.leader.items():
        leader[state[s] * stores + store[g]] = [
            (t, (state[d] * stores + store[g2]) << n)
            for t, d, g2, _ in moves]

    def successors(code):
        key, Q = code >> n, code & q_mask
        return [(t, base | Q) for t, base in leader[key]] + \
            [(t, (code + shift) | dst)
             for t, src, dst, shift in contributor[key % stores] if Q & src]

    reach = graph.explore(codec.encode(initial_abstract(net)), successors,
                          budget, f"more than {budget} abstract configurations")
    return AbstractReach(*reach, codec)
