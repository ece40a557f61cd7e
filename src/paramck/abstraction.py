"""Abstraction of the concrete system for FSM contributors.

An abstract configuration keeps the leader state and store value but replaces
the population by the set Q of contributor states that hold at least one
token.  The abstraction simulates every concrete path, and Q only ever grows
along abstract paths.

The saturation explores the integer codes of configurations that
net.moves (machines.Codec) numbers and moves: Q is the low bits of a code,
so a move keeps Q iff it keeps those bits, and Q is a subset of Q' iff
Qmask & ~Q'mask is 0.  Codec.decode turns a code back into an
AbstractConfig where a set is needed.
"""

from __future__ import annotations

from typing import NamedTuple

from . import graph
from .machines import EXPLORE_BUDGET, AbstractConfig, Codec, Fsm, UNINIT


class AbstractReach(NamedTuple):
    order: list            # codes in discovery order
    edges: dict            # code -> its (Transition, code) successors
    parent: dict           # code -> (predecessor, Transition), None at the root
    codec: Codec           # net.moves


def initial_abstract(net):
    return AbstractConfig(net.leader.initial, UNINIT,
                          frozenset([net.contributor.initial]))


def reachable_abstract(net, budget=EXPLORE_BUDGET):
    """Deterministic BFS saturation of the abstract system (FSM leader and
    contributor) over codes: the successors of a code are (Transition,
    code) pairs in net.moves.successors order, the leader's moves and then
    the contributors', each in tid order.

    One predecessor edge per configuration (first discovered) is kept for stem
    extraction; any stem works because every abstract path can be covered by a
    sufficiently large concrete population.
    """
    if not isinstance(net.leader, Fsm) or not isinstance(net.contributor, Fsm):
        raise ValueError("reachable_abstract needs FSM leader and contributor")
    moves = net.moves
    reach = graph.explore(
        moves.encode(initial_abstract(net)),
        lambda code: [(t, c2) for t, c2, _ in moves.successors(code, None)],
        budget, f"more than {budget} abstract configurations")
    return AbstractReach(*reach, moves)
