"""Abstraction of the concrete system for FSM contributors.

An abstract configuration keeps the leader state and store value but replaces
the population by the set Q of contributor states that hold at least one
token.  The abstraction simulates every concrete path, and Q only ever grows
along abstract paths.

The abstract BFS explores the integer codes of configurations that
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
    edges: Successors      # code -> its (Transition, code, repl) moves
    parent: dict           # code -> (predecessor, Transition), None at the root
    codec: Codec           # net.moves


class Successors(dict):
    """code -> net.moves.successors(code, None), made on first use: a check
    that reads one Successors expands no code twice."""

    def __init__(self, codec):
        self.codec = codec

    def __missing__(self, code):
        succ = self[code] = self.codec.successors(code, None)
        return succ


def initial_abstract(net):
    return AbstractConfig(net.leader.initial, UNINIT,
                          frozenset([net.contributor.initial]))


def reachable_abstract(net, budget=EXPLORE_BUDGET, found=None, moves=None):
    """Deterministic BFS over the codes of the abstract system (FSM leader
    and contributor), reading successors from moves (a new Successors if
    None).  found is graph.explore's hook; more than budget configurations
    discovered raise BudgetExceeded.

    One predecessor edge per configuration (first discovered) is kept for stem
    extraction; any stem works because every abstract path can be covered by a
    sufficiently large concrete population.
    """
    if not isinstance(net.leader, Fsm) or not isinstance(net.contributor, Fsm):
        raise ValueError("reachable_abstract needs FSM leader and contributor")
    moves = Successors(net.moves) if moves is None else moves
    reach = graph.explore(
        moves.codec.encode(initial_abstract(net)), moves.__getitem__,
        budget, f"more than {budget} abstract configurations", found)
    return AbstractReach(reach.order, moves, reach.parent, moves.codec)
