"""Pushdown contributors: the k-restriction FSM and the window bound N.

A pushdown contributor can be replaced by a finite-state machine that keeps
only a bounded window of the stack: every omega-word the contributor can
produce, it can also produce with a run whose "effective stack height" stays
below a bound N depending only on the machine's size.  The k-restriction
simulates exactly the effectively k-bounded runs, so the PDM/PDM problem
reduces to the PDM/FSM one with the N-restricted contributor, which
api.run_check swaps in.
"""

from __future__ import annotations

from . import graph
from .machines import EXPLORE_BUDGET, Fsm, Pdm, make_network, stack_step


def restrict(pdm, k, budget=EXPLORE_BUDGET):
    """The k-restriction: an FSM over states (q, window) where the window is
    the top min(k, height) stack symbols.

    A push slides the window (the symbol falling out is forgotten for good);
    a pop requires at least two symbols in the window, since a pop that would
    empty it means the run dipped more than k below an earlier height, which
    no effectively k-bounded run does.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    initial = (pdm.initial, (pdm.bottom,))

    def successors(state):
        q, window = state
        return [(rule.action, (rule.dst, new_window[:k])) for rule in pdm.rules
                if rule.src == q
                and (new_window := stack_step(rule, window)) is not None]

    found = graph.explore(initial, successors, budget,
                          f"{k}-restriction exceeds {budget} states")
    return Fsm(frozenset(found.order), initial,
               tuple((state, action, target) for state in found.order
                     for action, target in found.edges[state]), None)


def compute_N(contributor):
    """Window bound sufficient for replacing a pushdown contributor by its
    restriction: 2 |Q|^2 |Gamma| + 1."""
    return 2 * len(contributor.states) ** 2 * len(contributor.stack_alphabet) + 1


def restrict_network(net, budget=EXPLORE_BUDGET):
    """The network with its PDM contributor replaced by the N-restriction
    (N = compute_N of the contributor).

    Transition ids are re-assigned from the restricted machine, so witnesses
    for the returned network speak about window states, not stacks.
    """
    if not isinstance(net.contributor, Pdm):
        raise ValueError("contributor is not a PDM")
    restricted = restrict(net.contributor, compute_N(net.contributor), budget)
    return make_network(net.values, net.leader, restricted)
