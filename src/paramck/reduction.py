"""Pushdown contributors: the k-restriction FSM and the PDM/PDM checker.

A pushdown contributor can be replaced by a finite-state machine that keeps
only a bounded window of the stack: every omega-word the contributor can
produce, it can also produce with a run whose "effective stack height" stays
below a bound N depending only on the machine's size.  The k-restriction
simulates exactly the effectively k-bounded runs, so the PDM/PDM problem
reduces to the PDM/FSM one with the N-restricted contributor.
"""

from __future__ import annotations

from . import graph
from .machines import (EXPLORE_BUDGET, BudgetExceeded, Fsm, Pdm, env_budget,
                       make_network, stack_step)
from .explicit import Verdict


def restrict(pdm, k, budget=None):
    """The k-restriction: an FSM over states (q, window) where the window is
    the top min(k, height) stack symbols.

    A push slides the window (the symbol falling out is forgotten for good);
    a pop requires at least two symbols in the window, since a pop that would
    empty it means the run dipped more than k below an earlier height, which
    no effectively k-bounded run does.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if budget is None:
        budget = env_budget(EXPLORE_BUDGET)
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


def restrict_network(net):
    """The network with its PDM contributor replaced by the N-restriction.

    Transition ids are re-assigned from the restricted machine, so witnesses
    for the returned network speak about window states, not stacks.
    """
    if not isinstance(net.contributor, Pdm):
        raise ValueError("contributor is not a PDM")
    n = compute_N(net.contributor)
    try:
        restricted = restrict(net.contributor, n)
    except BudgetExceeded as e:
        raise BudgetExceeded(f"{e} (window bound N = {n})") from None
    return make_network(net.values, net.leader, restricted), n


def check_pdm_pdm(net):
    """Decide the PDM leader / PDM contributor problem by restricting the
    contributor to its N-bounded window FSM and deferring to the PDM/FSM
    checker.  The witness replays against the restricted network."""
    from .pushdown import check_pdm_fsm
    if not isinstance(net.leader, Pdm) or not isinstance(net.contributor, Pdm):
        raise ValueError("check_pdm_pdm needs a PDM leader and a PDM contributor")
    try:
        restricted_net, n = restrict_network(net)
    except BudgetExceeded as e:
        stats = {"reason": str(e), "window_bound": compute_N(net.contributor)}
        return Verdict("BUDGET", None, stats)
    verdict = check_pdm_fsm(restricted_net)
    verdict.stats["window_bound"] = n
    return verdict
