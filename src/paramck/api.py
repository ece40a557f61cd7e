"""Mode resolution and the top-level check entry point.

run_check starts and ends every check: it reads PARAMCK_BUDGET, swaps a
pushdown contributor for its window FSM, runs the checker and turns what
the checker raises into a BUDGET or ERROR verdict.
"""

from __future__ import annotations

from .machines import BudgetExceeded, InternalError, Pdm, env_budget
from .explicit import check_explicit, Verdict
from .cyclesearch import check_fsm_fsm
from .pushdown import check_pdm_fsm
from .reduction import compute_N, restrict_network

MODES = ("auto", "fsm-fsm", "pdm-fsm", "pdm-pdm", "explicit")

#: what each parameterized mode needs of the machines
NEEDS = {"fsm-fsm": "an FSM leader",
         "pdm-fsm": "a PDM leader and an FSM contributor",
         "pdm-pdm": "PDM leader and contributor"}


def resolve_mode(net, mode="auto"):
    """Validate a requested mode against the machine kinds, or pick one.

    auto picks the mode from the machine kinds, and a requested mode must
    be explicit or that pick.  An FSM leader with a PDM contributor has no
    dedicated mode: the contributor is restricted and the fsm-fsm
    procedure runs.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if not isinstance(net.leader, Pdm):
        pick = "fsm-fsm"
    else:
        pick = "pdm-pdm" if isinstance(net.contributor, Pdm) else "pdm-fsm"
    if mode not in ("auto", "explicit", pick):
        raise ValueError(f"{mode} mode needs {NEEDS[mode]}")
    return pick if mode == "auto" else mode


def replay_network(net):
    """The network a parameterized-mode witness refers to: contributor PDMs
    are replaced by their restriction (witness tids index its transitions).
    Raises ValueError for an invalid PARAMCK_BUDGET, and BudgetExceeded
    when the restriction outgrows the budget."""
    if isinstance(net.contributor, Pdm):
        return restrict_network(net, env_budget())
    return net


def run_check(net, mode="auto", k=None, stack_bound=None):
    """Run the requested decision procedure.

    Returns (verdict, resolved mode).  Witnesses in parameterized modes refer
    to replay_network(net); explicit-mode witnesses refer to net itself.
    Raises ValueError for a mode the machines do not fit or an invalid
    PARAMCK_BUDGET.  A BUDGET or ERROR verdict's statistics are its reason,
    plus window_bound (N) when the contributor is a PDM.
    """
    mode = resolve_mode(net, mode)
    budget = env_budget()
    if mode == "explicit":
        if k is None:
            raise ValueError("explicit mode needs a contributor count")
        return check_explicit(net, k, stack_bound, budget), mode
    window = {}
    try:
        if isinstance(net.contributor, Pdm):
            window["window_bound"] = compute_N(net.contributor)
            net = restrict_network(net, budget)
        check = check_pdm_fsm if isinstance(net.leader, Pdm) else check_fsm_fsm
        verdict = check(net, budget)
    except BudgetExceeded as e:
        return Verdict("BUDGET", None, {"reason": str(e), **window}), mode
    except InternalError as e:
        return Verdict("ERROR", None, {"reason": str(e), **window}), mode
    verdict.stats.update(window)
    return verdict, mode
