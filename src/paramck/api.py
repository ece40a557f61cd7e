"""Mode resolution and the top-level check entry point."""

from __future__ import annotations

from .machines import Pdm
from .explicit import check_explicit, Verdict
from .cyclesearch import check_fsm_fsm
from .pushdown import check_pdm_fsm
from .reduction import restrict_network, check_pdm_pdm

MODES = ("auto", "fsm-fsm", "pdm-fsm", "pdm-pdm", "explicit")


def resolve_mode(net, mode="auto"):
    """Validate a requested mode against the machine kinds, or pick one.

    An FSM leader with a PDM contributor has no dedicated mode; under auto the
    contributor is restricted and the fsm-fsm procedure runs.
    """
    leader_pdm = isinstance(net.leader, Pdm)
    contrib_pdm = isinstance(net.contributor, Pdm)
    if mode == "auto":
        if leader_pdm and contrib_pdm:
            return "pdm-pdm"
        if leader_pdm:
            return "pdm-fsm"
        return "fsm-fsm"
    if mode == "fsm-fsm" and (leader_pdm or contrib_pdm):
        raise ValueError("fsm-fsm mode needs FSM leader and contributor")
    if mode == "pdm-fsm" and (not leader_pdm or contrib_pdm):
        raise ValueError("pdm-fsm mode needs a PDM leader and an FSM contributor")
    if mode == "pdm-pdm" and not (leader_pdm and contrib_pdm):
        raise ValueError("pdm-pdm mode needs PDM leader and contributor")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    return mode


def replay_network(net):
    """The network a parameterized-mode witness refers to: contributor PDMs
    are replaced by their restriction (witness tids index its transitions)."""
    if isinstance(net.contributor, Pdm):
        return restrict_network(net)[0]
    return net


def run_check(net, mode="auto", k=None, stack_bound=None):
    """Run the requested decision procedure.

    Returns (verdict, resolved mode).  Witnesses in parameterized modes refer
    to replay_network(net); explicit-mode witnesses refer to net itself.
    """
    mode = resolve_mode(net, mode)
    if mode == "explicit":
        if k is None:
            raise ValueError("explicit mode needs a contributor count")
        return check_explicit(net, k, stack_bound), mode
    if mode == "pdm-pdm":
        return check_pdm_pdm(net), mode
    if mode == "pdm-fsm":
        return check_pdm_fsm(net), mode
    if isinstance(net.contributor, Pdm):
        restricted = replay_network(net)
        return check_fsm_fsm(restricted), mode
    return check_fsm_fsm(net), mode
