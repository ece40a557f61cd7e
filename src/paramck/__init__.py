"""paramck: liveness checking for leader/contributor register networks."""

from .machines import (Action, Fsm, Pdm, PdmRule, Network, Transition,
                       BudgetExceeded, InternalError, buchi_product,
                       make_network, validate, UNINIT, LEADER, CONTRIBUTOR,
                       READ, WRITE)
from .explicit import ConcreteConfig, Witness, Verdict, check_explicit, replay
from .cyclesearch import check_fsm_fsm
from .pushdown import check_pdm_fsm
from .reduction import restrict, restrict_network, compute_N
from .parikh import parikh_fsa, parikh_cfg, solve
from .fileformat import (ParseError, parse_machine_file, print_machine,
                         parse_witness, print_witness)
from .api import MODES, resolve_mode, replay_network, run_check

__all__ = [
    "Action", "Fsm", "Pdm", "PdmRule", "Network", "Transition",
    "BudgetExceeded", "InternalError", "buchi_product", "make_network",
    "validate",
    "UNINIT", "LEADER", "CONTRIBUTOR", "READ", "WRITE",
    "ConcreteConfig", "Witness", "Verdict", "check_explicit", "replay",
    "check_fsm_fsm", "check_pdm_fsm",
    "restrict", "restrict_network", "compute_N",
    "parikh_fsa", "parikh_cfg", "solve",
    "ParseError", "parse_machine_file", "print_machine", "parse_witness",
    "print_witness", "MODES", "resolve_mode", "replay_network", "run_check",
]

__version__ = "0.1.0"
