"""The benchmark's tracer (perfbench/trace.py) wraps paramck functions by
module attribute; a renamed function, or one no longer called through its
module, must fail here and not only in a traced benchmark run."""

from perfbench.trace import Tracer

from paramck.api import run_check
from paramck.machines import Fsm, Pdm, PdmRule, make_network
from fixtures import la, ca, ring_network


def push_pop_network():
    """A PDM leader that pushes an A on reading 1 and pops it on reading 2,
    fed by a contributor that writes both values."""
    leader = Pdm(frozenset(["d0", "d1"]), ("Z", "A"), "d0",
                 (PdmRule("d0", la("read", "1"), "Z", "d1", ("push", "A")),
                  PdmRule("d1", la("read", "2"), "A", "d0", ("pop",))),
                 frozenset(["d1"]))
    contrib = Fsm(frozenset(["q0", "q1"]), "q0",
                  (("q0", ca("write", "1"), "q1"),
                   ("q1", ca("write", "2"), "q0")))
    return make_network(["1", "2"], leader, contrib)


def window_network():
    """An FSM leader that reads 1 forever and a PDM contributor that writes
    it while pushing and popping; auto restricts the contributor."""
    leader = Fsm(frozenset(["p"]), "p", (("p", la("read", "1"), "p"),),
                 frozenset(["p"]))
    contrib = Pdm(frozenset(["q"]), ("Z", "A"), "q",
                  (PdmRule("q", ca("write", "1"), "Z", "q", ("push", "A")),
                   PdmRule("q", ca("write", "1"), "A", "q", ("push", "A")),
                   PdmRule("q", ca("write", "1"), "A", "q", ("pop",))))
    return make_network(["1"], leader, contrib)


def test_traced_checks_record_their_layers():
    tracer = Tracer()             # resolves every wrapped name
    names, counts = [], []
    try:
        tracer.active = True
        for net, mode in ((ring_network(), "fsm-fsm"),
                          (push_pop_network(), "pdm-fsm"),
                          (window_network(), "fsm-fsm")):
            tracer.reset()
            verdict, used = run_check(net)
            assert (verdict.kind, used) == ("NONEMPTY", mode)
            names.append({span[0] for span in tracer.spans})
            counts.append(tracer.counts)
    finally:
        tracer.close()
    fsm, pdm, window = names
    assert {"parikh.solve", "explicit.replay", "abstraction.reach",
            "cyclesearch.cycle_fsa"} <= fsm
    assert counts[0]["abstraction.configs"] > 0
    assert "reduction.restrict" in window
    assert counts[2]["reduction.window_states"] > 0
    # the LPs of the fixpoint go through parikh.linprog, which the tracer
    # wraps as parikh.highs_lp (parikh.milp, its alias, as parikh.highs_milp)
    assert fsm & {"parikh.highs_milp", "parikh.highs_lp"}
    assert {"parikh.solve", "explicit.replay", "pushdown.pop_relation"} <= pdm
