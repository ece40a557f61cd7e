import random

import pytest

from paramck.machines import Fsm, Pdm, PdmRule, make_network
from paramck.explicit import replay
from paramck.api import run_check
from paramck.reduction import compute_N, restrict, restrict_network
from fixtures import ca, la, random_small_pdm, updown_pdm, updown_run
from window_oracles import (RunPrefix, effective_stack_height,
                            kbounded_agreement, run_configs)


# ---------------------------------------------------------------------------
# runs and effective stack height

def test_run_configs_tracks_stack():
    run = updown_run()
    cfgs = run_configs(run)
    assert [len(s) for _, s in cfgs] == [1, 2, 3, 4, 3, 2, 1]
    assert cfgs[0] == ("p", ("Z",))
    assert cfgs[3] == ("p", ("X", "X", "X", "Z"))


def test_run_configs_rejects_illegal_runs():
    pdm, (r_a, r_b, r_c) = updown_pdm()
    with pytest.raises(ValueError):
        run_configs(RunPrefix(pdm, (r_b,)))          # wrong top symbol
    with pytest.raises(ValueError):
        run_configs(RunPrefix(pdm, (r_a, r_c, r_c)))  # pops the bottom


def test_esh_profile_of_updown_run():
    run = updown_run()
    assert [effective_stack_height(run, i) for i in range(7)] \
        == [1, 2, 3, 4, 3, 2, 1]


def test_esh_out_of_range():
    with pytest.raises(ValueError):
        effective_stack_height(updown_run(), 7)


def test_esh_on_lasso_sees_the_infinite_future():
    pdm, (r_a, r_b, r_c) = updown_pdm()
    # stem a b b, then (c b)^omega: the cycle keeps dipping to height 3,
    # so the prefix peak at height 4 stays effectively height 2 forever
    lasso = RunPrefix(pdm, (r_a, r_b, r_b, r_c, r_b), lasso=(3, 2))
    assert effective_stack_height(lasso, 3) == 2
    # the same three rules as a finite prefix end at the peak: esh 1 there
    finite = RunPrefix(pdm, (r_a, r_b, r_b))
    assert effective_stack_height(finite, 3) == 1


def test_bad_lasso_marker():
    pdm, rules = updown_pdm()
    bad = RunPrefix(pdm, rules, lasso=(1, 3))
    with pytest.raises(ValueError):
        effective_stack_height(bad, 0)


# ---------------------------------------------------------------------------
# the k-restriction

def accepts(fsm, word):
    frontier = {fsm.initial}
    for act in word:
        frontier = {dst for src, a, dst in fsm.transitions
                    if src in frontier and a == act}
        if not frontier:
            return False
    return True


def test_restriction_window_pins_truncate_and_forget():
    pdm, _ = updown_pdm()
    word = tuple(ca("write", v) for v in "122333")
    # the run climbs to height 4; a window of 4 keeps the bottom symbol in
    # sight for the final pop, a window of 3 forgets it and gets stuck
    assert accepts(restrict(pdm, 4), word)
    assert not accepts(restrict(pdm, 3), word)


def test_restriction_rejects_k_zero():
    pdm, _ = updown_pdm()
    with pytest.raises(ValueError):
        restrict(pdm, 0)


def test_kbounded_agreement_on_fixture():
    pdm, _ = updown_pdm()
    for k in (1, 2, 3, 4):
        assert kbounded_agreement(pdm, k, 8) == ("holds", None)


def test_kbounded_agreement_on_random_pdms():
    rng = random.Random(31)
    for _ in range(10):
        pdm = random_small_pdm(rng)
        for k in (1, 2, 3):
            assert kbounded_agreement(pdm, k, 6) == ("holds", None)


def test_compute_n():
    pdm, _ = updown_pdm()
    assert compute_N(pdm) == 5            # 2 * 1^2 * 2 + 1
    two = Pdm(frozenset(["q0", "q1"]), ("Z", "X"), "q0", ())
    assert compute_N(two) == 17           # 2 * 2^2 * 2 + 1


# ---------------------------------------------------------------------------
# PDM/PDM checking via restriction

def small_pdm_pdm_network(accepting=True):
    leader = Pdm(frozenset(["p"]), ("Z", "A"), "p",
                 (PdmRule("p", la("read", "1"), "Z", "p", ("push", "A")),
                  PdmRule("p", la("read", "1"), "A", "p", ("push", "A"))),
                 frozenset(["p"]) if accepting else frozenset())
    contrib = Pdm(frozenset(["q"]), ("Z", "X"), "q",
                  (PdmRule("q", ca("write", "1"), "Z", "q", ("push", "X")),
                   PdmRule("q", ca("write", "1"), "X", "q", ("push", "X")),
                   PdmRule("q", ca("write", "1"), "X", "q", ("pop",))))
    return make_network(["1"], leader, contrib)


def test_restrict_network_swaps_in_the_window_fsm():
    net = small_pdm_pdm_network()
    restricted = restrict_network(net)
    # the window is N = 5 deep: the contributor can push X forever
    assert compute_N(net.contributor) == 5
    assert max(len(window) for _, window in restricted.contributor.states) == 5
    assert isinstance(restricted.contributor, Fsm)
    assert restricted.leader is net.leader


def test_restrict_network_requires_pdm_contributor():
    pdm, _ = updown_pdm()
    fsm_contrib = Fsm(frozenset(["q"]), "q", ())
    net = make_network(["1"], Pdm(frozenset(["p"]), ("Z",), "p", (),
                                  frozenset(["p"])), fsm_contrib)
    with pytest.raises(ValueError):
        restrict_network(net)


def test_pdm_pdm_nonempty_with_restricted_replay():
    net = small_pdm_pdm_network()
    v, mode = run_check(net)
    assert mode == "pdm-pdm"
    assert v.kind == "NONEMPTY"
    assert v.stats["window_bound"] == 5
    restricted = restrict_network(net)
    assert replay(restricted, v.witness) == ("valid", None)


def test_pdm_pdm_empty_without_accepting_states():
    v, mode = run_check(small_pdm_pdm_network(accepting=False))
    assert (v.kind, mode) == ("EMPTY", "pdm-pdm")
