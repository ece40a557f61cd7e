"""check_fsm_fsm decides each accepting configuration when the abstract BFS
discovers it and stops at the first witness.  It must decide what the
saturate-then-decide loop it replaced (abstraction_oracle) decides, with
the same cycle automata and witnesses, and it must decide nets whose
abstract system is far larger than the prefix before the witness."""

import itertools
import math
import random
from collections import Counter

import pytest

import abstraction_oracle
from paramck import cyclesearch
from paramck.cyclesearch import (build_cycle_fsa, check_fsm_fsm, dead_at,
                                 reachable_abstract, refine)
from paramck.explicit import replay
from paramck.machines import BudgetExceeded
from perfbench import corpus
from perfbench.worker import load_network
from fixtures import ring_network, stalled_network
from test_cyclesearch import refinement_nets


def recorded_cycle_fsas(monkeypatch):
    """The cycle automata check_fsm_fsm builds, in the order it builds them."""
    built = []
    real = cyclesearch.build_cycle_fsa

    def recording(net, a, dead):
        built.append(real(net, a, dead))
        return built[-1]
    monkeypatch.setattr(cyclesearch, "build_cycle_fsa", recording)
    return built


def assert_decides_as_the_oracle(net, built):
    built.clear()
    v = check_fsm_fsm(net)
    expected = []
    oracle = abstraction_oracle.saturate_then_decide(net, built=expected)
    assert (v.kind, v.witness) == (oracle.kind, oracle.witness)
    if v.kind == "NONEMPTY":
        assert replay(net, v.witness) == ("valid", None)
    for key in ("accepting_checked", "solves"):
        assert v.stats[key] == oracle.stats[key]
    configs = v.stats["abstract_configs"]
    if v.kind == "EMPTY":
        assert configs == oracle.stats["abstract_configs"]
    else:
        assert configs <= oracle.stats["abstract_configs"]
    assert [(f.states, f.edges, f.initial, f.final) for f in built] == \
        [(f.states, f.edges, f.initial, f.final) for f in expected]
    return v.kind, configs, oracle.stats["abstract_configs"]


def test_fixture_nets_are_decided_as_after_saturation(monkeypatch):
    built = recorded_cycle_fsas(monkeypatch)
    runs = [assert_decides_as_the_oracle(net, built)
            for net in [ring_network(), stalled_network()] + refinement_nets()]
    kinds = [kind for kind, _, _ in runs]
    assert kinds[:2] == ["NONEMPTY", "EMPTY"]
    # some witness is found before the whole system is explored
    assert any(configs < full for _, configs, full in runs)


def test_each_code_is_expanded_once_per_check():
    # the BFS and the cycle automata share the memo of net.moves
    for net in [ring_network()] + refinement_nets():
        calls = Counter()
        real = net.moves.expand

        def counting(code, top, real=real, calls=calls):
            calls[code] += 1
            return real(code, top)
        net.moves.expand = counting
        check_fsm_fsm(net)
        assert set(calls.values()) == {1}


def test_fsm_corpus_is_decided_as_after_saturation(monkeypatch, tmp_path):
    built = recorded_cycle_fsas(monkeypatch)
    kinds = []
    for inst, *files in corpus.write_corpus(corpus.make_corpus("fsm", 1),
                                            str(tmp_path)):
        kind, _, _ = assert_decides_as_the_oracle(
            load_network(inst, files), built)
        assert inst.expect in (None, kind)
        kinds.append(kind)
    assert kinds.count("NONEMPTY") >= 30 and kinds.count("EMPTY") >= 40


def large_contributor_nets(tmp_path):
    """Three corpus.fsm_random draws from Random(f"big{n}") for each of
    n = 16, 20 and 24 contributor states, with a 9-state leader and 3
    values, whose abstract systems are far larger than 1,000 configurations."""
    for n in (16, 20, 24):
        rng = random.Random(f"big{n}")
        for i in range(3):
            inst = corpus.fsm_random(rng, f"big{n}_{i}", 9, n, 3)
            (_, *files), = corpus.write_corpus([inst], str(tmp_path))
            yield load_network(inst, files)


def test_large_contributor_nets_are_decided_before_saturation(tmp_path):
    # a budget of 1,000 is exhausted long before any of these saturates
    for net in large_contributor_nets(tmp_path):
        v = check_fsm_fsm(net, budget=1_000)
        assert v.kind == "NONEMPTY"
        assert v.stats["abstract_configs"] <= 516
        assert replay(net, v.witness) == ("valid", None)
        # the budget bounds the configurations discovered before the verdict
        configs = v.stats["abstract_configs"]
        assert check_fsm_fsm(net, budget=configs).witness == v.witness
        if configs > 1:
            with pytest.raises(BudgetExceeded):
                check_fsm_fsm(net, budget=configs - 1)


def part_by_source(net, fsa, a):
    """The edges of the refined part of fsa that holds a, grouped by source
    in their order (what closed_walk reads), or None."""
    part = next((p for p in refine(net, fsa.edges)
                 if any(src == a for src, _, _ in p)), None)
    if part is None:
        return None
    grouped = {}
    for e in part:
        grouped.setdefault(e[0], []).append(e)
    return grouped


def assert_dead_moves_change_no_part(net, limit):
    """At each accepting configuration among the first limit that the
    abstract BFS discovers, the refined part that holds it is the same
    whether the cycle automaton keeps the moves dead at its Q or not."""
    codec = net.moves
    found = itertools.count(1)
    reach = reachable_abstract(net, math.inf, lambda c: next(found) >= limit)
    checked = pruned = 0
    for a in reach.order:
        if not codec.accepting[a >> codec.width]:
            continue
        dead = dead_at(net, a & codec.q_mask)
        fsa = build_cycle_fsa(net, a, dead)
        full = build_cycle_fsa(net, a, ())
        assert not any(lab in dead for _, lab, _ in fsa.edges)
        assert part_by_source(net, fsa, a) == part_by_source(net, full, a)
        checked += 1
        pruned += len(fsa.edges) < len(full.edges)
    return checked, pruned


def test_moves_dead_at_q_change_no_refined_part(tmp_path):
    # every accepting configuration of the fsm corpus and the refinement
    # nets, and of the first 2,000 configurations of each big{n} draw
    nets = [load_network(inst, files) for inst, *files in corpus.write_corpus(
        corpus.make_corpus("fsm", 1), str(tmp_path))] + refinement_nets()
    tallies = [assert_dead_moves_change_no_part(net, math.inf)
               for net in nets]
    tallies += [assert_dead_moves_change_no_part(net, 2_000)
                for net in large_contributor_nets(tmp_path)]
    checked = sum(c for c, _ in tallies)
    pruned = sum(p for _, p in tallies)
    assert checked >= 5_000 and pruned >= 3_000    # of 5,249 and 3,930
