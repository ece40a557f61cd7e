"""parikh.solve, the max-support fixpoint, against the integer solver it
replaced (integer_oracle) on the systems the checkers build, and what a
wrong LP point turns into."""

import random
import weakref
from collections import Counter
from fractions import Fraction

import pytest

import integer_oracle
from paramck import parikh
from paramck.api import run_check
from paramck.cyclesearch import (build_cycle_fsa, check_fsm_fsm, lasso,
                                 reachable_abstract, realizability_system)
from paramck.explicit import replay
from paramck.machines import EXPLORE_BUDGET, AbstractConfig, InternalError
from paramck.pushdown import (LOOPS, _model_word, check_pdm_fsm, find_stem,
                              loop_system, post_star)
from fixtures import ring_network, satisfies
from test_cyclesearch import letter_rows, refinement_nets
from test_pushdown import (gf_product_network, loop_grammar, loop_test_nets,
                           pivot_automata)


def fsm_systems(nets):
    """The realizability system at every accepting configuration."""
    for net in nets:
        reach = reachable_abstract(net)
        for a in reach.order:
            if net.moves.decode(a).leader_state in net.leader.accepting:
                yield realizability_system(net, build_cycle_fsa(net, a, ()))


def pdm_nets():
    rng = random.Random(53)
    return loop_test_nets() + [gf_product_network(rng) for _ in range(60)]


def loop_grammars(nets):
    """(net, pivot, reduced loop grammar, post*'s derivations) at every pivot
    whose reduced grammar keeps its start symbol: those that pass
    loop_reach, as check_pdm_fsm builds them, and the accepting pivots
    whose only loop word is the empty one."""
    for net in nets:
        derivations = {}
        pairs = post_star(net, derivations=derivations)
        automata = pivot_automata(net, pairs)
        for control, gamma in pairs:
            automaton = automata[control & net.moves.q_mask]
            grammar = parikh.reduce_grammar(
                loop_grammar(net, control, gamma, automaton))
            if grammar.start in grammar.nonterminals:
                yield net, (control, gamma), grammar, derivations


def test_fixpoint_agrees_with_the_oracle_at_every_accepting_configuration():
    found = refuted = 0
    for system in fsm_systems(refinement_nets()):
        model = parikh.solve(system)
        assert (model is None) == (integer_oracle.solve(system) is None)
        if model is None:
            refuted += 1
        else:
            found += 1
            assert satisfies(system.atoms, model)
    assert found >= 200 and refuted >= 150


def test_fixpoint_agrees_with_the_oracle_on_every_loop_system():
    # the relaxed start row (LOOPS >= 1 loop words) and the grammar's own
    # (exactly one) have models for the same pivots, and every model is a
    # witness, LOOPS loop words long, that replays
    loops = Counter()
    refuted = 0
    for net, pivot, grammar, derivations in loop_grammars(pdm_nets()):
        system = loop_system(net, grammar)
        model = parikh.solve(system)
        assert (model is None) == (integer_oracle.solve(system) is None)
        once = parikh.parikh_cfg(grammar).conjoin(letter_rows(net))
        assert (model is None) == (integer_oracle.solve(once) is None)
        if model is None:
            refuted += 1
            continue
        assert satisfies(system.atoms, model)
        stem = find_stem(net, *pivot, derivations, EXPLORE_BUDGET)
        witness = lasso(net, stem, net.moves.decode(pivot[0]).Q,
                        _model_word(grammar, model), pivot[1])
        assert replay(net, witness) == ("valid", None)
        loops[model[LOOPS] > 1] += 1
    # 48 models of one loop word, 15 of more, and 56 refutations
    assert loops[False] >= 40 and loops[True] >= 10 and refuted >= 40


def test_every_nonempty_witness_replays():
    kinds = []
    for net in refinement_nets():
        v = check_fsm_fsm(net)
        kinds.append(v.kind)
        if v.kind == "NONEMPTY":
            assert replay(net, v.witness) == ("valid", None)
    for net in pdm_nets():
        v = check_pdm_fsm(net)
        kinds.append(v.kind)
        if v.kind == "NONEMPTY":
            assert replay(net, v.witness) == ("valid", None)
    assert set(kinds) == {"NONEMPTY", "EMPTY"}


def counting_lps(monkeypatch):
    """Patch parikh.linprog to record each call as the whole program it
    solves, (cost, rows, upper): a call that resumes a tableau adds its
    rows to the rows of the calls that tableau has seen."""
    calls, programs = [], weakref.WeakKeyDictionary()

    def counting(cost, rows, upper, tableau=None, _real=parikh.linprog):
        program = [*(programs.get(tableau, ()) if tableau else ()), *rows]
        if tableau is not None:
            programs[tableau] = program
        calls.append((cost, program, upper))
        return _real(cost, rows, upper, tableau)

    monkeypatch.setattr(parikh, "linprog", counting)
    return calls


def test_no_solve_solves_an_lp_twice(monkeypatch):
    # _cone_point keeps each point on the system's index, so _shrink's
    # first LP, on the support of a ball's fixpoint, is not solved again
    # when it is the ball's short point; a cut's LP resumes the program
    # before it, and is counted as that program with the cut's row added
    systems = list(fsm_systems(refinement_nets())) + [
        loop_system(net, grammar)
        for net, _, grammar, _ in loop_grammars(pdm_nets())]
    calls = counting_lps(monkeypatch)
    lps = 0
    for system in systems:
        calls.clear()
        parikh.solve(system)
        lp = [(tuple(cost), tuple((tuple(sorted(row.items())), const)
                                  for row, const in rows), tuple(upper))
              for cost, rows, upper in calls]
        assert len(set(lp)) == len(lp)
        lps += len(lp)
    assert lps >= 300


def test_every_resumed_cut_has_the_cold_optimum(monkeypatch, tmp_path):
    # each LP of _shrink's cut sequences resumes the program before it with
    # its cut's row: its value is that of the whole program solved afresh,
    # and its point passes _cone_point's integer check (solve would raise).
    # The realizability and loop systems of the fixture nets reach no cut;
    # the systems of the seed-1 fsm bench corpus and random cone systems do
    from perfbench.corpus import make_corpus, write_corpus
    from perfbench.worker import load_network
    from test_index import random_cone_system
    systems = []
    monkeypatch.setattr(parikh, "solve", lambda system, _real=parikh.solve:
                        systems.append(system) or _real(system))
    for inst, *files in write_corpus(make_corpus("fsm", 1), str(tmp_path)):
        run_check(load_network(inst, files))
    monkeypatch.undo()
    rng = random.Random(73)
    systems += [*fsm_systems(refinement_nets()),
                *(loop_system(net, grammar)
                  for net, _, grammar, _ in loop_grammars(pdm_nets())),
                *(random_cone_system(rng) for _ in range(2000))]
    cold, calls, resumed = parikh.linprog, counting_lps(monkeypatch), []

    def checking(cost, rows, upper, tableau=None, _counting=parikh.linprog):
        x = _counting(cost, rows, upper, tableau)
        _, program, _ = calls[-1]
        if len(program) > len(rows):
            y = cold(cost, program, upper)
            resumed.append(len(rows))
            assert (x is None) == (y is None)
            assert x is None or sum(c * v for c, v in zip(cost, x)) == \
                sum(c * v for c, v in zip(cost, y))
        return x

    monkeypatch.setattr(parikh, "linprog", checking)
    for system in systems:
        model = parikh.solve(system)
        assert model is None or satisfies(system.atoms, model)
    # one cut's row at a time
    assert set(resumed) == {1} and len(resumed) >= 80


def test_a_point_off_the_cone_is_an_error(monkeypatch):
    # a linprog whose point fails the integer check makes _cone_point
    # raise, and every check that reaches an LP ends in ERROR, never in a
    # verdict; the others keep theirs
    nets = [ring_network()] + refinement_nets() + pdm_nets()
    calls = counting_lps(monkeypatch)
    before = []                   # (verdict, mode when it made an LP)
    for net in nets:
        calls.clear()
        verdict, mode = run_check(net)
        before.append((verdict.kind, mode if calls else None))
    monkeypatch.setattr(parikh, "linprog", lambda cost, rows, upper, *_:
                        [Fraction(-1)] * len(upper))
    ix = parikh._Index(next(fsm_systems(refinement_nets())))
    with pytest.raises(InternalError):
        parikh._cone_point(ix, set(range(ix.n)), False)
    for net, (kind, lp_mode) in zip(nets, before):
        verdict, _ = run_check(net)
        if lp_mode:
            assert verdict.kind == "ERROR"
            assert "off the cone" in verdict.stats["reason"]
        else:
            assert verdict.kind == kind
    modes = Counter(mode for _, mode in before)
    assert modes["fsm-fsm"] >= 2 and modes["pdm-fsm"] >= 1


def test_edge_order_does_not_change_the_work(monkeypatch, tmp_path):
    # fsm/random07 of the fsm bench corpus, at the accepting configuration
    # (('s1', 'p3'), '2', {q0, q1, q2, q3}): the same 250 edges in
    # build_cycle_fsa order from that configuration and in the order of the
    # first-visited configuration of its component, which refine keeps.
    # The integer solver took 2 MILP calls on the first and 56 on the second.
    from perfbench.corpus import make_corpus, write_corpus
    from perfbench.worker import load_network
    inst = next(i for i in make_corpus("fsm", 1) if i.name == "random07")
    (_, *files), = write_corpus([inst], str(tmp_path))
    net = load_network(inst, files)
    reach = reachable_abstract(net)
    a = net.moves.encode(AbstractConfig(
        ("s1", "p3"), "2", frozenset({"q0", "q1", "q2", "q3"})))
    assert a in reach.parent
    fsa = build_cycle_fsa(net, a, ())
    first = next(c for c in reach.order if c in fsa.states)
    edges = build_cycle_fsa(net, first, ()).edges
    assert first != a and edges != fsa.edges
    assert sorted(edges, key=repr) == sorted(fsa.edges, key=repr)
    calls = counting_lps(monkeypatch)
    work = []
    for fsa in (fsa, parikh.Fsa(fsa.states, edges, a, a)):
        calls.clear()
        model = parikh.solve(realizability_system(net, fsa))
        work.append((model is not None, len(calls)))
    assert work[0] == work[1]
    has_model, lp_calls = work[0]
    assert has_model and lp_calls <= 4
