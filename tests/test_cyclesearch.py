import random

import networkx
import pytest

from paramck.machines import (AbstractConfig, BudgetExceeded, Fsm,
                              buchi_product, make_network)
from paramck.api import replay_network, run_check
from paramck.cyclesearch import (build_cycle_fsa, check_fsm_fsm,
                                 closed_walk, concretize,
                                 contributor_flow_rows, dead_at,
                                 reachable_abstract, realizability_system,
                                 refine)
from paramck.explicit import Verdict, _ReplayState, check_explicit, replay
from paramck.pushdown import LOOPS, loop_system
from paramck import parikh
from abstraction_oracle import abstract_moves
import integer_oracle
from fixtures import la, ca, ring_network, stalled_network, \
    random_fsm_leader, random_fsm_network, random_pdm_contributor, satisfies, \
    turn_taking_network


def accepting_codes(net, reach):
    """The codes of reach's accepting configurations, in discovery order."""
    return [a for a in reach.order if net.moves.decode(a).leader_state
            in net.leader.accepting]


def decoded_fsa(net, fsa):
    """The states and edges of a cycle automaton over codes, decoded."""
    decode = net.moves.decode
    return (tuple(map(decode, fsa.states)),
            tuple((decode(s), lab, decode(d)) for s, lab, d in fsa.edges))


def full_q_accepting_config(net):
    reach = reachable_abstract(net)
    best = None
    for a in accepting_codes(net, reach):
        Q = net.moves.decode(a).Q
        if best is None or len(Q) > len(net.moves.decode(best).Q):
            best = a
    return reach, best


def q_preserving_successors(net, a):
    """Abstract moves from a that leave the populated set unchanged, from
    the step kernel."""
    return [(t, AbstractConfig(d, g, Q))
            for t, d, g, Q, _ in abstract_moves(net, a.leader_state, a.store, a.Q)
            if Q == a.Q]


def anchor_scc(net, a):
    """States and edges, in BFS order, of a's strongly connected component
    among the Q-preserving moves reachable from a, by networkx."""
    states, edges, i = [a], [], 0
    while i < len(states):
        c = states[i]
        i += 1
        for t, c2 in q_preserving_successors(net, c):
            edges.append((c, t.tid, c2))
            if c2 not in states:
                states.append(c2)
    g = networkx.DiGraph()
    g.add_nodes_from(states)
    g.add_edges_from((src, dst) for src, _, dst in edges)
    comp = next(c for c in networkx.strongly_connected_components(g) if a in c)
    return (tuple(s for s in states if s in comp),
            tuple(e for e in edges if e[0] in comp and e[2] in comp))


def test_cycle_fsa_is_strongly_connected_on_ring():
    net = ring_network()
    reach, a = full_q_accepting_config(net)
    assert net.moves.decode(a).Q == frozenset("ABCDEFG")
    fsa = build_cycle_fsa(net, a, ())
    # anchored at a with only mutually reachable configurations kept
    assert fsa.initial == fsa.final == a
    used_leader_actions = {str(net.transition(lab).action)
                           for _, lab, _ in fsa.edges if lab.startswith("d")}
    assert used_leader_actions == {"r(1)", "r(2)", "r(3)"}
    # every state can reach and be reached from the anchor by construction
    g = networkx.DiGraph((src, dst) for src, _, dst in fsa.edges)
    for s in fsa.states:
        assert networkx.has_path(g, a, s) and networkx.has_path(g, s, a)
    assert decoded_fsa(net, fsa) == anchor_scc(net, net.moves.decode(a))
    # and on random nets, at every reachable configuration
    rng = random.Random(12)
    for _ in range(60):
        net = random_fsm_network(rng)
        reach = reachable_abstract(net)
        for a in reach.order:
            fsa = build_cycle_fsa(net, a, ())
            assert decoded_fsa(net, fsa) == \
                anchor_scc(net, net.moves.decode(a))


def test_fire_raises_assertion_when_no_contributor_can_move():
    net = stalled_network()
    sim = _ReplayState(net, 1)
    sim.fire(net.transition("c0"))        # the one contributor leaves q0
    assert sim.steps == [(1, "c0")]
    with pytest.raises(AssertionError):
        sim.fire(net.transition("c0"))    # nobody is left in q0


def test_q_preserving_moves_keep_q():
    net = ring_network()
    reach = reachable_abstract(net)
    decode = net.moves.decode
    dropped = 0
    for a in reach.order:
        fsa = build_cycle_fsa(net, a, ())
        assert all(decode(b).Q == decode(a).Q for b in fsa.states)
        # a copy of the network whose moves nothing has read yet gives
        # the same automaton
        assert build_cycle_fsa(net._replace(), a, ()) == fsa
        # the saturation also stored moves that grow Q, which it drops
        dropped += sum(decode(b).Q != decode(a).Q for c in fsa.states
                       for _, b, _ in reach.edges[c])
    assert dropped > 0


def test_realizability_infeasible_for_stalled_net():
    net = stalled_network()
    reach = reachable_abstract(net)
    for a in accepting_codes(net, reach):
        fsa = build_cycle_fsa(net, a, ())
        system = realizability_system(net, fsa)
        assert parikh.solve(system) is None


def letter_rows(net):
    """The token rows and the "some move" row of the letter systems that
    realizability_system and loop_system replace: one balance row per
    contributor state over one letter x[tid] per move, then at least one
    move."""
    rows = {q: {} for q in net.moves.contributor_states}
    for t in net.contributor_transitions:
        if t.moves_token:
            x = parikh.letter_var(t.tid)
            rows[t.dst][x] = rows[t.dst].get(x, 0) + 1
            rows[t.src][x] = rows[t.src].get(x, 0) - 1
    tids = [t.tid for t in net.leader_transitions + net.contributor_transitions]
    return [parikh.eq(row, 0) for row in rows.values()] + [
        parikh.ge({parikh.letter_var(tid): 1 for tid in tids}, 1)]


def assert_agrees_with_the_letter_system(system, letters, columns):
    """Both systems have a model or neither does, and system's model, with
    each letter x[tid] set to the sum of the columns that emit tid (columns
    as (variable, tids) pairs), satisfies the letter system.  Returns both
    models."""
    model, oracle = parikh.solve(system), parikh.solve(letters)
    assert (model is None) == (oracle is None)
    if model is not None:
        lettered = dict(model)
        for var, tids in columns:
            for tid in tids:
                x = parikh.letter_var(tid)
                lettered[x] = lettered.get(x, 0) + model.get(var, 0)
        assert satisfies(letters.atoms, lettered)
    return model, oracle


def test_edge_and_production_systems_agree_with_the_letter_systems():
    # realizability_system and loop_system write their token rows over the
    # edge and production columns; the letter systems they replace
    # (parikh_fsa or parikh_cfg, letter token rows and "some move") are the
    # oracle.  In fsm-fsm the row "some edge leaving a is used" stands in
    # for "some move": every model of the letter system meets it, by
    # connectivity, and without it the zero point is a model
    from test_solve import loop_grammars, pdm_nets
    rng = random.Random(31)
    solved = 0
    for _ in range(200):
        net = random_fsm_network(rng)
        tids = [t.tid for t in net.leader_transitions
                + net.contributor_transitions]
        reach = reachable_abstract(net)
        for a in accepting_codes(net, reach):
            fsa = build_cycle_fsa(net, a, ())
            system = realizability_system(net, fsa)
            *rows, leaves = system.atoms
            assert leaves == parikh.ge({parikh.edge_var(i): 1
                                        for i, (src, _, _)
                                        in enumerate(fsa.edges)
                                        if src == a}, 1)
            assert parikh.solve(parikh.LinearSystem(system.variables, rows)) \
                == dict.fromkeys(system.variables, 0)
            letters = parikh.parikh_fsa(fsa, alphabet=tids).conjoin(
                letter_rows(net))
            model, oracle = assert_agrees_with_the_letter_system(
                system, letters, [(parikh.edge_var(i), (tid,))
                                  for i, (_, tid, _) in enumerate(fsa.edges)])
            if model is not None:
                solved += 1
                assert satisfies([leaves], oracle)
    assert solved >= 250          # of 458 accepting configurations
    looped = 0
    for net, _, grammar, _ in loop_grammars(pdm_nets()):
        # the letter system with loop_system's LOOPS >= 1 start row
        cfg = parikh.parikh_cfg(grammar)
        letters = parikh.LinearSystem(cfg.variables + (LOOPS,), tuple(
            ("eq", {**atom[1], LOOPS: -1}, 0)
            if atom[0] == "eq" and atom[2] == 1 else atom
            for atom in cfg.atoms)).conjoin(
                [parikh.ge({LOOPS: 1}, 1)] + letter_rows(net))
        model, _ = assert_agrees_with_the_letter_system(
            loop_system(net, grammar), letters,
            [(f"y{i}", [sym for sym in rhs if not isinstance(sym, tuple)])
             for i, (_, rhs) in enumerate(grammar.productions)])
        looped += model is not None
    assert looped >= 50           # of 119 loop grammars


def test_token_rows_cover_undeclared_contributor_states():
    # make_network does not validate: the contributor declares q0 alone and
    # moves through q1 and q2, which need their token rows too, or the
    # solver returns a model whose cycle leaves tokens behind (q0 w(1) q1
    # and q2 r(1) q0 balance q0).  A contributor that writes 1 waits for 2,
    # and the other way round, so every cycle takes two contributors and
    # the check solves
    contrib = Fsm(frozenset(["q0"]), "q0", (("q0", ca("write", "1"), "q1"),
                                            ("q1", ca("read", "2"), "q0"),
                                            ("q0", ca("write", "2"), "q2"),
                                            ("q2", ca("read", "1"), "q0")))
    leader = Fsm(frozenset(["p0", "p1"]), "p0",
                 (("p0", la("read", "1"), "p1"), ("p1", la("read", "2"), "p0")),
                 frozenset(["p0"]))
    net = make_network(["1", "2"], leader, contrib)
    v, mode = run_check(net)
    assert (v.kind, mode) == ("NONEMPTY", "fsm-fsm") and v.stats["solves"] == 1
    assert replay(net, v.witness) == ("valid", None)
    assert [check_explicit(net, k).kind for k in (1, 2, 3)] == \
        ["EMPTY", "NONEMPTY", "NONEMPTY"]
    assert len(contributor_flow_rows(net, [])) == 3
    # every model of a realizability system replays, and some
    # configuration has one
    reach = reachable_abstract(net)
    solved = 0
    for a in accepting_codes(net, reach):
        fsa = build_cycle_fsa(net, a, ())
        model = parikh.solve(realizability_system(net, fsa))
        if model is not None:
            solved += 1
            witness = concretize(net, reach, a,
                                 parikh.euler_witness(fsa, model))
            assert replay(net, witness) == ("valid", None)
    assert solved >= 1


def test_ring_decision_with_witness():
    net = ring_network()
    v = check_fsm_fsm(net)
    assert v.kind == "NONEMPTY"
    assert replay(net, v.witness) == ("valid", None)


def test_stalled_decision_empty():
    assert check_fsm_fsm(stalled_network()).kind == "EMPTY"


def test_self_feeding_contributor_nonempty():
    # a single contributor writing 1 forever keeps the leader reading 1
    leader = Fsm(frozenset(["d"]), "d", (("d", la("read", "1"), "d"),),
                 frozenset(["d"]))
    contrib = Fsm(frozenset(["q"]), "q", (("q", ca("write", "1"), "q"),))
    net = make_network(["1"], leader, contrib)
    v = check_fsm_fsm(net)
    assert v.kind == "NONEMPTY"
    assert replay(net, v.witness) == ("valid", None)


def test_agrees_with_explicit_oracle():
    rng = random.Random(77)
    for _ in range(60):
        net = random_fsm_network(rng)
        v = check_fsm_fsm(net)
        if v.kind == "NONEMPTY":
            assert replay(net, v.witness) == ("valid", None)
        else:
            assert v.kind == "EMPTY"
            for k in (1, 2, 3):
                assert check_explicit(net, k).kind == "EMPTY"
        if check_explicit(net, 3).kind == "NONEMPTY":
            assert v.kind == "NONEMPTY"


def per_configuration_oracle(net):
    """check_fsm_fsm without the graph pre-decision and with the integer
    oracle as its solver: one solve of the realizability system at every
    accepting configuration, in discovery order."""
    reach = reachable_abstract(net)
    exhausted = False
    for a in accepting_codes(net, reach):
        fsa = build_cycle_fsa(net, a, ())
        try:
            model = integer_oracle.solve(realizability_system(net, fsa))
        except BudgetExceeded:
            exhausted = True
            continue
        if model is not None:
            cycle = parikh.euler_witness(fsa, model)
            return Verdict("NONEMPTY", concretize(net, reach, a, cycle))
    return Verdict("BUDGET" if exhausted else "EMPTY")


def refinement_nets():
    """200 random FSM/FSM nets, then 60 FSM-leader nets whose PDM
    contributor is replaced by its window restriction."""
    rng = random.Random(9)
    nets = [random_fsm_network(rng) for _ in range(200)]
    for _ in range(60):
        values = ["1", "2"][:rng.randint(1, 2)]
        nets.append(replay_network(make_network(
            values, random_fsm_leader(rng, values),
            random_pdm_contributor(rng, values))))
    return nets


def refined_part(net, reach, a):
    """The part of refine that holds a, or None."""
    parts = refine(net, build_cycle_fsa(net, a, ()).edges)
    return next((p for p in parts if any(e[0] == a for e in p)), None)


def test_refinement_agrees_with_the_per_configuration_oracle():
    kinds = []
    for net in refinement_nets():
        v = check_fsm_fsm(net)
        oracle = per_configuration_oracle(net)
        assert v.kind == oracle.kind
        kinds.append(v.kind)
        if v.kind == "NONEMPTY":
            assert replay(net, v.witness) == ("valid", None)
            assert replay(net, oracle.witness) == ("valid", None)
    assert 40 <= kinds.count("NONEMPTY") <= 220


def assert_one_token_walk(net, part, a, walk):
    """The edges of walk, which must be a closed walk through a over the
    part's edges whose moves that move a token chain into one contributor
    closed walk."""
    step = {(src, lab): dst for src, lab, dst in part}
    assert len(step) == len(part)
    edges, c = [], a
    for lab in walk:
        edges.append((c, lab, step[c, lab]))
        c = edges[-1][2]
    assert c == a
    moved = [t for t in map(net.transition, walk) if t.moves_token]
    assert all(t.dst == u.src for t, u in zip(moved, moved[1:] + moved[:1]))
    return edges


def test_graph_decisions_agree_with_the_solver():
    # at every accepting configuration: a configuration that refine drops
    # has no model, and one with a closed walk through it in which one
    # token makes every token-moving move and returns to its state has
    # one, of which that walk is a witness: its edge counts satisfy the
    # realizability rows, checked here without the solver.  A walk that
    # moves no token exists whenever the part's contributor moves are all
    # self-loops.  Some configurations have no such walk and still a
    # model, which only the solver finds
    dropped = walked = loops_only = moving = solver_only = 0
    for net in [ring_network(), turn_taking_network(2)] + refinement_nets():
        reach = reachable_abstract(net)
        for a in accepting_codes(net, reach):
            part = refined_part(net, reach, a)
            fsa = build_cycle_fsa(net, a, ())
            system = realizability_system(net, fsa)
            if part is None:
                dropped += 1
                assert parikh.solve(system) is None
                continue
            walk = closed_walk(net, part, a)
            if all(net.transition(lab).src == net.transition(lab).dst
                   for _, lab, _ in part if lab.startswith("c")):
                loops_only += 1
                assert walk is not None
            if walk is None:
                solver_only += parikh.solve(system) is not None
                continue
            walked += 1
            assert parikh.solve(system) is not None
            edges = assert_one_token_walk(net, part, a, walk)
            moving += any(net.transition(lab).moves_token for lab in walk)
            column = {e: parikh.edge_var(i) for i, e in enumerate(fsa.edges)}
            model = dict.fromkeys(system.variables, 0)
            for e in edges:
                model[column[e]] += 1
            assert satisfies(system.atoms, model)
            witness = concretize(net, reach, a, walk)
            assert replay(net, witness) == ("valid", None)
    assert dropped >= 100 and loops_only >= 100 and walked > loops_only
    assert moving >= 5 and solver_only >= 1


def counting_solves(monkeypatch):
    calls = []
    real_solve = parikh.solve

    def counting(*args, **kwargs):
        calls.append(args)
        return real_solve(*args, **kwargs)
    monkeypatch.setattr(parikh, "solve", counting)
    return calls


def test_forward_contributor_moves_need_no_solve(monkeypatch):
    # the leader reads 1 and 2 in turn, and each contributor writes 1 and
    # then 2 once: the abstract system cycles, but no contributor move
    # lies on a contributor cycle
    leader = Fsm(frozenset(["p0", "p1"]), "p0",
                 (("p0", la("read", "1"), "p1"),
                  ("p1", la("read", "2"), "p0")), frozenset(["p0", "p1"]))
    contrib = Fsm(frozenset(["q0", "q1", "q2"]), "q0",
                  (("q0", ca("write", "1"), "q1"),
                   ("q1", ca("write", "2"), "q2")))
    net = make_network(["1", "2"], leader, contrib)
    calls = counting_solves(monkeypatch)
    v = check_fsm_fsm(net)
    assert v.kind == "EMPTY" and calls == []
    assert v.stats["solves"] == 0 and v.stats["accepting_checked"] > 0
    reach = reachable_abstract(net)
    assert any(build_cycle_fsa(net, a, ()).edges
               for a in reach.order)


def test_refinement_runs_to_a_fixpoint(monkeypatch):
    # One component, in which c2 (q1 w(3) q2) is on no contributor cycle.
    # Without c2 the component splits into a self-loop of c0 (q0 r(1) q1)
    # at store 1 and one of c1 (q1 r(2) q0) at store 2, and in each of
    # them that move is on no contributor cycle either.
    leader = Fsm(frozenset(["pi", "p0", "p1", "p2"]), "pi",
                 (("pi", la("write", "1"), "p0"),
                  ("p0", la("read", "3"), "p1"),
                  ("p1", la("write", "2"), "p2"),
                  ("p2", la("write", "1"), "p0")),
                 frozenset(["p0", "p1", "p2"]))
    contrib = Fsm(frozenset(["q0", "q1", "q2"]), "q0",
                  (("q0", ca("read", "1"), "q1"),
                   ("q1", ca("read", "2"), "q0"),
                   ("q1", ca("write", "3"), "q2")))
    net = make_network(["1", "2", "3"], leader, contrib)
    reach = reachable_abstract(net)
    full = [a for a in reach.order if len(net.moves.decode(a).Q) == 3]
    fsa = build_cycle_fsa(net, full[0], ())
    assert set(fsa.states) == set(full)
    assert {lab for _, lab, _ in fsa.edges} == {"d1", "d2", "d3",
                                                "c0", "c1", "c2"}
    # one round leaves two components, each with a contributor move that
    # is not a self-loop, and would send both to the solver
    rest = [e for e in fsa.edges if e[1] != "c2"]
    g = networkx.DiGraph((src, dst) for src, _, dst in rest)
    labels = [{lab for src, lab, dst in rest if src in comp and dst in comp}
              for comp in networkx.strongly_connected_components(g)]
    assert sorted(sorted(labs) for labs in labels if labs) == [["c0"], ["c1"]]
    assert refine(net, fsa.edges) == []
    calls = counting_solves(monkeypatch)
    v = check_fsm_fsm(net)
    assert v.kind == "EMPTY" and calls == []
    assert check_explicit(net, 3).kind == "EMPTY"


def test_moves_dead_at_q():
    # q0 and q1 feed each other (c0, c1), c2 leaves q1 for q2 for good, and
    # c3 is a self-loop at q2, which counts as a cycle
    leader = Fsm(frozenset(["p"]), "p",
                 (("p", la("read", "1"), "p"), ("p", la("read", "2"), "p")),
                 frozenset(["p"]))
    contrib = Fsm(frozenset(["q0", "q1", "q2"]), "q0",
                  (("q0", ca("write", "1"), "q1"),
                   ("q1", ca("read", "1"), "q0"),
                   ("q1", ca("write", "2"), "q2"),
                   ("q2", ca("read", "2"), "q2")))
    net = make_network(["1", "2"], leader, contrib)
    bit = net.moves.bit

    def dead(*states):
        return dead_at(net, sum(bit[q] for q in states))
    assert dead("q0", "q1", "q2") == dead("q1", "q2") == {"c2"}
    assert dead("q0", "q1") == dead("q0", "q2") == dead("q2") == set()
    # at store 2 and the full Q, c2 is the only way back to store 2 from
    # store 1: the automaton without it keeps a alone, with the leader's
    # read and c3, which is the part that refine leaves at a in either
    reach = reachable_abstract(net)
    a = net.moves.encode(AbstractConfig("p", "2", frozenset(bit)))
    with_c2 = build_cycle_fsa(net, a, ())
    fsa = build_cycle_fsa(net, a, dead("q0", "q1", "q2"))
    assert len(with_c2.states) == 2 and "c2" in [e[1] for e in with_c2.edges]
    assert fsa.states == (a,) and fsa.edges == ((a, "d1", a), (a, "c3", a))
    assert refine(net, fsa.edges) == [fsa.edges]
    assert fsa.edges in refine(net, with_c2.edges)
    assert check_fsm_fsm(net).kind == "NONEMPTY"


def test_ring_still_solves(monkeypatch):
    calls = counting_solves(monkeypatch)
    v = check_fsm_fsm(ring_network())
    assert v.kind == "NONEMPTY"
    assert v.stats["solves"] == len(calls) >= 1


def test_a_cycle_that_one_contributor_runs_needs_no_solve(monkeypatch):
    # as in fsm/random27 of the fsm bench corpus: the leader stops in an
    # accepting state, and the cycles there are contributor moves alone.
    # No walk moves no token, but one contributor goes round q0 w(0) q3,
    # q3 w(2) q0 and comes back to its state, so the graph decides
    leader = Fsm(frozenset(["p0", "p1"]), "p0",
                 (("p0", la("write", "1"), "p1"),), frozenset(["p1"]))
    contrib = Fsm(frozenset(["q0", "q3"]), "q0",
                  (("q0", ca("write", "0"), "q3"),
                   ("q3", ca("write", "2"), "q0")))
    net = make_network(["0", "1", "2"], leader, contrib)
    calls = counting_solves(monkeypatch)
    v = check_fsm_fsm(net)
    assert v.kind == "NONEMPTY" and v.stats["solves"] == 0 and calls == []
    assert replay(net, v.witness) == ("valid", None)
    assert check_explicit(net, 1).kind == "NONEMPTY"


@pytest.mark.parametrize("n,most", [(2, 3), (10, 13)])
def test_a_witness_brings_only_the_tokens_its_cycle_needs(n, most):
    # the turn-taking net of n values: a cycle of 4n - 4 contributor moves
    # at a configuration where all n + 1 states hold tokens.  Each state
    # gets the tokens the cycle runs short of there, not one per move of
    # the cycle, which took k to 12 at n = 2 and to 2,200 at n = 10
    net = turn_taking_network(n)
    v = check_fsm_fsm(net)
    assert v.kind == "NONEMPTY" and v.witness.k <= most
    assert replay(net, v.witness) == ("valid", None)
