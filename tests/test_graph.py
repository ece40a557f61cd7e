"""The shared graph searches against networkx on random digraphs with
self-loops, parallel arcs and arcs between nodes that touch nothing else."""

import math
import random

import networkx
import pytest

from paramck.graph import bfs, closed_walk, explore, path_to, scc_index
from paramck.machines import BudgetExceeded


def random_arcs(rng):
    n = rng.randint(1, 8)
    arcs = [(rng.randrange(n), rng.randrange(n))
            for _ in range(rng.randint(0, 15))]
    arcs += [(f"x{i}", f"y{i}") for i in range(rng.randint(0, 2))]
    rng.shuffle(arcs)
    return arcs


def labelled(arcs):
    """successors(node) as (arc index, target) pairs in arc order."""
    out = {}
    for i, (src, dst) in enumerate(arcs):
        out.setdefault(src, []).append((i, dst))
    return lambda node: out.get(node, [])


GRAPHS = [random_arcs(random.Random(seed)) for seed in range(300)]


def test_scc_index_partitions_like_networkx():
    for arcs in GRAPHS:
        comp = scc_index(arcs)
        parts = {}
        for node, rep in comp.items():
            assert comp[rep] == rep
            parts.setdefault(rep, set()).add(node)
        expected = networkx.strongly_connected_components(
            networkx.DiGraph(arcs))
        assert sorted(map(sorted, parts.values()), key=repr) == \
            sorted(map(sorted, expected), key=repr)


def test_closed_walk_is_a_shortest_cycle_through_a():
    checked = 0
    for arcs in GRAPHS:
        g = networkx.DiGraph(arcs)
        for a in g.nodes:
            walk = closed_walk(labelled(arcs), a)
            if g.has_edge(a, a):
                shortest = 1
            else:
                lengths = networkx.single_source_shortest_path_length(g, a)
                shortest = min((lengths[p] + 1 for p in g.predecessors(a)
                                if p in lengths), default=None)
            if shortest is None:
                assert walk is None
                continue
            checked += 1
            assert len(walk) == shortest
            nodes = [arcs[i][0] for i in walk] + [arcs[walk[-1]][1]]
            assert nodes[0] == nodes[-1] == a
            assert all(arcs[i][1] == arcs[j][0]
                       for i, j in zip(walk, walk[1:]))
    assert checked > 100


def test_bfs_gives_shortest_path_lengths_in_order():
    for arcs in GRAPHS:
        g = networkx.DiGraph(arcs)
        succ = labelled(arcs)
        for root in g.nodes:
            found = list(bfs(root, lambda v: [d for _, d in succ(v)]))
            assert dict(found) == \
                networkx.single_source_shortest_path_length(g, root)
            assert [d for _, d in found] == sorted(d for _, d in found)


def test_bfs_stops_where_the_caller_does():
    expanded = []

    def successors(node):
        expanded.append(node)
        return [node + 1]
    assert any(node == 3 for node, _ in bfs(0, successors))
    assert expanded == [0, 1, 2]


def test_explore_is_breadth_first_and_keeps_first_parents():
    for arcs in GRAPHS:
        g = networkx.DiGraph(arcs)
        succ = labelled(arcs)
        for root in g.nodes:
            order, edges, parent = explore(root, succ, len(g), "too many")
            assert order == [root] + [v for _, v in
                                      networkx.bfs_edges(g, root)]
            assert all(edges[v] == succ(v) for v in order)
            for v in order[1:]:
                u, i = parent[v]
                assert arcs[i] == (u, v)
                assert i == min(j for j, arc in enumerate(arcs)
                                if arc == (u, v))
                steps = path_to(parent, v)
                assert len(steps) == \
                    networkx.shortest_path_length(g, root, v)
                assert steps[0][0] == root and steps[-1][2] == v
            assert path_to(parent, root) == []


@pytest.mark.parametrize("budget", [1, 2, 4])
def test_explore_raises_once_it_holds_budget_plus_one_nodes(budget):
    for arcs in GRAPHS:
        g = networkx.DiGraph(arcs)
        for root in g.nodes:
            reached = len(networkx.descendants(g, root)) + 1
            if reached > budget:
                with pytest.raises(BudgetExceeded) as err:
                    explore(root, labelled(arcs), budget, "too many nodes")
                assert str(err.value) == "too many nodes"
            else:
                order = explore(root, labelled(arcs), budget, "x").order
                assert len(order) == reached


def test_explore_stops_at_the_first_node_found():
    # found sees every node once, in discovery order and the root first;
    # the search ends at the first node it accepts, with the order and
    # parents of the full search up to that node, and the budget counts
    # the nodes found before it
    for arcs in GRAPHS:
        succ = labelled(arcs)
        for root in networkx.DiGraph(arcs).nodes:
            full = explore(root, succ, math.inf, None)
            for stop in full.order:
                seen = []
                part = explore(root, succ, len(full.order), "x",
                               lambda v: seen.append(v) or v == stop)
                n = full.order.index(stop) + 1
                assert seen == part.order == full.order[:n]
                assert part.parent == {v: full.parent[v] for v in seen}
                assert all(part.edges[v] == succ(v) for v in part.edges)
                if n > 1:
                    with pytest.raises(BudgetExceeded):
                        explore(root, succ, n - 1, "x", lambda v: v == stop)
                assert explore(root, succ, n, "x",
                               lambda v: v == stop).order[-1] == stop
