"""The graph searches every procedure shares.

The checkers saturate a finite system, split it into strongly connected
components and look for a cycle through an accepting node; the explicit
engine does the same on concrete configurations.  Nodes are any hashable
values.  A labelled successor function maps a node to its (label, node)
pairs, in the order the searches follow them.
"""

from collections import namedtuple

from .machines import BudgetExceeded


class Exploration(namedtuple("Exploration", "order edges parent")):
    """The nodes in discovery order, each node's successors(node) list, and
    each node's (predecessor, label), None at the root."""

    __slots__ = ()


def explore(initial, successors, budget, too_many, found=None):
    """Breadth-first search from initial, where successors(node) is a list
    of tuples that start with (label, node).  The first edge into each node
    is its parent.  Raises BudgetExceeded(too_many) when a node it finds
    makes more than budget nodes.  found, if given, is called on each node
    when it is found, initial included; the search ends at the first node
    for which it returns true."""
    order, edges, parent = reach = Exploration([initial], {}, {initial: None})
    if found is not None and found(initial):
        return reach
    for node in order:
        succ = edges[node] = successors(node)
        for step in succ:
            nxt = step[1]
            if nxt not in parent:
                parent[nxt] = (node, step[0])
                order.append(nxt)
                if len(order) > budget:
                    raise BudgetExceeded(too_many)
                if found is not None and found(nxt):
                    return reach
    return reach


def path_to(parent, node):
    """The steps (predecessor, label, node) of the tree path from the root
    of parent (an Exploration's) to node."""
    steps = []
    while parent[node] is not None:
        prev, label = parent[node]
        steps.append((prev, label, node))
        node = prev
    steps.reverse()
    return steps


def bfs(root, successors):
    """Each node that root reaches, with its distance from root, in
    breadth-first order; successors(node) gives the next nodes.  A node is
    yielded before it is expanded, so a caller may stop at the first hit."""
    dist = {root: 0}
    queue = [root]
    for node in queue:
        yield node, dist[node]
        for nxt in successors(node):
            if nxt not in dist:
                dist[nxt] = dist[node] + 1
                queue.append(nxt)


def closed_walk(successors, a):
    """The labels of a shortest nonempty closed walk through a, or None,
    where successors(node) gives (label, node) pairs."""
    parent = {a: None}
    queue = [a]
    for node in queue:
        for label, nxt in successors(node):
            if nxt == a:
                return [step for _, step, _ in path_to(parent, node)] + [label]
            if nxt not in parent:
                parent[nxt] = (node, label)
                queue.append(nxt)
    return None


def scc_index(arcs):
    """Map each node of the graph with the given (src, dst) arcs to a
    representative of its strongly connected component (iterative Tarjan)."""
    succ = {}
    for u, v in arcs:
        succ.setdefault(u, []).append(v)
        succ.setdefault(v, [])
    index, low, comp = {}, {}, {}
    stack = []
    for root in succ:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if w not in comp:             # still on the stack
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = v
                        if w == v:
                            break
    return comp
