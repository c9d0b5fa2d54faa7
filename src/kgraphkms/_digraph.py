"""Boolean digraph primitives shared by the component and spectral layers."""

from __future__ import annotations

import numpy as np


def tarjan_sccs(succ: list[list[int]]) -> list[list[int]]:
    """Strongly connected components of a digraph given as successor lists.

    Iterative Tarjan; each component is returned as a sorted list of node
    indices. Output order is by discovery, callers re-order as needed. The
    explicit call stack holds each open node with an iterator over its
    successors, which resumes where the descent into a child left it.
    """
    n = len(succ)
    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            node, children = work[-1]
            for child in children:
                if index[child] == -1:
                    index[child] = lowlink[child] = counter
                    counter += 1
                    stack.append(child)
                    on_stack[child] = True
                    work.append((child, iter(succ[child])))
                    break
                if on_stack[child] and index[child] < lowlink[node]:
                    lowlink[node] = index[child]
            else:
                work.pop()
                low = lowlink[node]
                if low == index[node]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == node:
                            break
                    components.append(sorted(comp))
                elif low < lowlink[work[-1][0]]:
                    # Not a component root, so its parent is still open.
                    lowlink[work[-1][0]] = low
    return components


def succ_lists(adj: np.ndarray) -> list[list[int]]:
    """Successor lists of a boolean adjacency matrix (adj[v, w] = edge v -> w).

    Each list is ascending and holds Python ints, which Tarjan's walk
    indexes faster than numpy scalars.
    """
    rows, cols = np.nonzero(adj)
    bounds = np.searchsorted(rows, np.arange(adj.shape[0] + 1)).tolist()
    cols = cols.tolist()
    return [cols[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def transitive_closure(adj: np.ndarray) -> np.ndarray:
    """Closure under paths of length >= 1, by repeated boolean squaring.

    The squares are float64 products, so they run on BLAS. They are exact:
    each entry counts intermediate vertices, at most n < 2**53. The graph
    analysis closes condensations only, whose vertices are strongly
    connected components, and indexes the result back by component label.
    """
    reach = adj.astype(bool)
    if reach.shape[0] == 0:
        return reach
    while True:
        counts = reach.astype(float)
        grown = reach | (counts @ counts > 0)
        if np.array_equal(grown, reach):
            return grown
        reach = grown


def irreducible(adj: np.ndarray) -> bool:
    """Strongly connected, with a loop when there is a single node."""
    if adj.shape[0] == 1:
        return bool(adj[0, 0])
    return len(tarjan_sccs(succ_lists(adj))) == 1
