"""Digraph primitives and skeleton supports against their plain definitions."""

import numpy as np
import pytest

from kgraphkms import Skeleton
from kgraphkms._digraph import succ_lists, tarjan_sccs, transitive_closure

from conftest import (
    EXAMPLE_1,
    EXAMPLE_2,
    NO_BRIDGE_COUNTEREXAMPLE,
    chain,
    colour_support,
    data_skeletons,
    product_skeleton,
    skeleton,
)


def int64_closure(adj: np.ndarray) -> np.ndarray:
    """Reference closure under paths of length >= 1: repeated squaring in int64."""
    reach = adj.astype(bool).copy()
    if adj.shape[0] == 0:
        return reach
    while True:
        grown = reach | ((reach.astype(np.int64) @ reach.astype(np.int64)) > 0)
        if np.array_equal(grown, reach):
            return grown
        reach = grown


def random_digraphs():
    rng = np.random.default_rng(2024)
    for n in range(81):
        for density in (0.5 / max(n, 1), 2.0 / max(n, 1), 0.3):
            yield rng.random((n, n)) < density
    path = np.zeros((80, 80), dtype=bool)
    path[np.arange(79), np.arange(1, 80)] = True
    yield path
    yield np.array([[False]])
    yield np.array([[True]])


class TestTransitiveClosure:
    def test_matches_int64_squaring(self):
        for adj in random_digraphs():
            got = transitive_closure(adj)
            assert got.dtype == bool and got.shape == adj.shape
            assert np.array_equal(got, int64_closure(adj))

    def test_result_is_a_fresh_array(self):
        adj = np.array([[False, True], [False, False]])
        got = transitive_closure(adj)
        got[1, 0] = True
        assert not adj[1, 0]


def recursive_tarjan(succ: list[list[int]]) -> list[list[int]]:
    """Reference: Tarjan's algorithm as usually written, by recursion."""
    index, lowlink, stack, components = {}, {}, [], []

    def visit(v):
        index[v] = lowlink[v] = len(index)
        stack.append(v)
        for w in succ[v]:
            if w not in index:
                visit(w)
                lowlink[v] = min(lowlink[v], lowlink[w])
            elif w in stack:
                lowlink[v] = min(lowlink[v], index[w])
        if lowlink[v] == index[v]:
            comp = []
            while not comp or comp[-1] != v:
                comp.append(stack.pop())
            components.append(sorted(comp))

    for v in range(len(succ)):
        if v not in index:
            visit(v)
    return components


class TestTarjan:
    def test_matches_the_recursive_algorithm(self):
        for adj in random_digraphs():
            succ = succ_lists(adj)
            assert tarjan_sccs(succ) == recursive_tarjan(succ)

    def test_components_are_mutual_reachability_classes_in_reverse_topological_order(self):
        for adj in random_digraphs():
            comps = tarjan_sccs(succ_lists(adj))
            reach = int64_closure(adj) | np.eye(len(adj), dtype=bool)
            assert sorted(v for comp in comps for v in comp) == list(range(len(adj)))
            for i, comp in enumerate(comps):
                assert comp == sorted(comp)
                assert np.flatnonzero(reach[comp[0]] & reach[:, comp[0]]).tolist() == comp
                # A component reaches only components found before it.
                later = [v for other in comps[i + 1 :] for v in other]
                assert not reach[np.ix_(comp, later)].any()


class TestSuccessorLists:
    def test_row_major_order_and_python_ints(self):
        for adj in random_digraphs():
            got = succ_lists(adj)
            assert got == [list(np.flatnonzero(row)) for row in adj]
            assert all(type(w) is int for row in got for w in row)


def nested_union(skel: Skeleton) -> np.ndarray:
    rows = [[any(m[v][w] for m in skel.matrices) for w in range(skel.n)] for v in range(skel.n)]
    return np.array(rows, dtype=bool).reshape(skel.n, skel.n)


def nested_colour(skel: Skeleton, i: int) -> np.ndarray:
    rows = [[x > 0 for x in row] for row in skel.matrices[i]]
    return np.array(rows, dtype=bool).reshape(skel.n, skel.n)


FIXTURES = {
    "example1": EXAMPLE_1,
    "example2": EXAMPLE_2,
    "no-bridge": NO_BRIDGE_COUNTEREXAMPLE,
    "chain12": chain(12, 0),
    "product": product_skeleton(),
    "empty": Skeleton((), ((), ())),
    "loops": skeleton("abcd", np.diag([3, 0, 0, 2**60 + 1]).tolist(), np.diag([5, 4, 0, 7]).tolist()),
    **{f"data-{stem}": skel for stem, skel in data_skeletons().items()},
}


@pytest.mark.parametrize("skel", FIXTURES.values(), ids=FIXTURES.keys())
def test_supports_match_the_nested_tuples(skel):
    assert np.array_equal(skel.union_support(), nested_union(skel))
    assert skel.union_support().dtype == bool
    for i in range(skel.k):
        assert np.array_equal(colour_support(skel, i), nested_colour(skel, i))
        assert colour_support(skel, i).dtype == bool
