"""Strongly connected components, hereditary sets and connectivity checks.

The condensation of the union digraph drives everything downstream: the
component order stored here makes every colour matrix block upper
triangular, hereditary vertex sets are the ones closed under taking path
sources, and the assumption report gates the temperature-sweep engine.

The decomposition is the one graph analysis the engine needs. Each entry
point wraps the caller's skeleton once with ``analysed``, a twin that
carries its decomposition, and the sub-skeletons that ``restrict`` and
``split_isolated`` build carry a slice of their parent's instead of being
analysed again. A skeleton built by ``Skeleton(...)`` never carries one,
so no analysis outlives the call that made it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from ._digraph import succ_lists, tarjan_sccs, transitive_closure
from .skeleton import Skeleton, _read_only
from .spectral import _exceeds, _family_perron

# The shared Perron vector of every single-vertex component.
_UNIT = np.ones(1)
_UNIT.flags.writeable = False


@dataclass(frozen=True)
class ComponentDecomposition:
    """SCC partition in an order that block-upper-triangularises every colour.

    ``components[c]`` is a sorted tuple of vertex indices.
    ``irreducible[c][i]`` says whether the colour-``i`` block of component
    ``c`` is irreducible, and ``leq[c, d]`` (read-only, reflexive) whether
    component ``c`` receives a path from component ``d``; with the stored
    order it only ever points from earlier to later components. The
    ``trivial`` flags are derived from these.
    ``vectors[c]`` (read-only) is the unit-sum Perron vector that the
    colour blocks of component ``c`` share, in the order of its vertices,
    and ``brackets[c][i]`` the Collatz–Wielandt bracket of its colour-``i``
    block there, which contains ``radii[c][i]``. ``colour_reach[i][c, d]``
    (read-only) says whether a path of length at least 1 in colour ``i``
    alone has its range in component ``c`` and its source in component
    ``d``.
    """

    components: tuple[tuple[int, ...], ...]
    irreducible: tuple[tuple[bool, ...], ...]
    radii: tuple[tuple[float, ...], ...]
    leq: np.ndarray = field(compare=False, repr=False)
    vectors: tuple[np.ndarray, ...] = field(compare=False, repr=False)
    brackets: tuple[tuple[tuple[float, float], ...], ...] = field(compare=False, repr=False)
    colour_reach: tuple[np.ndarray, ...] = field(compare=False, repr=False)

    @property
    def count(self) -> int:
        return len(self.components)

    @cached_property
    def _labels(self) -> np.ndarray:
        """Each vertex's component index."""
        return _label_vertices(self.components, sum(map(len, self.components)))

    @property
    def trivial(self) -> tuple[bool, ...]:
        """Per component: a single vertex with a loop in no colour."""
        return tuple(
            len(comp) == 1 and not any(flags) for comp, flags in zip(self.components, self.irreducible)
        )

    @property
    def coordinatewise_irreducible(self) -> tuple[bool, ...]:
        return tuple(all(flags) for flags in self.irreducible)

    def global_radius(self, colour: int) -> float:
        """Perron root of the whole colour matrix: the largest block root."""
        return max((r[colour] for r in self.radii), default=0.0)

    def sliced(self, keep: Sequence[int]) -> "ComponentDecomposition":
        """The decomposition of the sub-skeleton induced on ``keep``.

        ``keep`` (sorted) must be the complement of a hereditary set or a
        weakly connected piece, so it is a union of components. Then no path
        between two kept vertices runs through a dropped one: a path from
        kept ``w`` through dropped ``h`` would make ``w`` a path source into
        a hereditary set, hence dropped, and a piece has no edges to the
        rest at all. So every kept component, and the reachability and the
        single-colour reachability between kept components, is unchanged:
        ``leq`` and each ``colour_reach`` keep their kept rows and columns.
        Each kept colour block is the same matrix, so flags, radii, vectors
        and brackets are bit-identical. The Kahn order survives too: a kept
        component's predecessors in the order constraints are all kept, so
        dropped components never change which kept ones are ready, and the
        smallest-vertex tie-break is preserved by the monotone relabelling.
        """
        pos = {v: i for i, v in enumerate(keep)}
        kept = [c for c, comp in enumerate(self.components) if comp[0] in pos]
        cut = np.array(kept, dtype=np.intp)[:, None], kept
        return ComponentDecomposition(
            components=tuple(tuple(pos[v] for v in self.components[c]) for c in kept),
            irreducible=tuple(self.irreducible[c] for c in kept),
            radii=tuple(self.radii[c] for c in kept),
            leq=_read_only(self.leq[cut]),
            vectors=tuple(self.vectors[c] for c in kept),
            brackets=tuple(self.brackets[c] for c in kept),
            colour_reach=tuple(_read_only(r[cut]) for r in self.colour_reach),
        )


def _label_vertices(sccs, n: int) -> np.ndarray:
    """Each of ``n`` vertices' index in the list of vertex sets ``sccs``, which partitions them."""
    labels = [0] * n
    for a, scc in enumerate(sccs):
        for v in scc:
            labels[v] = a
    return np.array(labels, dtype=np.intp)


def _condensation(labels: np.ndarray, count: int, x: np.ndarray) -> np.ndarray:
    """``[a, b]``: ``x`` links some vertex labelled ``a`` to some vertex labelled ``b``."""
    rows, cols = np.nonzero(x)
    out = np.zeros((count, count), dtype=bool)
    out[labels[rows], labels[cols]] = True
    return out


@dataclass(frozen=True)
class AssumptionReport:
    """Connectivity preconditions for the KMS engine.

    a1: no trivial components (single vertex without any loop) and no
    isolated pieces; a2: every component coordinatewise irreducible with all
    per-colour spectral radii above 1; a3: a bridge between two components
    in one colour forces bridges in every colour. ``per_colour_reach_consistent``
    records the derived fact that single-colour reachability between
    components is then colour-independent.
    """

    a1_no_trivial: bool
    trivial_components: tuple[int, ...]
    a1_no_isolated: bool
    isolated_pieces: tuple[tuple[int, ...], ...]
    a2_irreducible_and_rho_gt_1: bool
    a2_offenders: tuple[tuple[int, int], ...]
    a3_colour_uniform_bridges: bool
    a3_offenders: tuple[tuple[int, int, int, int], ...]
    per_colour_reach_consistent: bool
    reach_offenders: tuple[tuple[int, int], ...]
    all_pass: bool


def analysed(skel: Skeleton) -> Skeleton:
    """``skel`` if it carries its decomposition, else a twin carrying a fresh one."""
    if skel._analysis is not None:
        return skel
    return skel._twin(decompose(skel))


def _is_int(v) -> bool:
    """``v`` is an int, numpy's included; a bool or a float, even an integral one, is not."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _vertex_indices(n: int, vertices: Iterable) -> list[int]:
    """Sorted distinct indices in ``range(n)``, else ``ValueError`` naming bad ints in order, then other bad entries.

    An integer array takes one vectorised range test, then a set of its
    Python ints (``np.unique`` would load ``numpy.ma`` on its first call);
    other input, and an array that fails the range test, is read entry by
    entry.
    """
    if isinstance(vertices, np.ndarray) and vertices.ndim == 1 and vertices.dtype.kind in "iu":
        if not vertices.size or (vertices.min() >= 0 and vertices.max() < n):
            return sorted(set(vertices.tolist()))
    given = list(vertices)
    bad = [v for v in given if not (_is_int(v) and 0 <= v < n)]
    if bad:
        ints = sorted({int(v) for v in bad if _is_int(v)})
        raise ValueError(f"unknown vertex indices {ints + [v for v in bad if not _is_int(v)]}")
    return sorted(set(map(int, given)))


def _named_component(skel: Skeleton, vertices: Iterable) -> tuple[Skeleton, list[int], int]:
    """``skel`` analysed, ``vertices`` read, and the index of the component with exactly those vertices."""
    skel, d = analysed(skel), _vertex_indices(skel.n, vertices)
    c = int(skel._analysis._labels[d[0]]) if d else 0
    if not d or skel._analysis.components[c] != tuple(d):
        raise ValueError(f"{d} is not a strongly connected component")
    return skel, d, c


def hereditary_closure(skel: Skeleton, vertices: Iterable[int]) -> frozenset[int]:
    """Smallest hereditary superset: add every source of a path into the set.

    An entry that is not an int in ``range(skel.n)`` raises ``ValueError``.
    """
    seeds = _vertex_indices(skel.n, vertices)
    if not seeds:
        return frozenset()
    decomp = analysed(skel)._analysis
    closed = decomp.leq[decomp._labels[seeds]].any(axis=0)
    return frozenset(np.flatnonzero(closed[decomp._labels]).tolist())


def is_hereditary(skel: Skeleton, vertices: Iterable[int]) -> bool:
    vs = frozenset(_vertex_indices(skel.n, vertices))
    return hereditary_closure(skel, vs) == vs


def decompose(skel: Skeleton) -> ComponentDecomposition:
    """SCC decomposition with a deterministic condensation order.

    Components come out topologically sorted so that every colour matrix is
    block upper triangular under the induced vertex order; ties are broken
    by the smallest original vertex index. Per-component flags, Perron
    vectors, per-colour Perron roots and brackets, the reachability between
    components and each colour's reach between components are attached.
    Every closure is taken over a condensation, never over the vertices:
    ``leq`` is the union closure in the Kahn order, and each colour's
    closure is condensed onto the components through the component that
    holds each colour component. A colour whose support is the union
    support takes the union's components and closure without a walk.
    """
    union = skel.union_support()
    comps, before, closure = _condensed(union)

    # Order constraint: if a vertex of C_a receives an edge from one of C_b,
    # then a must come before b. Kahn's algorithm over those constraints,
    # smallest original vertex first among the ready components.
    np.fill_diagonal(before, False)
    indeg = before.sum(axis=0).tolist()
    ready = [(comps[c][0], c) for c in range(len(comps)) if indeg[c] == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        _, c = heapq.heappop(ready)
        order.append(c)
        for d in np.flatnonzero(before[c]):
            indeg[d] -= 1
            if indeg[d] == 0:
                heapq.heappush(ready, (comps[d][0], d))
    components = tuple(comps[c] for c in order)
    leq = closure[np.ix_(order, order)]
    np.fill_diagonal(leq, True)

    # Colour components refine the components, so component C is
    # irreducible in colour i exactly when C is itself a colour-i component
    # holding an edge (a loop when |C| = 1).
    arrays = skel.as_arrays()
    component_labels = _label_vertices(components, skel.n)
    colour_reach, flags = [], []
    for a in arrays:
        support = a > 0
        if np.array_equal(support, union):
            sccs, colour_closure = comps, closure
        else:
            sccs, _, colour_closure = _condensed(support)
        index = dict(zip(sccs, range(len(sccs))))
        cyclic = colour_closure.diagonal().tolist()
        flags.append([comp in index and cyclic[index[comp]] for comp in components])
        owners = component_labels[[scc[0] for scc in sccs]]
        colour_reach.append(_read_only(_condensation(owners, len(components), colour_closure)))

    spectra = [_block_spectra(skel, arrays, c, comp) for c, comp in enumerate(components)]
    return ComponentDecomposition(
        components=components,
        irreducible=tuple(zip(*flags)),
        radii=tuple(s[1] for s in spectra),
        leq=_read_only(leq),
        vectors=tuple(s[0] for s in spectra),
        brackets=tuple(s[2] for s in spectra),
        colour_reach=tuple(colour_reach),
    )


def _condensed(support: np.ndarray):
    """Strongly connected components of a boolean support and its condensation.

    Returns the components as sorted tuples, the condensation over them
    (its diagonal marks the components that hold an edge) and the
    condensation's closure.
    """
    sccs = [tuple(scc) for scc in tarjan_sccs(succ_lists(support))]
    condensation = _condensation(_label_vertices(sccs, len(support)), len(sccs), support)
    return sccs, condensation, transitive_closure(condensation)


def _block_spectra(skel: Skeleton, arrays, c: int, comp: tuple[int, ...]):
    """Shared Perron vector, per-colour roots and per-colour brackets of one component.

    A single vertex's Perron root is its loop count, the float that
    ``spectral_radius`` returns on the 1x1 block, with the vector (1,) and
    the root as its bracket. A larger block takes one certified Noda
    iteration on the colour sum of its blocks (cut by ``Skeleton._cut``)
    for the vector and every colour's root (``_family_perron``).
    """
    if len(comp) == 1:
        v = comp[0]
        radii = tuple(float(a[v, v]) for a in arrays)
        return _UNIT, radii, tuple(zip(radii, radii))
    return _family_perron(skel._cut(comp, floats=True), f"component {c} (vertices {list(comp)})")


def _weak_pieces(skel: Skeleton) -> list[list[int]]:
    """Weakly connected vertex sets, sorted, in the order of their least vertices.

    Each component takes the least label over its row of ``leq | leq.T``,
    then that label's label, until none changes: labels fall but stay in a
    piece, so each piece ends labelled by its least component.
    """
    decomp = analysed(skel)._analysis
    if decomp.count and (decomp.leq[0] | decomp.leq[:, 0]).all():
        return [list(range(skel.n))]  # every component is linked to the first
    linked, least, settled = decomp.leq | decomp.leq.T, np.arange(decomp.count), None
    while not np.array_equal(least, settled):
        settled, lower = least, np.where(linked, least, decomp.count).min(axis=1, initial=decomp.count)
        least = lower[lower]
    pieces: dict[int, list[int]] = {}
    for comp, label in zip(decomp.components, least.tolist()):
        pieces.setdefault(label, []).extend(comp)
    return sorted(map(sorted, pieces.values()))


def check_assumptions(skel: Skeleton) -> AssumptionReport:
    """Evaluate the engine's standing connectivity assumptions."""
    skel = analysed(skel)
    decomp = skel._analysis

    trivial_idx = tuple(c for c, t in enumerate(decomp.trivial) if t)
    pieces = _weak_pieces(skel)
    isolated = tuple(tuple(p) for p in pieces) if len(pieces) > 1 else ()

    a2_offenders = [
        (c, i)
        for c in range(decomp.count)
        for i in range(skel.k)
        if not decomp.irreducible[c][i] or not _exceeds(decomp.radii[c][i], 1.0)
    ]

    # [c, d, i]: a colour-i bridge, and a colour-i path, into component c
    # from component d. Reachability between components is then
    # colour-independent whenever a3 holds. Offenders come in (c, d, colour)
    # order, each a3 one with the pair's first bridging colour.
    bridges = np.stack([_condensation(decomp._labels, decomp.count, a > 0) for a in skel.as_arrays()], axis=-1)
    reaches = np.stack(decomp.colour_reach, axis=-1)
    apart = ~np.eye(decomp.count, dtype=bool)
    mixed = apart & bridges.any(axis=-1) & ~bridges.all(axis=-1)
    first = bridges.argmax(axis=-1).tolist()
    a3_offenders = [(c, d, first[c][d], miss) for c, d, miss in np.argwhere(mixed[..., None] & ~bridges).tolist()]
    reach_offenders = list(map(tuple, np.argwhere(apart & reaches.any(axis=-1) & ~reaches.all(axis=-1)).tolist()))

    return AssumptionReport(
        a1_no_trivial=not trivial_idx,
        trivial_components=trivial_idx,
        a1_no_isolated=not isolated,
        isolated_pieces=isolated,
        a2_irreducible_and_rho_gt_1=not a2_offenders,
        a2_offenders=tuple(a2_offenders),
        a3_colour_uniform_bridges=not a3_offenders,
        a3_offenders=tuple(a3_offenders),
        per_colour_reach_consistent=not reach_offenders,
        reach_offenders=tuple(reach_offenders),
        all_pass=not (trivial_idx or isolated or a2_offenders or a3_offenders or reach_offenders),
    )


def restrict(skel: Skeleton, hereditary_set: Iterable[int]) -> Skeleton:
    """Remove a hereditary vertex set, keeping the induced skeleton.

    The removed set must be hereditary (closed under path sources), which
    guarantees the surviving matrices still commute. When the input graph
    satisfies the standing assumptions the result has no zero rows or
    columns; otherwise sources may appear and are left to the caller's
    flags rather than treated as fatal. Removing nothing returns ``skel``.
    The result carries the slice of ``skel``'s analysis on the kept
    vertices, and its matrices commute without a fresh proof.
    """
    removed = frozenset(_vertex_indices(skel.n, hereditary_set))
    if not removed:
        return skel
    skel = analysed(skel)
    if hereditary_closure(skel, removed) != removed:
        raise ValueError("removal set is not hereditary")
    return skel._induced([v for v in range(skel.n) if v not in removed])


def split_isolated(skel: Skeleton) -> list[Skeleton]:
    """Split into weakly connected pieces: none for an empty skeleton, itself for a connected one.

    Each piece of a disconnected skeleton carries the slice of its analysis.
    """
    if skel.n == 0:
        return []
    carried = analysed(skel)
    pieces = _weak_pieces(carried)
    return [skel] if len(pieces) == 1 else [carried._induced(piece) for piece in pieces]
