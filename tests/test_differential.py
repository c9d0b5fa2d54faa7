"""The graph analysis against independent numpy references, on generated graph families.

Reach and colour reach come from closures of condensations and the flags
from one Tarjan run per colour; the references square the vertex supports
(``_digraph.transitive_closure``) and run Tarjan on each colour block.
The assumption report's offender lists, weak pieces and hereditary
closures are read off the component relations; the references are a loop
over component pairs, a Tarjan walk over the vertices and the rows of the
vertex reach.
Perron roots come from Noda iteration; the reference is a dense
eigensolve per block. Each component's colour blocks commute exactly, in
Python integers. The criticality decisions of the engine agree with each
other under explicit dynamics placed at the edge of the radius band. The
phase diagram's critical values, state counts and interval counts match
the removal recursion run over a condensation and dense eigensolves of
the test's own, and every state verifies against that recursion's dynamics.
Each piece's component states are ``extend_eigenvector``'s vectors
normalised, bit for bit, whose stacked solves equal each colour's solve
alone; and the one certificate of a piece's critical states in its own
frame agrees with certifying each state on the sub-skeleton it was built
on.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgraphkms import (
    Dynamics,
    Skeleton,
    _digraph,
    components,
    critical_components,
    decompose,
    extend_eigenvector,
    normalize_dynamics,
    phase_diagram,
    removal_set,
    spectral,
    split_isolated,
    verify_states,
)
from kgraphkms.components import analysed, check_assumptions, hereditary_closure, restrict
from kgraphkms.dumbbell import make_dumbbell3, sample_commuting3
from kgraphkms.engine import KIND_COMPONENT

from conftest import (
    EXAMPLE_1,
    EXAMPLE_2,
    REDUCIBLE_COLOUR_BLOCKS,
    chain,
    colour_support,
    data_skeletons,
    skeleton,
    vertex_reach,
)


def labelled(*matrices) -> Skeleton:
    return Skeleton(tuple(f"x{v}" for v in range(len(matrices[0]))), tuple(np.asarray(m).tolist() for m in matrices))


def square(draw, size: int, top: int) -> np.ndarray:
    cells = draw(st.lists(st.integers(0, top), min_size=size * size, max_size=size * size))
    return np.array(cells, dtype=np.int64).reshape(size, size)


@st.composite
def chains(draw):
    return chain(draw(st.integers(1, 12)), draw(st.integers(0, 7)))


@st.composite
def cycle_products(draw):
    """Colours ``X + Y`` and ``XY + X + 2Y`` for ``X = A (x) I``, ``Y = I (x) B``: they commute."""
    length = draw(st.integers(1, 6))
    cycle = np.zeros((length, length), dtype=np.int64)
    for i, w in enumerate(draw(st.lists(st.integers(1, 3), min_size=length, max_size=length))):
        cycle[(i + 1) % length, i] = w
    block = square(draw, draw(st.integers(1, 3)), 2)
    x = np.kron(cycle, np.eye(len(block), dtype=np.int64))
    y = np.kron(np.eye(length, dtype=np.int64), block)
    return labelled(x + y, x @ y + x + 2 * y)


@st.composite
def block_chains(draw):
    """Colours ``M`` and ``M²`` for a block upper-triangular ``M``: polynomials in one matrix commute.

    The diagonal blocks are mostly strongly connected, so components have
    several vertices. Some are weighted cycles, which ``M²`` splits (a
    2-cycle squares to two loops), so colour blocks can be reducible.
    """
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    n = sum(sizes)
    m = np.zeros((n, n), dtype=np.int64)
    start = 0
    for size in sizes:
        if draw(st.booleans()):
            diagonal = np.roll(np.diag(draw(st.lists(st.integers(1, 3), min_size=size, max_size=size))), 1, axis=0)
        else:
            diagonal = square(draw, size, 2)
        m[start : start + size, start : start + size] = diagonal
        m[:start, start : start + size] = square(draw, max(start, size), 1)[:start, :size]
        start += size
    return labelled(m, m @ m)


@st.composite
def dumbbells(draw):
    return make_dumbbell3(sample_commuting3(draw(st.integers(0, 10**6)), 1)[0])


GRAPHS = st.one_of(
    chains(), cycle_products(), block_chains(), dumbbells(), st.sampled_from(list(REDUCIBLE_COLOUR_BLOCKS.values()))
)


# Graphs that fail an assumption: a bridge in colour 1 only, two disjoint
# loops, and a loopless vertex fed through.
A3_VIOLATION = skeleton("vw", [[2, 0], [0, 2]], [[2, 1], [0, 3]])
ISOLATED_VIOLATION = skeleton("ab", [[2, 0], [0, 3]], [[2, 0], [0, 3]])
TRIVIAL_VIOLATION = skeleton("abc", [[2, 1, 1], [0, 0, 1], [0, 0, 2]], [[2, 1, 1], [0, 0, 1], [0, 0, 2]])


def relation_reference(decomp, x: np.ndarray) -> np.ndarray:
    """``[c, d]``: ``x`` links a vertex of component c to one of d, as the product ``C^T x C``."""
    member = np.zeros((x.shape[0], decomp.count))
    for c, comp in enumerate(decomp.components):
        member[list(comp), c] = 1
    return member.T @ x.astype(float) @ member > 0


def dense_reach(skel) -> np.ndarray:
    """``[v, w]``: a path, possibly trivial, has range ``v`` and source ``w``, by squaring the union support."""
    return _digraph.transitive_closure(skel.union_support()) | np.eye(skel.n, dtype=bool)


@given(GRAPHS)
@settings(max_examples=80, deadline=None)
def test_reach_is_the_dense_closure_of_the_union_support(skel):
    assert np.array_equal(vertex_reach(decompose(skel)), dense_reach(skel))


@given(GRAPHS)
@settings(max_examples=80, deadline=None)
def test_flags_match_tarjan_on_each_colour_block(skel):
    decomp = decompose(skel)
    for c, comp in enumerate(decomp.components):
        for i in range(skel.k):
            assert decomp.irreducible[c][i] is _digraph.irreducible(colour_support(skel, i)[np.ix_(comp, comp)])


@given(GRAPHS)
@settings(max_examples=80, deadline=None)
def test_colour_reach_is_the_squared_colour_closure(skel):
    decomp = decompose(skel)
    for i in range(skel.k):
        want = relation_reference(decomp, _digraph.transitive_closure(colour_support(skel, i)))
        assert np.array_equal(decomp.colour_reach[i], want)
        assert not decomp.colour_reach[i].flags.writeable


@given(GRAPHS, st.data())
@settings(max_examples=60, deadline=None)
def test_restrictions_inherit_reach_and_colour_reach(skel, data):
    # A restriction slices its parent's analysis; it must agree with the
    # references on the restricted skeleton itself.
    skel = analysed(skel)
    decomp = analysed(skel)._analysis
    comp = data.draw(st.sampled_from(decomp.components))
    sub = restrict(skel, hereditary_closure(skel, comp))
    if not sub.n:
        return
    got = analysed(sub)._analysis
    assert np.array_equal(vertex_reach(got), dense_reach(sub))
    for i in range(sub.k):
        want = relation_reference(got, _digraph.transitive_closure(colour_support(sub, i)))
        assert np.array_equal(got.colour_reach[i], want)


@given(GRAPHS)
@settings(max_examples=80, deadline=None)
def test_component_colour_blocks_commute_exactly(skel):
    # The analysis takes each component's shared Perron vector with no
    # commutation check of its own, and the extension reads it from there:
    # commuting block upper-triangular matrices have commuting diagonal blocks.
    decomp = decompose(skel)
    exact = [np.array(m, dtype=object).reshape(skel.n, skel.n) for m in skel.matrices]
    for comp in decomp.components:
        blocks = [a[np.ix_(comp, comp)] for a in exact]
        for i in range(skel.k):
            for j in range(i + 1, skel.k):
                assert np.array_equal(blocks[i] @ blocks[j], blocks[j] @ blocks[i])


@given(GRAPHS)
@settings(max_examples=80, deadline=None)
def test_roots_match_a_dense_eigensolve_per_block(skel):
    # The reference block is the colour block under the diagonal similarity
    # by the component's Perron vector: the same eigenvalues, and with rows
    # of one size even where the vector spans 3**20, so the eigensolver's
    # normwise error is small relative to every entry.
    decomp = decompose(skel)
    for c, comp in enumerate(decomp.components):
        x = decomp.vectors[c]
        for i, a in enumerate(skel.as_arrays()):
            block = a[np.ix_(comp, comp)]
            rho, (lo, hi) = decomp.radii[c][i], decomp.brackets[c][i]
            if len(comp) == 1:
                assert rho == lo == hi == block[0, 0]
                continue
            want = float(np.abs(np.linalg.eigvals(block * x / x[:, None])).max())
            assert rho == pytest.approx(want, rel=1e-12, abs=0)
            assert lo <= rho <= hi and hi - lo <= 1e-9 * hi


# Relative offsets of a dynamics entry from its colour's log radius: on it,
# inside the radius band, and past it by a ratio of 1.2e-9 that still ties
# a log radius below 1, where the band is absolute.
R_OFFSETS = (0.0, 5e-10, -5e-10, 1.2e-9, -1.2e-9, 3e-9, 1e-6, 0.5)


# Every family has two colours.
@given(GRAPHS, st.tuples(st.sampled_from(R_OFFSETS), st.sampled_from(R_OFFSETS)))
@example(labelled([[2]], [[2]]), (0.0, 1.2e-9))
@settings(max_examples=80, deadline=None)
def test_criticality_decisions_share_one_rule(skel, offsets):
    skel = analysed(skel)
    radii = [analysed(skel)._analysis.global_radius(i) for i in range(skel.k)]
    if min(radii) <= 0 or max(radii) <= 1:
        return  # no dynamics normalises
    r = [math.log(rho) * (1 + e) if rho > 1 else 1.0 for rho, e in zip(radii, offsets)]
    dyn = normalize_dynamics(skel, r)
    assert dyn.critical_colours == critical_components(skel, dyn).active_colours
    if not check_assumptions(skel).all_pass:
        return
    # A component state descends to the Cuntz-Krieger quotient exactly when
    # its component is critical in every colour, on every recursion piece.
    for piece in phase_diagram(skel, dyn).pieces:
        sub = piece.skeleton
        crit = critical_components(sub, normalize_dynamics(sub, dyn.r))
        at = {label: v for v, label in enumerate(sub.vertex_labels)}
        for state in piece.critical_states:
            if state.kind == "component":
                c = analysed(sub)._analysis.components.index(tuple(sorted(at[label] for label in state.anchor)))
                assert state.factors_through_ck == (crit.critical_colours_by_component[c] == set(range(skel.k)))


def offenders_reference(skel, decomp):
    """The a3 and reach-consistency offenders by a loop over ordered pairs of distinct components.

    Each a3 offender names the pair, the first colour with a bridge and one
    colour without; each reach offender a pair that some colours join by a
    single-colour path and others do not.
    """
    bridges = [relation_reference(decomp, colour_support(skel, i)) for i in range(skel.k)]
    supports = [relation_reference(decomp, _digraph.transitive_closure(colour_support(skel, i))) for i in range(skel.k)]
    a3, reach = [], []
    for c in range(decomp.count):
        for d in range(decomp.count):
            if c == d:
                continue
            present = [i for i in range(skel.k) if bridges[i][c, d]]
            if present and len(present) < skel.k:
                a3 += [(c, d, present[0], miss) for miss in range(skel.k) if miss not in present]
            if len({bool(s[c, d]) for s in supports}) > 1:
                reach.append((c, d))
    return tuple(a3), tuple(reach)


def isolated_reference(skel) -> tuple[tuple[int, ...], ...]:
    """Weakly connected pieces by a Tarjan walk over the symmetrised union support, if more than one."""
    adj = skel.union_support()
    pieces = sorted(_digraph.tarjan_sccs(_digraph.succ_lists(adj | adj.T)))
    return tuple(map(tuple, pieces)) if len(pieces) > 1 else ()


@given(GRAPHS)
@example(A3_VIOLATION)
@example(ISOLATED_VIOLATION)
@example(TRIVIAL_VIOLATION)
@settings(max_examples=80, deadline=None)
def test_assumption_report_lists_match_the_references(skel):
    report = check_assumptions(skel)
    a3, reach = offenders_reference(skel, decompose(skel))
    assert report.a3_offenders == a3
    assert report.reach_offenders == reach
    assert report.isolated_pieces == isolated_reference(skel)
    assert report.a3_colour_uniform_bridges is (not a3)
    assert report.per_colour_reach_consistent is (not reach)


def fence_pair(length: int) -> Skeleton:
    """Two interleaved fences a0 -> a1 <- a2 -> a3 <- ... on the even and the odd vertices.

    Each fence is one weak piece whose components link only to their
    neighbours, so a label reaches the far end only after several rounds.
    """
    n = 2 * length
    m = np.eye(n, dtype=int)
    for v in range(n - 2):
        j = v // 2
        m[(v, v + 2) if j % 2 == 0 else (v + 2, v)] = 1
    return Skeleton(tuple(f"x{v}" for v in range(n)), (m.tolist(),))


def test_weak_pieces_of_interleaved_fences_match_the_tarjan_reference():
    skel = analysed(fence_pair(16))
    decomp = skel._analysis
    assert decomp.count == 32
    assert ((decomp.leq | decomp.leq.T).sum(axis=1) <= 3).all()
    want = [list(p) for p in isolated_reference(skel)]
    assert want == [list(range(0, 32, 2)), list(range(1, 32, 2))]
    assert components._weak_pieces(skel) == want
    assert [sub.vertex_labels for sub in split_isolated(skel)] == [
        tuple(skel.vertex_labels[v] for v in p) for p in want
    ]


def test_weak_pieces_walk_no_digraph(monkeypatch):
    skel = analysed(fence_pair(5))

    def refuse(*args):
        raise AssertionError("weak pieces walked a digraph")

    monkeypatch.setattr(_digraph, "tarjan_sccs", refuse)
    monkeypatch.setattr(components, "tarjan_sccs", refuse)
    assert components._weak_pieces(skel) == [list(range(0, 10, 2)), list(range(1, 10, 2))]


@given(GRAPHS, st.sets(st.integers(0, 17), max_size=4))
@example(A3_VIOLATION, {0})
@example(ISOLATED_VIOLATION, {1})
@example(TRIVIAL_VIOLATION, {0})
@settings(max_examples=80, deadline=None)
def test_hereditary_closure_is_the_union_of_reach_rows(skel, drawn):
    seeds = sorted(v for v in drawn if v < skel.n)
    want = np.flatnonzero(dense_reach(skel)[seeds].any(axis=0)).tolist() if seeds else []
    assert hereditary_closure(skel, seeds) == frozenset(want)


# The removal recursion, re-derived without the package's analysis: vertex
# reach by squaring the union support, components as its mutual classes,
# roots from a dense eigensolve per block, and the recursion of
# ``perfbench/oracle.py`` over the resulting condensation.
BETA_RTOL = 1e-12


def condensation_reference(skel):
    """Component sizes, per-colour roots and ``feeds[c]``: the components with an edge into ``c``."""
    mats = [np.array(m, dtype=float) for m in skel.matrices]
    support = np.any([m > 0 for m in mats], axis=0)
    reach = support | np.eye(skel.n, dtype=bool)
    while True:
        wider = reach | ((reach.astype(float) @ reach.astype(float)) > 0)
        if np.array_equal(wider, reach):
            break
        reach = wider
    mutual = reach & reach.T
    firsts = sorted(set(np.argmax(mutual, axis=1).tolist()))
    label = np.array([firsts.index(f) for f in np.argmax(mutual, axis=1).tolist()])
    comps = [np.flatnonzero(label == c) for c in range(len(firsts))]
    radii = []
    for comp in comps:
        blocks = [m[np.ix_(comp, comp)] for m in mats]
        radii.append(tuple(float(np.abs(np.linalg.eigvals(b)).max()) for b in blocks))
    feeds = [set() for _ in comps]
    for v, w in zip(*np.nonzero(support)):
        if label[v] != label[w]:
            feeds[label[v]].add(int(label[w]))
    return [len(c) for c in comps], radii, feeds


def sources_within(feeds, s: frozenset, c: int) -> set:
    """Components inside ``s`` with a path into ``c`` that stays inside ``s``."""
    seen, todo = set(), [c]
    while todo:
        for d in feeds[todo.pop()]:
            if d in s and d not in seen:
                seen.add(d)
                todo.append(d)
    return seen


def weak_pieces_reference(feeds, s: frozenset) -> list[frozenset]:
    adj = {c: set() for c in s}
    for c in s:
        for d in feeds[c] & s:
            adj[c].add(d)
            adj[d].add(c)
    pieces, left = [], set(s)
    while left:
        todo, piece = [min(left)], set()
        while todo:
            c = todo.pop()
            if c not in piece:
                piece.add(c)
                todo.extend(adj[c] - piece)
        left -= piece
        pieces.append(frozenset(piece))
    return pieces


def removal_reference(skel):
    """Preferred log radii, critical values, and each value's state count and interval count below it.

    Each piece (size, start, critical value, states there) comes from the
    recursion: the critical components of a piece, the minimal ones among
    them, their feeders dropped, and the rest split into weak pieces.
    """
    sizes, radii, feeds = condensation_reference(skel)
    log_radii = tuple(math.log(max(r[j] for r in radii)) for j in range(skel.k))
    pieces = []

    def run(s: frozenset, beta_start: float) -> None:
        beta = max(math.log(radii[c][j]) / log_radii[j] for c in s for j in range(skel.k))
        crit = {
            c
            for c in s
            for j in range(skel.k)
            if abs(math.log(radii[c][j]) - beta * log_radii[j]) <= 1e-9 * max(1.0, beta * log_radii[j])
        }
        feeders = {c: sources_within(feeds, s, c) for c in crit}
        minimal = {c for c in crit if not any(c in feeders[d] for d in crit if d != c)}
        quotient = frozenset(s - set().union(*(feeders[c] for c in minimal)) - minimal)
        pieces.append((sum(sizes[c] for c in s), beta_start, beta, len(minimal) + sum(sizes[c] for c in quotient)))
        for nxt in weak_pieces_reference(feeds, quotient):
            run(nxt, beta)

    for top in weak_pieces_reference(feeds, frozenset(range(len(sizes)))):
        run(top, math.inf)
    betas = []
    for b in sorted((p[2] for p in pieces), reverse=True):
        if not betas or not math.isclose(b, betas[-1], rel_tol=BETA_RTOL):
            betas.append(b)

    def count_at(beta: float) -> int:
        return sum(
            states if math.isclose(crit, beta, rel_tol=BETA_RTOL) else size if crit < beta < start else 0
            for size, start, crit, states in pieces
        )

    intervals, prev = [], math.inf
    for b in betas:
        intervals.append(sum(p[0] for p in pieces if p[2] <= b * (1 + BETA_RTOL) and p[1] >= prev))
        prev = b
    return log_radii, betas, [count_at(b) for b in betas], intervals


@given(GRAPHS)
@example(chain(20, 0))
@example(chain(9, 3))
@example(EXAMPLE_1)
@example(EXAMPLE_2)
@settings(max_examples=80, deadline=None)
def test_phase_diagram_matches_the_removal_recursion(skel):
    if not check_assumptions(skel).all_pass:
        return  # the diagram is defined on graphs that meet the assumptions
    log_radii, betas, counts, intervals = removal_reference(skel)
    diagram = phase_diagram(skel, normalize_dynamics(skel))
    assert len(diagram.critical_betas) == len(betas)
    for got, want in zip(diagram.critical_betas, betas):
        assert got == pytest.approx(want, rel=BETA_RTOL, abs=0)
    assert [iv.extreme_count for iv in diagram.intervals] == intervals
    assert [len(states) for states in diagram.critical_points] == counts
    # Every state verifies against the dynamics of the reference radii.
    ref = Dynamics(
        r=log_radii,
        normalization_factor=1.0,
        rationally_independent=True,
        preferred=True,
        critical_colours=frozenset(range(skel.k)),
        log_radii=log_radii,
    )
    for beta, states in zip(diagram.critical_betas, diagram.critical_points):
        checks = verify_states(skel, ref, beta, [np.asarray(s.m) for s in states])
        assert all(check.passed for check in checks), checks


def piece_parts(skel):
    """Each diagram piece with its own dynamics and the sub-skeletons its critical states are built on.

    The component states live on the piece minus ``removal_set``, the
    quotient's point masses on the piece minus that set and the minimal
    critical components (the component states' anchors).
    """
    dyn = normalize_dynamics(skel)
    for p in phase_diagram(skel, dyn).pieces:
        piece = p.skeleton
        sub_dyn = normalize_dynamics(piece, r=dyn.r)
        removal = removal_set(piece, sub_dyn)
        core = {piece.vertex_labels.index(label) for s in p.critical_states if s.kind == KIND_COMPONENT for label in s.anchor}
        yield p, sub_dyn, restrict(piece, removal), restrict(piece, removal | core)


def assert_component_states_are_the_extension(skel) -> None:
    at = {label: v for v, label in enumerate(skel.vertex_labels)}
    for p, _, inner, _ in piece_parts(skel):
        cols = [at[label] for label in inner.vertex_labels]
        for state in p.critical_states:
            if state.kind != KIND_COMPONENT:
                continue
            comp = [inner.vertex_labels.index(label) for label in state.anchor]
            ext = extend_eigenvector(inner, comp)
            z = np.array(ext.z)
            assert state.m[cols].tobytes() == (z / z.sum()).tobytes()
            assert not np.delete(state.m, cols).any()
            # The stacked solve gives each colour's solve alone, on blocks cut one at a time.
            f, d, _, x, radii, _, _ = spectral._partition_for(inner, comp)
            if f:
                arrays = inner.as_arrays()
                alone = [
                    np.linalg.solve(radii[i] * np.eye(len(f)) - arrays[i][np.ix_(f, f)], arrays[i][np.ix_(f, d)] @ x)
                    for i in ext.solved_colours
                ]
                assert np.array(ext.y).tobytes() == alone[0].tobytes()
                assert ext.cross_colour_discrepancy == max(float(np.abs(y - alone[0]).max()) for y in alone)


def spoiled_rows(row: np.ndarray, cols: list[int]):
    """``row``, and copies of it scaled or with mass moved between two of its ``cols``, some failing verification."""
    yield row
    yield row * (1 + 1e-6)
    hi, lo = cols[int(np.argmax(row[cols]))], cols[int(np.argmin(row[cols]))]
    for delta in (1e-12, 1e-6, 1e-2):
        moved = row.copy()
        moved[hi] -= delta
        moved[lo] += delta
        yield moved


def assert_piece_certificate_matches_sub_skeletons(skel) -> None:
    for p, sub_dyn, inner, quotient in piece_parts(skel):
        piece = p.skeleton
        pos = {label: v for v, label in enumerate(piece.vertex_labels)}
        block = np.array([s.m for s in p.critical_states])[:, list(p.vertices)]
        assert all(check.passed for check in verify_states(piece, sub_dyn, 1.0, block))
        for row, state in zip(block, p.critical_states):
            sub = inner if state.kind == KIND_COMPONENT else quotient
            cols = [pos[label] for label in sub.vertex_labels]
            for spoiled in spoiled_rows(row, cols):
                whole = verify_states(piece, sub_dyn, 1.0, [spoiled])[0]
                alone = verify_states(sub, sub_dyn, 1.0, [spoiled[cols]])[0]
                assert whole.passed == alone.passed, (state.anchor, whole, alone)


DOCUMENTS = data_skeletons()


@pytest.mark.parametrize("stem", sorted(DOCUMENTS))
def test_component_states_of_the_documents_are_the_extension(stem):
    assert_component_states_are_the_extension(DOCUMENTS[stem])


@given(GRAPHS)
@example(chain(9, 3))
@example(EXAMPLE_2)
@settings(max_examples=60, deadline=None)
def test_component_states_are_the_extension(skel):
    if check_assumptions(skel).all_pass:
        assert_component_states_are_the_extension(skel)


@given(GRAPHS)
@example(chain(9, 3))
@example(EXAMPLE_1)
@example(EXAMPLE_2)
@settings(max_examples=60, deadline=None)
def test_the_piece_certificate_agrees_with_the_sub_skeletons(skel):
    if check_assumptions(skel).all_pass:
        assert_piece_certificate_matches_sub_skeletons(skel)
