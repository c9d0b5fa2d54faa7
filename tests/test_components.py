import re
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgraphkms import (
    Skeleton,
    _digraph,
    check_assumptions,
    check_spectral_ordering,
    components,
    decompose,
    extend_eigenvector,
    extreme_states_at,
    hereditary_closure,
    normalize_dynamics,
    phase_diagram,
    psi_state,
    restrict,
    split_isolated,
)
from kgraphkms.components import analysed, is_hereditary
from kgraphkms.dumbbell import make_dumbbell3, sample_commuting3
from kgraphkms.skeleton import RULE_COMMUTE, validate_skeleton
from kgraphkms.spectral import spectral_radius

from conftest import (
    EXAMPLE_1,
    EXAMPLE_2,
    NO_BRIDGE_COUNTEREXAMPLE,
    chain,
    colour_support,
    data_skeletons,
    product_skeleton,
    rules,
    skeleton,
    vertex_reach,
)

TWO_LOOPS = skeleton("ab", [[2, 0], [0, 3]], [[2, 0], [0, 3]])

# Two components joined by single-colour-uniform bridges from w into v.
FIG2 = skeleton("vw", [[2, 1], [0, 3]], [[2, 1], [0, 3]])


class TestDecompose:
    def test_example1_three_singletons_in_condensation_order(self):
        decomp = decompose(EXAMPLE_1)
        assert decomp.components == ((0,), (1,), (2,))
        assert decomp.trivial == (False, False, False)
        assert decomp.coordinatewise_irreducible == (True, True, True)
        assert decomp.radii == ((2.0, 2.0), (4.0, 3.0), (5.0, 4.0))

    def test_single_vertex_loop(self):
        decomp = decompose(skeleton("v", [[1]], [[1]]))
        assert decomp.components == ((0,),)
        assert decomp.trivial == (False,)

    def test_fig2_heredity_sides(self):
        decomp = decompose(FIG2)
        assert decomp.components == ((0,), (1,))
        # Bridges run w -> v, so v receives from w: {w} is hereditary and
        # {v} is only forwards hereditary.
        assert is_hereditary(FIG2, {1})
        assert not is_hereditary(FIG2, {0})
        assert decomp.leq[0][1] and not decomp.leq[1][0]

    def test_block_triangular_property(self):
        for skel in (EXAMPLE_1, EXAMPLE_2, FIG2):
            decomp = decompose(skel)
            starts = {}
            for c, comp in enumerate(decomp.components):
                for v in comp:
                    starts[v] = c
            for m in skel.matrices:
                for v in range(skel.n):
                    for w in range(skel.n):
                        if m[v][w] and starts[v] > starts[w]:
                            pytest.fail(f"entry below the block diagonal at ({v},{w})")

    def test_receives_from_is_a_partial_order(self):
        for skel in (EXAMPLE_1, EXAMPLE_2, FIG2, TWO_LOOPS):
            leq = decompose(skel).leq
            n = len(leq)
            for a in range(n):
                assert leq[a][a]
                for b in range(n):
                    if a != b:
                        assert not (leq[a][b] and leq[b][a])
                    for c in range(n):
                        if leq[a][b] and leq[b][c]:
                            assert leq[a][c]

    def test_condensation_order_deterministic_tiebreak(self):
        # Two incomparable hereditary loops feeding one top vertex: the tie
        # is broken by the smallest original vertex index.
        skel = skeleton(
            "abc",
            [[2, 1, 1], [0, 2, 0], [0, 0, 2]],
            [[2, 1, 1], [0, 2, 0], [0, 0, 2]],
        )
        decomp = decompose(skel)
        assert decomp.components == ((0,), (1,), (2,))


class TestSingleVertexClosedForm:
    """Single-vertex components take their flags and roots from the loop counts."""

    # a: loops in both colours; b: a loop in colour 1 only; c: no loop (trivial);
    # d: a loop count beyond 2**53, which rounds when made a float.
    LOOPS = skeleton("abcd", np.diag([3, 0, 0, 2**60 + 1]).tolist(), np.diag([5, 4, 0, 7]).tolist())

    @pytest.mark.parametrize(
        "skel",
        [LOOPS, EXAMPLE_1, EXAMPLE_2, FIG2, TWO_LOOPS, chain(12, 0)],
        ids=["loops", "example1", "example2", "fig2", "two-loops", "chain12"],
    )
    def test_bit_equal_to_the_general_route(self, skel):
        decomp = decompose(skel)
        for c, comp in enumerate(decomp.components):
            assert len(comp) == 1
            for i, a in enumerate(skel.as_arrays()):
                block = a[np.ix_(comp, comp)]
                assert decomp.radii[c][i].hex() == spectral_radius(block).hex()
                assert decomp.irreducible[c][i] is _digraph.irreducible(colour_support(skel, i)[np.ix_(comp, comp)])

    def test_loopless_and_one_colour_loops(self):
        decomp = decompose(self.LOOPS)
        assert decomp.components == ((0,), (1,), (2,), (3,))
        assert decomp.irreducible == ((True, True), (False, True), (False, False), (True, True))
        assert decomp.radii[:3] == ((3.0, 5.0), (0.0, 4.0), (0.0, 0.0))
        assert decomp.radii[3] == (float(2**60 + 1), 7.0)
        assert decomp.trivial == (False, False, True, False)


def reference_leq(skel, decomp) -> np.ndarray:
    """The component relation as ``C^T R C``, for the vertex-to-component membership ``C``.

    ``R`` is the vertex reach, by squaring the union support.
    """
    reach = _digraph.transitive_closure(skel.union_support()) | np.eye(skel.n, dtype=bool)
    member = np.zeros((skel.n, decomp.count), dtype=np.int64)
    for c, comp in enumerate(decomp.components):
        member[list(comp), c] = 1
    return (member.T @ reach.astype(np.int64) @ member) > 0


def reference_trivial(skel, decomp) -> tuple[bool, ...]:
    """Per component: a single vertex with no loop in any colour."""
    return tuple(len(c) == 1 and not any(m[c[0]][c[0]] for m in skel.matrices) for c in decomp.components)


def reference_weak_pieces(skel) -> list[list[int]]:
    """Union-find over the edges of every colour; pieces sorted, ordered by least vertex."""
    parent = list(range(skel.n))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for m in skel.matrices:
        for v in range(skel.n):
            for w in range(skel.n):
                if m[v][w]:
                    parent[find(v)] = find(w)
    pieces: dict[int, list[int]] = {}
    for v in range(skel.n):
        pieces.setdefault(find(v), []).append(v)
    return sorted(pieces.values())


def sparse_one_colour(seed: int, n: int) -> Skeleton:
    """One colour, so nothing to commute: many weak pieces and non-trivial components."""
    rng = np.random.default_rng(seed)
    m = (rng.random((n, n)) < 1.2 / n) * rng.integers(1, 4, (n, n))
    return Skeleton(tuple(f"x{v}" for v in range(n)), (m.tolist(),))


DERIVED_FIXTURES = {
    "example1": EXAMPLE_1,
    "example2": EXAMPLE_2,
    "fig2": FIG2,
    "two-loops": TWO_LOOPS,
    "no-bridge": NO_BRIDGE_COUNTEREXAMPLE,
    "loops": TestSingleVertexClosedForm.LOOPS,
    "empty": Skeleton((), ((), ())),
    "cycle5": Skeleton(tuple("abcde"), ([[int(w == (v + 1) % 5) for w in range(5)] for v in range(5)],)),
    **{f"chain{n}-{b}": chain(n, b) for n, b in ((1, 0), (5, 3), (12, 0))},
    **{f"dumbbell{i}": make_dumbbell3(p) for i, p in enumerate(sample_commuting3(9, 12))},
    **{f"sparse{seed}": sparse_one_colour(seed, 30) for seed in range(8)},
    **{f"data-{stem}": skel for stem, skel in data_skeletons().items()},
}


@pytest.mark.parametrize("skel", DERIVED_FIXTURES.values(), ids=DERIVED_FIXTURES.keys())
def test_derived_data_match_their_definitions(skel):
    decomp = decompose(skel)
    assert decomp.leq.dtype == bool
    assert np.array_equal(decomp.leq, reference_leq(skel, decomp))
    assert decomp.trivial == reference_trivial(skel, decomp)
    assert all(type(t) is bool for t in decomp.trivial)
    pieces = reference_weak_pieces(skel)
    assert components._weak_pieces(skel) == pieces
    want = [tuple(skel.vertex_labels[v] for v in p) for p in pieces]
    assert [sub.vertex_labels for sub in split_isolated(skel)] == want


class TestReaches:
    def test_reflexive(self):
        assert vertex_reach(decompose(EXAMPLE_1))[1, 1]

    def test_example1_direction(self):
        u, v, w = 0, 1, 2
        reach = vertex_reach(decompose(EXAMPLE_1))
        assert reach[u, w]
        assert not reach[w, u]
        assert reach[u, v]
        assert not reach[v, w]

    def test_disjoint_loops_do_not_cross(self):
        reach = vertex_reach(decompose(TWO_LOOPS))
        assert not reach[0, 1]
        assert not reach[1, 0]


class TestHereditaryClosure:
    def test_empty(self):
        assert hereditary_closure(EXAMPLE_1, set()) == frozenset()

    def test_example1_v_is_already_hereditary(self):
        assert hereditary_closure(EXAMPLE_1, {1}) == frozenset({1})

    def test_example1_u_pulls_everything(self):
        assert hereditary_closure(EXAMPLE_1, {0}) == frozenset({0, 1, 2})

    @pytest.mark.parametrize(
        "vertices, bad",
        [
            ([-1], [-1]),
            ([5], [5]),
            ([0, 3, -2], [-2, 3]),
            ([np.int64(9), 0], [9]),
            # Neither a bool nor a float is a vertex index, even where
            # int() of it would be one.
            ([True], [True]),
            ([1.7], [1.7]),
            ([np.float64(2.0)], [np.float64(2.0)]),
            # Bad integers come first, in order, then the rest as given.
            ([2, 1.7, 7, True, -1, "u"], [-1, 7, 1.7, True, "u"]),
        ],
    )
    @pytest.mark.parametrize(
        "check",
        [
            hereditary_closure,
            is_hereditary,
            restrict,
            extend_eigenvector,
            lambda skel, vs: psi_state(skel, normalize_dynamics(skel), vs),
            lambda skel, vs: check_spectral_ordering(skel, vs, 0),
        ],
        ids=[
            "hereditary_closure",
            "is_hereditary",
            "restrict",
            "extend_eigenvector",
            "psi_state",
            "check_spectral_ordering",
        ],
    )
    def test_unknown_vertex_indices_refused(self, check, vertices, bad):
        # Unchecked, -1 would wrap around to the last vertex, 5 would raise
        # a bare IndexError, and True and 1.7 would both be read as 1.
        with pytest.raises(ValueError, match=rf"^unknown vertex indices {re.escape(str(bad))}$"):
            check(EXAMPLE_1, vertices)

    def test_integer_arrays_are_read_without_a_per_entry_check(self, monkeypatch):
        # In range they are read in two vectorised steps; out of range they
        # take the per-entry path and its message.
        def refuse(v):
            raise AssertionError("per-entry check on an in-range integer array")

        expected = {(2, 0, 2): [0, 2], (): []}
        for dtype in (np.intp, np.int32, np.uint8):
            monkeypatch.setattr(components, "_is_int", refuse)
            for given_, want in expected.items():
                assert components._vertex_indices(EXAMPLE_1.n, np.array(given_, dtype=dtype)) == want
            monkeypatch.undo()
            with pytest.raises(ValueError, match=r"^unknown vertex indices \[3, 5\]$"):
                components._vertex_indices(EXAMPLE_1.n, np.array([5, 0, 3], dtype=dtype))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_idempotent_and_monotone(self, data):
        n = data.draw(st.integers(2, 6))
        # One-colour skeletons commute trivially; loops keep rows/cols busy.
        grid = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
        for a in range(n):
            for b in range(n):
                if a != b and data.draw(st.booleans()):
                    grid[a][b] = 1
        skel = skeleton([f"x{i}" for i in range(n)], grid)
        small = frozenset(data.draw(st.sets(st.integers(0, n - 1), max_size=2)))
        big = small | frozenset(data.draw(st.sets(st.integers(0, n - 1), max_size=2)))
        close_small = hereditary_closure(skel, small)
        assert hereditary_closure(skel, close_small) == close_small
        assert close_small <= hereditary_closure(skel, big)


class TestAssumptions:
    def test_example1_all_pass(self):
        report = check_assumptions(EXAMPLE_1)
        assert report.all_pass

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_empty_skeleton_passes_with_no_offenders(self, k):
        report = check_assumptions(Skeleton((), ((),) * k))
        assert report == components.AssumptionReport(True, (), True, (), True, (), True, (), True, (), True)

    def test_single_colour_bridge_flagged(self):
        # Bridge only in colour 2 (commutation then forces equal loops in
        # colour 1 across the two vertices).
        skel = skeleton("vw", [[2, 0], [0, 2]], [[2, 1], [0, 3]])
        report = check_assumptions(skel)
        assert not report.a3_colour_uniform_bridges
        assert report.a3_offenders == ((0, 1, 1, 0),)
        assert report.reach_offenders == ((0, 1),)
        assert not report.all_pass

    def test_isolated_pieces_flagged(self):
        report = check_assumptions(TWO_LOOPS)
        assert not report.a1_no_isolated
        assert report.isolated_pieces == ((0,), (1,))
        assert not report.all_pass

    def test_trivial_component_flagged(self):
        # Middle vertex has no loop at all but is fed through.
        skel = skeleton(
            "abc",
            [[2, 1, 1], [0, 0, 1], [0, 0, 2]],
            [[2, 1, 1], [0, 0, 1], [0, 0, 2]],
        )
        report = check_assumptions(skel)
        assert not report.a1_no_trivial
        assert report.trivial_components == (1,)
        assert not report.all_pass

    def test_single_cycle_radius_flagged(self):
        skel = skeleton("v", [[1]], [[2]])
        report = check_assumptions(skel)
        assert not report.a2_irreducible_and_rho_gt_1
        assert (0, 0) in report.a2_offenders

    def test_colour_reach_consistency_follows_on_valid_graphs(self):
        for skel in (EXAMPLE_1, EXAMPLE_2, FIG2):
            report = check_assumptions(skel)
            assert report.all_pass
            assert report.per_colour_reach_consistent


class TestRestrictAndSplit:
    def test_restrict_nothing(self):
        assert restrict(EXAMPLE_1, set()) is EXAMPLE_1

    def test_restrict_example1_bottom(self):
        sub = restrict(EXAMPLE_1, {2})
        assert sub.vertex_labels == ("u", "v")
        assert sub.matrices == (((2, 2), (0, 4)), ((2, 1), (0, 3)))

    def test_restrict_example1_two_components(self):
        sub = restrict(EXAMPLE_1, {1, 2})
        assert sub.vertex_labels == ("u",)
        assert sub.matrices == (((2,),), ((2,),))

    def test_restrict_rejects_non_hereditary(self):
        with pytest.raises(ValueError, match="hereditary"):
            restrict(EXAMPLE_1, {0})

    def test_restriction_keeps_remaining_components(self):
        decomp = decompose(EXAMPLE_1)
        bottom = decomp.components[-1]
        assert is_hereditary(EXAMPLE_1, bottom)
        sub = restrict(EXAMPLE_1, bottom)
        sub_decomp = decompose(sub)
        remaining = [
            tuple(EXAMPLE_1.vertex_labels[v] for v in comp)
            for comp in decomp.components[:-1]
        ]
        got = [tuple(sub.vertex_labels[v] for v in comp) for comp in sub_decomp.components]
        assert got == remaining

    def test_split_connected_is_identity(self):
        assert split_isolated(EXAMPLE_1) == [EXAMPLE_1]

    def test_split_disjoint_loops(self):
        parts = split_isolated(TWO_LOOPS)
        assert [p.vertex_labels for p in parts] == [("a",), ("b",)]
        assert parts[0].matrices == (((2,),), ((2,),))

    def test_removing_shared_end_splits_feeders(self):
        # u and v both feed only from w; dropping w disconnects them.
        skel = skeleton(
            "uvw",
            [[2, 0, 1], [0, 3, 1], [0, 0, 5]],
            [[2, 0, 1], [0, 3, 1], [0, 0, 5]],
        )
        assert len(split_isolated(skel)) == 1
        sub = restrict(skel, {2})
        parts = split_isolated(sub)
        assert [p.vertex_labels for p in parts] == [("u",), ("v",)]

    def test_restriction_can_create_sources_when_assumptions_fail(self):
        # v is fed only from w in one colour; dropping w starves that row.
        skel = skeleton("vw", [[2, 1], [0, 3]], [[2, 1], [0, 3]])
        sub = restrict(skel, {1})
        assert not sub.has_sources
        lopsided = skeleton(
            "abc",
            [[2, 1, 0], [0, 0, 1], [0, 0, 2]],
            [[2, 1, 0], [0, 0, 1], [0, 0, 2]],
        )
        sub = restrict(lopsided, {2})
        assert sub.has_sources


class TestColourReachability:
    def test_per_colour_supports_match_on_dumbbells(self):
        from kgraphkms.dumbbell import make_dumbbell3, sample_commuting3

        for params in sample_commuting3(11, 40):
            skel = make_dumbbell3(params)
            report = check_assumptions(skel)
            if not report.all_pass:
                continue
            closures = [_digraph.transitive_closure(colour_support(skel, i)) for i in range(skel.k)]
            assert np.array_equal(closures[0], closures[1])
            decomp = decompose(skel)
            assert np.array_equal(decomp.colour_reach[0], decomp.colour_reach[1])


def assert_inherited(sub):
    """``sub`` and its inherited analysis equal a fresh build and a fresh analysis.

    Restrictions and pieces skip the constructor's commutation proof, so the
    fresh, fully checked ``Skeleton`` must accept them, equal them and find
    no commutation violation.
    """
    fresh = Skeleton(sub.vertex_labels, sub.matrices)
    assert sub == fresh
    assert all(np.array_equal(a, b) for a, b in zip(sub.as_arrays(), fresh.as_arrays()))
    assert RULE_COMMUTE not in rules(validate_skeleton(sub.vertex_labels, sub.matrices))
    got = analysed(sub)._analysis
    want = decompose(fresh)
    assert got.components == want.components
    assert got.radii == want.radii  # exact float equality
    assert got.brackets == want.brackets
    assert [x.tobytes() for x in got.vectors] == [x.tobytes() for x in want.vectors]
    assert not any(x.flags.writeable for x in got.vectors)
    assert np.array_equal(got.leq, want.leq)
    assert got.trivial == want.trivial
    assert got.irreducible == want.irreducible
    assert np.array_equal(vertex_reach(got), vertex_reach(want))
    for i in range(sub.k):
        assert np.array_equal(got.colour_reach[i], want.colour_reach[i])
        assert not got.colour_reach[i].flags.writeable


def assert_restrictions_inherit(skel):
    """Check every restriction, every split piece and every phase piece of ``skel``.

    Phase pieces are only checked where assumption a2 holds, since without
    it the dynamics of some piece may be undefined. Each of them carries its
    analysis, so ``assert_inherited`` checks the inherited one.
    """
    skel = analysed(skel)
    decomp = analysed(skel)._analysis
    subs = [restrict(skel, hereditary_closure(skel, comp)) for comp in decomp.components]
    subs += [piece for sub in subs for piece in split_isolated(sub)]
    if check_assumptions(skel).a2_irreducible_and_rho_gt_1:
        diag = phase_diagram(skel, normalize_dynamics(skel), allow_violations=True)
        subs += [p.skeleton for p in diag.pieces]
    for sub in subs:
        if sub.n:
            assert sub._analysis is not None
            assert_inherited(sub)


ANALYSIS_FIXTURES = [EXAMPLE_1, EXAMPLE_2, FIG2, TWO_LOOPS, NO_BRIDGE_COUNTEREXAMPLE]


class TestAnalysisInheritance:
    @pytest.mark.parametrize("skel", ANALYSIS_FIXTURES)
    def test_fixtures(self, skel):
        assert_restrictions_inherit(skel)

    def test_dumbbells(self):
        for params in sample_commuting3(5, 40):
            assert_restrictions_inherit(make_dumbbell3(params))

    @given(st.integers(1, 12), st.integers(0, 7))
    @settings(max_examples=25, deadline=None)
    def test_chains(self, n, offset):
        assert_restrictions_inherit(chain(n, offset))

    def test_pieces_of_passing_graphs_pass(self):
        graphs = [EXAMPLE_1, EXAMPLE_2, FIG2, chain(12, 0)]
        graphs += [make_dumbbell3(p) for p in sample_commuting3(6, 40)]
        for skel in graphs:
            if not check_assumptions(skel).all_pass:
                continue
            diag = phase_diagram(skel, normalize_dynamics(skel))
            for piece in diag.pieces:
                assert check_assumptions(piece.skeleton).all_pass

    def test_reachability_is_read_only(self):
        for decomp in (decompose(EXAMPLE_1), decompose(EXAMPLE_1).sliced([0, 1])):
            for relation in (decomp.leq, *decomp.colour_reach):
                assert not relation.flags.writeable
                with pytest.raises(ValueError):
                    relation[0, 0] = False

    @staticmethod
    def count_closures(monkeypatch) -> list:
        calls = []
        original = _digraph.transitive_closure

        def counting(adj):
            calls.append(adj.shape)
            return original(adj)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("kgraphkms") and getattr(module, "transitive_closure", None) is original:
                monkeypatch.setattr(module, "transitive_closure", counting)
        return calls

    def test_closure_count_on_chain12(self, monkeypatch):
        # The analysis normalize_dynamics makes closes the union condensation
        # and each colour's; phase_diagram reuses it, its assumption check
        # reads the colour closures off it, and every piece inherits the rest.
        skel = chain(12, 0)
        calls = self.count_closures(monkeypatch)
        phase_diagram(skel, normalize_dynamics(skel))
        assert len(calls) <= 1 + skel.k

    def test_closures_run_on_condensations(self, monkeypatch):
        # The 54-vertex product skeleton is one component, strongly
        # connected in each colour: every closure is of a 1x1 condensation.
        # Colour 1's support is the union support, so a decomposition closes
        # the union's condensation and colour 0's only.
        skel = product_skeleton()
        assert np.array_equal(colour_support(skel, 1), skel.union_support())
        assert not np.array_equal(colour_support(skel, 0), skel.union_support())
        calls = self.count_closures(monkeypatch)
        decompose(skel)
        assert calls == [(1, 1)] * 2
        skel = analysed(skel)
        check_assumptions(skel)
        check_spectral_ordering(skel, range(skel.n), 0)
        assert calls == [(1, 1)] * 4

    def test_no_analysis_outlives_a_call(self, monkeypatch):
        # Only the dynamics carries an analysis past a call, and only for the
        # skeleton object it was normalised on: an equal copy's dynamics or
        # one built by hand gets no reuse, so a cache kept on the skeleton
        # would show up as a missing decomposition.
        skel = chain(6, 1)
        dyn = normalize_dynamics(skel)
        twin_dyn = normalize_dynamics(chain(6, 1))
        calls = []
        original = components.decompose
        monkeypatch.setattr(components, "decompose", lambda s: calls.append(s) or original(s))
        for d, want in ((dyn, []), (twin_dyn, [skel, skel]), (replace(dyn, analysis=None), [skel, skel])):
            calls.clear()
            for _ in range(2):
                phase_diagram(skel, d)
            assert calls == want

    def test_repeated_passes_decompose_alike(self, monkeypatch):
        # An analysis kept on the skeleton between calls would make the
        # second pass cheaper than the first; the carried one makes every
        # pass free of decompositions.
        skel = chain(8, 1)
        dyn = normalize_dynamics(skel)
        twin_dyn = normalize_dynamics(chain(8, 1))
        calls = []
        original = components.decompose
        monkeypatch.setattr(components, "decompose", lambda s: calls.append(s) or original(s))
        for d, nonzero in ((dyn, False), (twin_dyn, True), (replace(dyn, analysis=None), True)):
            counts = []
            for _ in range(2):
                calls.clear()
                diagram = phase_diagram(skel, d)
                for beta in (0.95, 2.0):
                    extreme_states_at(skel, d, beta, diagram=diagram)
                extreme_states_at(skel, d, 0.95)
                counts.append(len(calls))
            assert counts[0] == counts[1]
            assert (counts[0] > 0) is nonzero
