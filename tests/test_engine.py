import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from kgraphkms import (
    AssumptionError,
    Dynamics,
    Skeleton,
    critical_components,
    extreme_states_at,
    kms1_extremes,
    normalize_dynamics,
    phase_diagram,
    psi_state,
    removal_set,
    restrict,
    supercritical_extremes,
    verify_state,
    verify_states,
)
from kgraphkms import components, engine
from kgraphkms.components import check_assumptions, decompose
from kgraphkms.dumbbell import make_dumbbell3, sample_commuting3
from kgraphkms.engine import KIND_COMPONENT, KIND_POINT_MASS, StateCheck
from kgraphkms.spectral import SOLVE_RESIDUAL_TOL, EigenConsistencyError

from conftest import chain, factors_through, product_skeleton, skeleton, state_set
from test_golden import FLOAT_RTOL

SINGLE = skeleton("v", [[2]], [[3]])

# Two components; loops (4,3) at v dominate (2,2) at w, bridge sizes forced
# by commutation: (2-2)p1 = (2-4)... built the other way: p=(2,1) satisfies
# (n2-m2)p1 = (n1-m1)p2 with m=(4,3), n=(2,2): (-1)*2 = (-2)*1.
TOP_CRITICAL = skeleton("vw", [[4, 2], [0, 2]], [[3, 1], [0, 2]])

# Two components; loops (3,3) at w dominate (2,2) at v.
BOTTOM_CRITICAL = skeleton("vw", [[2, 1], [0, 3]], [[2, 1], [0, 3]])

# One colour; b's root 10**6 sits within a thousand bands of a's critical
# 10**6 + 1. b feeds a, so the removal drops b as a feeder of the critical a.
NEAR_TIE_FEEDER = skeleton("ab", [[1000001, 1], [0, 1000000]])


class TestNormalize:
    def test_example1_preferred(self, ex1_dyn):
        assert ex1_dyn.r == (math.log(5), math.log(4))
        assert ex1_dyn.critical_colours == {0, 1}
        assert ex1_dyn.preferred
        assert ex1_dyn.normalization_factor == 1.0

    def test_example2_preferred(self, ex2_dyn):
        assert ex2_dyn.r == (math.log(11), math.log(13))

    def test_explicit_already_normalised(self):
        # Roots (2, 3); r = (2 ln 2, ln 3) has max ratio exactly 1, attained
        # only in colour 2, so only that colour is critical.
        dyn = normalize_dynamics(SINGLE, (2 * math.log(2), math.log(3)))
        assert dyn.normalization_factor == 1.0
        assert dyn.r == (2 * math.log(2), math.log(3))
        assert dyn.critical_colours == {1}
        assert not dyn.preferred

    def test_explicit_rescaled(self):
        dyn = normalize_dynamics(SINGLE, (1.0, 1.0))
        # factor = max(ln 2, ln 3) = ln 3; colour 2 becomes critical.
        assert dyn.normalization_factor == pytest.approx(math.log(3))
        assert dyn.critical_colours == {1}
        ratios = [lr / r for lr, r in zip(dyn.log_radii, dyn.r)]
        assert max(ratios) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            normalize_dynamics(SINGLE, (1.0, -1.0))
        with pytest.raises(ValueError):
            normalize_dynamics(SINGLE, (0.0, 1.0))

    def test_rescale_false_requires_normalised_input(self):
        with pytest.raises(ValueError, match="not normalised"):
            normalize_dynamics(SINGLE, (1.0, 1.0), rescale=False)
        dyn = normalize_dynamics(SINGLE, (math.log(2), math.log(3)), rescale=False)
        assert dyn.preferred

    def test_scaling_that_overflows_names_the_entry(self):
        three_loops = skeleton("a", [[3]])
        with pytest.raises(ValueError, match=r"entry 0 \(1e-320\).*overflows"):
            normalize_dynamics(three_loops, (1e-320,))
        # The factor is finite (ln 3 / 1e-10) but the first entry scaled by it is not.
        with pytest.raises(ValueError, match=r"entry 0 \(1e\+308\).*overflows"):
            normalize_dynamics(SINGLE, (1e308, 1e-10))
        assert normalize_dynamics(three_loops, (1e-300,)).r == pytest.approx((math.log(3),))


class TestNonFiniteInput:
    """The library refuses a non-finite inverse temperature or dynamics entry, as the CLI does."""

    @pytest.mark.parametrize("beta", [math.nan, math.inf], ids=["nan", "inf"])
    def test_extreme_states_at(self, ex1, ex1_dyn, beta):
        # NaN used to give no states, and infinity the states at 1, since
        # it ties every finite critical value.
        with pytest.raises(ValueError, match=f"inverse temperature must be a finite number above 0, got {beta!r}"):
            extreme_states_at(ex1, ex1_dyn, beta)

    def test_supercritical_extremes(self, ex1, ex1_dyn):
        with pytest.raises(ValueError, match="inverse temperature must be a finite number above 0, got nan"):
            supercritical_extremes(ex1, ex1_dyn, math.nan)

    def test_normalize_dynamics(self, ex1):
        with pytest.raises(ValueError, match="dynamics entry 0 must be a finite number above 0, got nan"):
            normalize_dynamics(ex1, r=(math.nan, 1.0))

    @pytest.mark.parametrize("r, j", [((True, 2.0), 0), ((1.0, np.True_), 1)], ids=["bool", "numpy-bool"])
    def test_normalize_dynamics_refuses_a_bool(self, ex1, r, j):
        # A bool is no number, as in ``parse_input``; True used to count as 1.0.
        with pytest.raises(ValueError, match=f"dynamics entry {j} must be a finite number above 0, got .*True"):
            normalize_dynamics(ex1, r=r)


class TestDynamicsAnalysis:
    """A dynamics carries the analysis of the skeleton object it was normalised on."""

    def test_equality_and_repr_ignore_the_analysis(self, ex1, ex1_dyn):
        by_hand = Dynamics(
            r=ex1_dyn.r,
            normalization_factor=1.0,
            rationally_independent=True,
            preferred=True,
            critical_colours=frozenset({0, 1}),
            log_radii=ex1_dyn.log_radii,
        )
        assert ex1_dyn.analysis[0] is ex1 and by_hand.analysis is None
        assert ex1_dyn == by_hand and hash(ex1_dyn) == hash(by_hand)
        assert repr(ex1_dyn) == repr(by_hand) == (
            "Dynamics(r=(1.6094379124341003, 1.3862943611198906), normalization_factor=1.0, "
            "rationally_independent=True, preferred=True, critical_colours=frozenset({0, 1}), "
            "log_radii=(1.6094379124341003, 1.3862943611198906))"
        )

    @pytest.mark.parametrize(
        "call",
        [
            lambda skel, dyn: phase_diagram(skel, dyn),
            lambda skel, dyn: extreme_states_at(skel, dyn, 2.0),
            lambda skel, dyn: removal_set(skel, dyn),
            lambda skel, dyn: kms1_extremes(skel, dyn),
        ],
        ids=["phase_diagram", "extreme_states_at", "removal_set", "kms1_extremes"],
    )
    def test_entry_points_reuse_it_for_the_same_skeleton_only(self, monkeypatch, call):
        skel = chain(6, 1)
        dyn = normalize_dynamics(skel)
        twin_dyn = normalize_dynamics(chain(6, 1))
        calls = []
        original = components.decompose
        monkeypatch.setattr(components, "decompose", lambda s: calls.append(s) or original(s))
        assert twin_dyn == dyn
        for d, want in ((dyn, []), (twin_dyn, [skel]), (replace(dyn, analysis=None), [skel])):
            calls.clear()
            call(skel, d)
            assert calls == want


class TestCriticality:
    def test_example1(self, ex1, ex1_dyn):
        crit = critical_components(ex1, ex1_dyn)
        assert crit.critical_colours_by_component == (frozenset(), frozenset(), {0, 1})

    def test_example2(self, ex2, ex2_dyn):
        crit = critical_components(ex2, ex2_dyn)
        assert crit.critical_colours_by_component == (frozenset(), {1}, {0})

    def test_single_component_critical_in_all_active_colours(self):
        dyn = normalize_dynamics(SINGLE)
        crit = critical_components(SINGLE, dyn)
        assert crit.critical_colours_by_component == ({0, 1},)

    def test_unnormalised_dynamics_rejected(self, ex1, ex2_dyn):
        with pytest.raises(ValueError, match="not normalised"):
            critical_components(ex1, ex2_dyn)

    def test_active_colours_follow_the_shared_rule_below_one(self):
        # r = (ln 2, ln 2 (1 + 1.2e-9)): colour 1 misses its ratio 1 by
        # 1.2e-9, but its log radius misses r_1 by 8.3e-10, inside the band
        # that is absolute below 1. Every decision takes the second view.
        skel = skeleton("a", [[2]], [[2]])
        dyn = normalize_dynamics(skel, (1.0, 1 + 1.2e-9))
        crit = critical_components(skel, dyn)
        assert dyn.critical_colours == crit.active_colours == {0, 1}
        assert dyn.preferred
        assert crit.critical_colours_by_component == ({0, 1},)
        assert [s.factors_through_ck for s in kms1_extremes(skel, dyn)] == [True]

    def test_near_tie_warns_by_vertex_labels(self):
        crit = critical_components(NEAR_TIE_FEEDER, normalize_dynamics(NEAR_TIE_FEEDER))
        assert crit.critical_colours_by_component == ({0}, frozenset())
        (warning,) = crit.warnings
        assert warning.startswith("component {b} colour 0: Perron root within 1.00e-06")


class TestRemoval:
    def test_example1_nothing_to_remove(self, ex1, ex1_dyn):
        assert removal_set(ex1, ex1_dyn) == frozenset()

    def test_top_critical_removes_hereditary_end(self):
        dyn = normalize_dynamics(TOP_CRITICAL)
        assert removal_set(TOP_CRITICAL, dyn) == frozenset({1})

    def test_all_hereditary_critical_removes_nothing(self, ex2, ex2_dyn):
        assert removal_set(ex2, ex2_dyn) == frozenset()


class TestPsiState:
    def test_example1(self, ex1, ex1_dyn):
        state = psi_state(ex1, ex1_dyn, (2,))
        assert state.m == pytest.approx((0.5, 0.0, 0.5), abs=1e-12)
        assert state.kind == KIND_COMPONENT
        assert state.factors_through_ck

    def test_example2_does_not_factor(self, ex2, ex2_dyn):
        state_v = psi_state(ex2, ex2_dyn, (1,))
        assert state_v.m == pytest.approx((1 / 6, 5 / 6, 0.0), abs=1e-12)
        assert not state_v.factors_through_ck
        state_w = psi_state(ex2, ex2_dyn, (2,))
        assert state_w.m == pytest.approx((1 / 7, 0.0, 6 / 7), abs=1e-12)
        assert not state_w.factors_through_ck

    def test_support_excludes_unreached_vertices(self, ex2, ex2_dyn):
        state = psi_state(ex2, ex2_dyn, (2,))
        # Vertex v cannot receive a path from w, so it carries no weight.
        assert state.m[1] == 0.0

    def test_factoring_flag_matches_direct_check(self, ex1, ex1_dyn, ex2, ex2_dyn):
        for skel, dyn, comp in ((ex1, ex1_dyn, (2,)), (ex2, ex2_dyn, (1,)), (ex2, ex2_dyn, (2,))):
            state = psi_state(skel, dyn, comp)
            assert state.factors_through_ck == factors_through(skel, dyn, 1.0, state.m)


class TestSupercritical:
    def test_example1_quotient_at_one(self, ex1, ex1_dyn):
        from kgraphkms import restrict

        quotient = restrict(ex1, {2})
        states = supercritical_extremes(quotient, ex1_dyn, 1.0)
        assert state_set(states) == sorted(
            [(1.0, 0.0), (round(5 / 11, 9), round(6 / 11, 9))]
        )

    def test_states_in_a_larger_frame(self, ex1, ex1_dyn):
        from kgraphkms import restrict

        quotient = restrict(ex1, {2})
        own = supercritical_extremes(quotient, ex1_dyn, 1.5, depth=2)
        placed = supercritical_extremes(quotient, ex1_dyn, 1.5, depth=2, frame=(2, 0), size=3)
        assert [tuple(s.m) for s in placed] == [(m[1], 0.0, m[0]) for m in (s.m for s in own)]
        assert [(s.beta, s.anchor, s.depth) for s in placed] == [(s.beta, s.anchor, s.depth) for s in own]

    def test_single_vertex(self):
        dyn = normalize_dynamics(SINGLE)
        for beta in (1.5, 3.0, 10.0):
            (state,) = supercritical_extremes(SINGLE, dyn, beta)
            assert state.m == (1.0,)
            assert state.kind == KIND_POINT_MASS

    def test_full_graph_above_criticality(self, ex1, ex1_dyn):
        states = supercritical_extremes(ex1, ex1_dyn, 1.5)
        assert len(states) == 3
        for s in states:
            assert verify_state(ex1, ex1_dyn, 1.5, s.m).passed
            assert not factors_through(ex1, ex1_dyn, 1.5, s.m)

    def test_rejects_critical_beta(self, ex1, ex1_dyn):
        with pytest.raises(ValueError, match="criticality"):
            supercritical_extremes(ex1, ex1_dyn, 1.0)

    @pytest.mark.parametrize(
        "frame, size",
        [
            ([0, 1, 2], 0),
            ([0, 0, 0], 3),
            ([0, 1], 3),
            ([0, 1, 3], 3),
            ([-1, 0, 1], 3),
            ([0.0, 1.0, 2.0], 3),
            ([True, 0, 2], 3),
        ],
        ids=["no-size", "repeated", "short", "beyond-size", "negative", "floats", "bool"],
    )
    def test_rejects_a_frame_that_is_not_one_index_per_vertex(self, ex1, ex1_dyn, frame, size):
        # A repeated index used to give states whose weights summed to 0, a
        # missing size an IndexError, and True placed a vertex at index 1.
        with pytest.raises(ValueError, match=rf"frame must hold 3 distinct vertex indices in range\({size}\)"):
            supercritical_extremes(ex1, ex1_dyn, 1.5, frame=frame, size=size)

    @pytest.mark.parametrize(
        "frame, passes",
        [([0, 1, 2], True), ([4, 0, 2], True), ([0, 0, 2], False), ([0, 1], False), ([0, 1, 5], False), ([-1, 0, 1], False)],
    )
    def test_an_integer_array_frame_is_checked_like_a_list(self, ex1, ex1_dyn, frame, passes):
        for given_ in (frame, np.array(frame, dtype=np.intp)):
            if passes:
                states = supercritical_extremes(ex1, ex1_dyn, 1.5, frame=given_, size=5)
                own = supercritical_extremes(ex1, ex1_dyn, 1.5)
                assert [s.m.tolist() for s in states] == [np.bincount(frame, s.m, 5).tolist() for s in own]
            else:
                with pytest.raises(ValueError, match=r"frame must hold 3 distinct vertex indices in range\(5\)"):
                    supercritical_extremes(ex1, ex1_dyn, 1.5, frame=given_, size=5)

    @pytest.mark.parametrize("beta", (1.001, 1.0001))
    def test_solves_just_above_a_critical_value(self, beta):
        # Graph 286 of sample_commuting3(953683294, 400). Just above beta = 1
        # the solutions reach 6e10, so an absolute residual bound of 1e-10
        # rejected correct solves; the backward error is still tiny.
        skel = skeleton("uvw", [[2, 9, 1], [0, 2, 9], [0, 0, 2]], [[9, 6, 6], [0, 9, 6], [0, 0, 9]])
        dyn = normalize_dynamics(skel)
        states = supercritical_extremes(skel, dyn, beta)
        assert len(states) == 3
        for s in states:
            assert verify_state(skel, dyn, beta, s.m).passed


    @pytest.mark.parametrize("beta", (1.3, 1.001))
    def test_stacked_solves_match_a_per_vertex_loop(self, beta):
        # One factorisation per colour rounds differently from solving the
        # vertices one by one, so the states agree to the report tolerance
        # of the golden check, and each is backward stable.
        for skel in passing_dumbbells() + [chain(12, 0), product_skeleton()]:
            dyn = normalize_dynamics(skel)
            states = supercritical_extremes(skel, dyn, beta)
            reference = per_vertex_reference(skel, dyn, beta)
            for state, want in zip(states, reference, strict=True):
                for got, ref in zip(state.m, want, strict=True):
                    assert abs(got - ref) <= FLOAT_RTOL * max(abs(got), abs(ref))
            assert_backward_stable(skel, dyn, beta, states)


def passing_dumbbells():
    graphs = [make_dumbbell3(p) for p in sample_commuting3(5, 40)]
    return [g for g in graphs if check_assumptions(g).all_pass]


def factors_at(skel, dyn, beta):
    return [np.eye(skel.n) - math.exp(-beta * r) * a for r, a in zip(dyn.r, skel.as_arrays())]


def per_vertex_reference(skel, dyn, beta):
    """Point-mass states solved one vertex and one colour at a time."""
    out = []
    for v in range(skel.n):
        vec = np.zeros(skel.n)
        vec[v] = 1.0
        for factor in factors_at(skel, dyn, beta):
            vec = np.linalg.solve(factor, vec)
        out.append(tuple(float(t) for t in vec / vec.sum()))
    return out


def assert_backward_stable(skel, dyn, beta, states):
    """Vertex v's state m has ``prod_i F_i m`` a multiple of the point mass at v.

    The off-diagonal remainder is bounded by the normwise backward-error
    bound of the solves, taken over the whole product.
    """
    factors = factors_at(skel, dyn, beta)
    norm = math.prod(float(np.abs(f).sum(axis=1).max()) for f in factors)
    for v, state in enumerate(states):
        m = np.array(state.m)
        image = m
        for factor in factors:
            image = factor @ image
        remainder = image.copy()
        remainder[v] = 0.0
        assert np.abs(remainder).max() <= SOLVE_RESIDUAL_TOL * norm * np.abs(m).max()


class TestBatchVerification:
    GRAPHS = [("dumbbell", g) for g in passing_dumbbells()] + [
        ("chain-12", chain(12, 0)),
        ("product", product_skeleton()),
    ]

    @staticmethod
    def batches(skel, dyn):
        """(beta, rows, valid): supercritical and critical states, and copies moved by 1e-6."""
        rows = np.array([s.m for s in supercritical_extremes(skel, dyn, 1.3)])
        yield 1.3, rows, True
        diagram = phase_diagram(skel, dyn)
        for beta, states in zip(diagram.critical_betas, diagram.critical_points):
            yield beta, np.array([s.m for s in states]), True
        shifted = rows.copy()
        shifted[:, 0] += 1e-6
        yield 1.3, shifted, False
        moved = rows.copy()
        moved[:, 0] -= 1e-6
        moved[:, -1] += 1e-6
        yield 1.3, moved, False

    @pytest.mark.parametrize("name,skel", GRAPHS, ids=[n for n, _ in GRAPHS])
    def test_batch_agrees_with_one_state_at_a_time(self, name, skel):
        dyn = normalize_dynamics(skel)
        for beta, rows, valid in self.batches(skel, dyn):
            checks = verify_states(skel, dyn, beta, rows)
            assert len(checks) == len(rows)
            for row, check in zip(rows, checks):
                single = verify_state(skel, dyn, beta, row)
                assert check.passed == single.passed == valid
                for field in ("l1_error", "min_entry", "colour_violation", "product_violation"):
                    assert abs(getattr(check, field) - getattr(single, field)) <= 1e-12

    @pytest.mark.parametrize("name,skel", GRAPHS, ids=[n for n, _ in GRAPHS])
    def test_certification_builds_a_check_only_for_the_first_failure(self, name, skel, monkeypatch):
        # Certification decides on the margin arrays and names the first
        # failing row with the check verify_states reports for it.
        dyn = normalize_dynamics(skel)
        cases = [(*batch, verify_states(skel, dyn, *batch[:2])) for batch in self.batches(skel, dyn)]
        built = []
        monkeypatch.setattr(engine, "StateCheck", lambda *fields: built.append(fields) or StateCheck(*fields))
        for beta, rows, valid, checks in cases:
            built.clear()
            if valid:
                engine._certify(skel.as_arrays(), dyn, beta, rows, str)
                assert built == []
                continue
            first = next(j for j, check in enumerate(checks) if not check.passed)
            with pytest.raises(EigenConsistencyError) as raised:
                engine._certify(skel.as_arrays(), dyn, beta, rows, lambda j: f"row {j}")
            assert str(raised.value) == f"row {first}: constructed state fails verification: {checks[first]}"
            assert len(built) == 1

    def test_shapes(self, ex1, ex1_dyn):
        assert verify_states(ex1, ex1_dyn, 1.5, []) == ()
        with pytest.raises(ValueError, match="shape"):
            verify_states(ex1, ex1_dyn, 1.5, np.ones((2, 2)))
        with pytest.raises(ValueError, match="length 2"):
            verify_state(ex1, ex1_dyn, 1.5, (0.5, 0.5))


class TestDiagramAnalyses:
    def test_evaluating_a_diagram_decomposes_nothing(self, monkeypatch):
        calls = []
        original = components.decompose
        monkeypatch.setattr(components, "decompose", lambda s: calls.append(s) or original(s))
        for skel, betas in ((chain(12, 0), (0.9, 0.75, 2.0)), (product_skeleton(), (1.3, 4.0))):
            dyn = normalize_dynamics(skel)
            diagram = phase_diagram(skel, dyn)
            calls.clear()
            for beta in betas:
                assert all(abs(beta - b) > 1e-3 for b in diagram.critical_betas)
                assert extreme_states_at(skel, dyn, beta, diagram=diagram)
            assert calls == []

    def test_pieces_carry_their_analysis(self):
        skel = chain(8, 1)
        diagram = phase_diagram(skel, normalize_dynamics(skel))
        for piece in diagram.pieces:
            fresh = decompose(piece.skeleton)
            assert piece.skeleton._analysis == fresh
            assert np.array_equal(piece.skeleton._analysis.leq, fresh.leq)
            assert "analysis" not in repr(piece)

    def test_a_skeleton_cut_from_another_is_its_own_frame(self):
        # A loop vertex x before chain-8, apart from it: dropping x leaves
        # the chain at indices 1..8 of its root, and the positions of its
        # pieces in it are found from those indices.
        fresh = chain(8, 0)
        blocks = [np.pad(np.array(m), ((1, 0), (1, 0))) + np.diag([3] + [0] * 8) for m in fresh.matrices]
        rest = restrict(Skeleton(("x", *fresh.vertex_labels), [b.tolist() for b in blocks]), {0})
        assert rest._frame[1].tolist() == list(range(1, 9))
        got, want = (phase_diagram(s, normalize_dynamics(s)) for s in (rest, fresh))
        assert [p.vertices for p in got.pieces] == [p.vertices for p in want.pieces]
        assert [p.skeleton for p in got.pieces] == [p.skeleton for p in want.pieces]
        assert got.critical_points == want.critical_points and len(got.pieces) == 8
        for skel in (rest, fresh):
            dyn = normalize_dynamics(skel)
            assert kms1_extremes(skel, dyn) == want.critical_points[0]
            states = extreme_states_at(skel, dyn, 0.9, diagram=phase_diagram(skel, dyn))
            assert states == extreme_states_at(fresh, dyn, 0.9) and len(states) == 5


class TestDiagramMatch:
    """``extreme_states_at`` evaluates a diagram only for the skeleton labels and ``r`` it was computed for."""

    def test_other_labels_are_refused(self, ex1, ex1_dyn):
        # These states used to come back in ex1's three-vertex frame.
        diagram = phase_diagram(ex1, ex1_dyn)
        with pytest.raises(ValueError, match="diagram was computed for other vertex labels or another dynamics"):
            extreme_states_at(TOP_CRITICAL, normalize_dynamics(TOP_CRITICAL), 1.5, diagram=diagram)
        relabelled = Skeleton(("a", "b", "c"), ex1.matrices)
        with pytest.raises(ValueError, match="diagram was computed for other vertex labels"):
            extreme_states_at(relabelled, ex1_dyn, 1.5, diagram=diagram)

    def test_another_dynamics_is_refused(self, ex1, ex1_dyn, ex2, ex2_dyn):
        with pytest.raises(ValueError, match="another dynamics vector r"):
            extreme_states_at(ex2, ex2_dyn, 1.5, diagram=phase_diagram(ex1, ex1_dyn))

    def test_another_skeleton_is_refused(self, ex1, ex1_dyn, ex2):
        # ex2 has ex1's labels, so with ex1's dynamics vector it used to get
        # ex1's states. The comparison builds no nested-tuple matrices.
        other = Skeleton(ex2.vertex_labels, ex2.matrices)
        with pytest.raises(ValueError, match="diagram was computed for a skeleton with other colour matrices"):
            extreme_states_at(other, ex1_dyn, 1.5, diagram=phase_diagram(ex1, ex1_dyn))
        assert "matrices" not in vars(other)

    def test_its_own_skeleton_and_dynamics_are_accepted(self, ex1, ex1_dyn):
        diagram = phase_diagram(ex1, ex1_dyn)
        twin = Skeleton(ex1.vertex_labels, ex1.matrices)
        assert extreme_states_at(twin, ex1_dyn, 1.5, diagram=diagram) == extreme_states_at(ex1, ex1_dyn, 1.5)
        assert "matrices" not in vars(twin)


class TestEmptySkeleton:
    """A skeleton without vertices has no states; the entry points say so."""

    EMPTY = Skeleton((), ((), ()))

    @pytest.mark.parametrize("allow_violations", [False, True])
    def test_phase_diagram(self, ex1_dyn, allow_violations):
        # It used to end in an IndexError while assembling no critical values.
        with pytest.raises(ValueError, match="the skeleton is empty"):
            phase_diagram(self.EMPTY, ex1_dyn, allow_violations)

    def test_extreme_states_at(self, ex1, ex1_dyn):
        with pytest.raises(ValueError, match="the skeleton is empty"):
            extreme_states_at(self.EMPTY, ex1_dyn, 1.5)
        with pytest.raises(ValueError, match="diagram was computed for other vertex labels"):
            extreme_states_at(self.EMPTY, ex1_dyn, 1.5, diagram=phase_diagram(ex1, ex1_dyn))

    @pytest.mark.parametrize("call", [kms1_extremes, removal_set], ids=["kms1_extremes", "removal_set"])
    def test_kms1_and_removal(self, ex1_dyn, call):
        # Both used to ask whether the dynamics is normalised.
        with pytest.raises(ValueError, match="the skeleton is empty"):
            call(self.EMPTY, ex1_dyn)

    def test_supercritical_states(self, ex1_dyn):
        assert supercritical_extremes(self.EMPTY, ex1_dyn, 1.5) == ()


class TestKms1:
    def test_example1_exact_simplex(self, ex1, ex1_dyn):
        states = kms1_extremes(ex1, ex1_dyn)
        expected = [
            (0.5, 0.0, 0.5),
            (round(5 / 11, 9), round(6 / 11, 9), 0.0),
            (1.0, 0.0, 0.0),
        ]
        assert state_set(states) == sorted(expected)

    def test_example2_exact_simplex(self, ex2, ex2_dyn):
        states = kms1_extremes(ex2, ex2_dyn)
        expected = [
            (round(1 / 6, 9), round(5 / 6, 9), 0.0),
            (round(1 / 7, 9), 0.0, round(6 / 7, 9)),
            (1.0, 0.0, 0.0),
        ]
        assert state_set(states) == sorted(expected)

    def test_strongly_connected_graph_has_unique_state(self):
        skel = skeleton("ab", [[1, 1], [1, 1]], [[2, 2], [2, 2]])
        dyn = normalize_dynamics(skel)
        states = kms1_extremes(skel, dyn)
        assert len(states) == 1
        assert states[0].m == pytest.approx((0.5, 0.5), abs=1e-12)
        assert states[0].factors_through_ck

    def test_multi_vertex_critical_component(self):
        # Two-vertex hereditary component with commuting irreducible 2x2
        # blocks (both Perron roots 3, shared even eigenvector), fed by a
        # single looped vertex. Extension weight: (3-2)^-1 * (1,1).(1/2,1/2)
        # = 1, so the component state is (1/2, 1/4, 1/4).
        skel = skeleton(
            "abc",
            [[2, 1, 1], [0, 1, 2], [0, 2, 1]],
            [[2, 1, 1], [0, 2, 1], [0, 1, 2]],
        )
        dyn = normalize_dynamics(skel)
        assert dyn.r == (math.log(3), math.log(3))
        states = kms1_extremes(skel, dyn)
        assert state_set(states) == sorted([(0.5, 0.25, 0.25), (1.0, 0.0, 0.0)])
        diag = phase_diagram(skel, dyn)
        assert diag.critical_betas == pytest.approx((1.0, math.log(2) / math.log(3)))

    def test_single_colour_graph(self):
        # Rank-1 input: one matrix, two components, bottom one critical.
        skel = skeleton("vw", [[2, 1], [0, 3]])
        dyn = normalize_dynamics(skel)
        assert dyn.r == (math.log(3),)
        states = kms1_extremes(skel, dyn)
        assert state_set(states) == sorted([(0.5, 0.5), (1.0, 0.0)])
        diag = phase_diagram(skel, dyn)
        assert diag.critical_betas == pytest.approx((1.0, math.log(2) / math.log(3)))
        assert [len(s) for s in diag.critical_points] == [2, 1]

    def test_assumption_violations_raise(self):
        two_loops = skeleton("ab", [[2, 0], [0, 3]], [[2, 0], [0, 3]])
        dyn = normalize_dynamics(two_loops)
        with pytest.raises(AssumptionError):
            kms1_extremes(two_loops, dyn)
        states = kms1_extremes(two_loops, dyn, allow_violations=True)
        assert len(states) == 2

    def test_dimension_count_with_hereditary_criticals(self, ex1, ex1_dyn, ex2, ex2_dyn):
        for skel, dyn in ((ex1, ex1_dyn), (ex2, ex2_dyn), (BOTTOM_CRITICAL, normalize_dynamics(BOTTOM_CRITICAL))):
            decomp = decompose(skel)
            crit = critical_components(skel, dyn)
            crit_sets = [decomp.components[c] for c in crit.critical_indices()]
            covered = {v for comp in crit_sets for v in comp}
            states = kms1_extremes(skel, dyn)
            assert len(states) == (skel.n - len(covered)) + len(crit_sets)


class TestPhase:
    def test_example1_full_structure(self, ex1, ex1_dyn):
        diag = phase_diagram(ex1, ex1_dyn)
        expected = (1.0, math.log(4) / math.log(5), math.log(2) / math.log(4))
        assert diag.critical_betas == pytest.approx(expected, abs=1e-12)
        assert [len(s) for s in diag.critical_points] == [3, 2, 1]
        assert [iv.extreme_count for iv in diag.intervals] == [3, 2, 1]
        assert math.isinf(diag.intervals[0].hi)
        assert diag.terminal_beta == pytest.approx(0.5, abs=1e-15)
        assert diag.symbolic_betas == ("1", "ln(4)/ln(5)", "ln(2)/ln(4)")

    def test_example1_counts_between_criticals(self, ex1, ex1_dyn):
        diag = phase_diagram(ex1, ex1_dyn)
        for beta, count in ((2.0, 3), (1.0, 3), (0.95, 2), (0.8613531161467861, 2), (0.7, 1), (0.5, 1), (0.49, 0)):
            assert len(extreme_states_at(ex1, ex1_dyn, beta, diagram=diag)) == count

    def test_example2_structure(self, ex2, ex2_dyn):
        diag = phase_diagram(ex2, ex2_dyn)
        assert diag.critical_betas == pytest.approx(
            (1.0, math.log(5) / math.log(11)), abs=1e-12
        )
        assert [len(s) for s in diag.critical_points] == [3, 1]
        assert len(extreme_states_at(ex2, ex2_dyn, 0.8, diagram=diag)) == 1
        assert len(extreme_states_at(ex2, ex2_dyn, 0.5, diagram=diag)) == 0

    def test_single_vertex_graph_collapses_immediately(self):
        dyn = normalize_dynamics(SINGLE)
        diag = phase_diagram(SINGLE, dyn)
        assert diag.critical_betas == (1.0,)
        assert [len(s) for s in diag.critical_points] == [1]
        assert diag.critical_points[0][0].m == (1.0,)
        assert diag.terminal_beta == 1.0
        assert extreme_states_at(SINGLE, dyn, 0.9, diagram=diag) == ()

    def test_nesting_depth_is_not_bounded_by_the_recursion_limit(self):
        # Chain-64's pieces nest 64 deep. A removal recursion with one call
        # per level would need more than 60 frames beyond this one.
        skel = chain(64, 0)
        dyn = normalize_dynamics(skel)
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 60)
        try:
            diag = phase_diagram(skel, dyn)
        finally:
            sys.setrecursionlimit(limit)
        assert max(p.depth for p in diag.pieces) == 63
        assert sum(map(len, diag.critical_points)) == 64 * 65 // 2

    def test_betas_strictly_decreasing_and_counts_weakly_decreasing(self, ex1, ex1_dyn, ex2, ex2_dyn):
        for skel, dyn in ((ex1, ex1_dyn), (ex2, ex2_dyn)):
            diag = phase_diagram(skel, dyn)
            assert all(a > b for a, b in zip(diag.critical_betas, diag.critical_betas[1:]))
            counts = []
            for iv, b in zip(diag.intervals, diag.critical_betas):
                counts.append(iv.extreme_count)
                counts.append(len(diag.critical_points[diag.critical_betas.index(b)]))
            assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_every_emitted_state_verifies(self, ex1, ex1_dyn, ex2, ex2_dyn):
        for skel, dyn in ((ex1, ex1_dyn), (ex2, ex2_dyn)):
            diag = phase_diagram(skel, dyn)
            for beta, states in zip(diag.critical_betas, diag.critical_points):
                for s in states:
                    assert verify_state(skel, dyn, beta, s.m, tol=1e-9).passed

    def test_a_negative_point_mass_is_named(self, ex1, ex1_dyn, monkeypatch):
        # Spoil only the critical-value rows (beta 1 on each piece's own
        # dynamics): the sweep's later supercritical evaluations certify
        # their own rows and would raise on their own.
        original = engine._point_masses

        def spoiled(skel, arrays, dyn, beta):
            rows = original(skel, arrays, dyn, beta)
            if beta == 1.0 and skel.n > 1:
                rows = rows.copy()
                rows[0, 0] -= 2.0
                rows[0, 1] += 2.0
            return rows

        monkeypatch.setattr(engine, "_point_masses", spoiled)
        # The first piece's quotient is {u, v}: row 0 is u's point mass.
        with pytest.raises(EigenConsistencyError, match=r"^point-mass state at u: constructed state fails"):
            phase_diagram(ex1, ex1_dyn)

    def test_a_negative_component_state_is_named(self, ex1, ex1_dyn, monkeypatch):
        original = engine._extension

        def spoiled(skel, component):
            z, d, *rest = original(skel, component)
            # Move twice the total weight off the component's first vertex.
            others = [v for v in range(skel.n) if v not in d]
            if others:
                z = z.copy()
                z[[d[0], others[0]]] += (-2 * z.sum(), 2 * z.sum())
            return (z, d, *rest)

        monkeypatch.setattr(engine, "_extension", spoiled)
        # The first piece is all of ex1, whose one minimal critical component is {w}.
        with pytest.raises(EigenConsistencyError, match=r"^component state for \('w',\): constructed state fails"):
            phase_diagram(ex1, ex1_dyn)

    def test_source_creating_quotient_flagged_not_fatal(self):
        # The middle vertex has no loop and is fed only from the critical
        # end, so its connectivity assumptions fail; with violations allowed
        # the sweep still runs and flags the starved quotient.
        skel = skeleton(
            "abc",
            [[2, 1, 0], [0, 0, 1], [0, 0, 3]],
            [[2, 1, 0], [0, 0, 1], [0, 0, 3]],
        )
        dyn = normalize_dynamics(skel)
        with pytest.raises(AssumptionError):
            phase_diagram(skel, dyn)
        diag = phase_diagram(skel, dyn, allow_violations=True)
        assert diag.pieces[0].critical_states  # root still produces states
        starved = [p for p in diag.pieces if p.sources_present]
        assert starved and starved[0].depth == 1
        for beta, states in zip(diag.critical_betas, diag.critical_points):
            for s in states:
                assert verify_state(skel, dyn, beta, s.m).passed

    def test_split_recursion(self):
        # u and v feed only from w; below the first critical value the two
        # survivors evolve independently with distinct critical values.
        skel = skeleton(
            "uvw",
            [[2, 0, 1], [0, 3, 1], [0, 0, 5]],
            [[2, 0, 1], [0, 3, 1], [0, 0, 5]],
        )
        dyn = normalize_dynamics(skel, (1.0, 1.0))
        diag = phase_diagram(skel, dyn)
        expected = (1.0, math.log(3) / math.log(5), math.log(2) / math.log(5))
        assert diag.critical_betas == pytest.approx(expected, abs=1e-12)
        # At the middle critical value: the v-piece is critical (1 state),
        # the u-piece is still supercritical (1 state).
        assert [len(s) for s in diag.critical_points] == [3, 2, 1]

    def test_removed_feeder_keeps_its_near_tie_warning(self):
        # The piece decides criticality once, before b is removed, so its
        # warnings are those of the piece itself.
        dyn = normalize_dynamics(NEAR_TIE_FEEDER)
        diag = phase_diagram(NEAR_TIE_FEEDER, dyn)
        assert removal_set(NEAR_TIE_FEEDER, dyn) == {1}
        assert [p.warnings for p in diag.pieces] == [critical_components(NEAR_TIE_FEEDER, dyn).warnings]
        assert diag.pieces[0].warnings

    def test_critical_values_equal_up_to_rounding_merge(self):
        # x and the block {y1, y2} both have Perron root 4 in both colours,
        # but the block's root comes from power iteration and differs in
        # the last bits, so its critical value ln4/ln5 did too.
        a1 = [[5, 0, 0, 0], [0, 4, 0, 0], [0, 0, 2, 1], [0, 0, 4, 2]]
        a2 = [[7, 0, 0, 0], [0, 4, 0, 0], [0, 0, 2, 1], [0, 0, 4, 2]]
        skel = Skeleton(("z", "x", "y1", "y2"), (a1, a2))
        dyn = normalize_dynamics(skel)
        diag = phase_diagram(skel, dyn, allow_violations=True)
        assert diag.critical_betas == pytest.approx((1.0, math.log(4) / math.log(5)), abs=1e-12)
        assert diag.symbolic_betas == ("1", "ln(4)/ln(5)")
        assert [len(s) for s in diag.critical_points] == [4, 2]
        assert [iv.extreme_count for iv in diag.intervals] == [4, 3]
        for beta, states in zip(diag.critical_betas, diag.critical_points):
            assert all(s.beta == beta for s in states)


class TestStateStorage:
    """States are rows of read-only float64 blocks, and pieces keep no float matrices."""

    @pytest.fixture(scope="class")
    def chain20(self):
        skel = chain(20, 0)
        dyn = normalize_dynamics(skel)
        return skel, dyn, phase_diagram(skel, dyn)

    def test_a_pieces_states_at_one_beta_are_views_of_one_block(self, chain20):
        skel, dyn, diagram = chain20
        batches = [p.critical_states for p in diagram.pieces]
        batches += [supercritical_extremes(p.skeleton, dyn, 7.0, frame=p.vertices, size=skel.n) for p in diagram.pieces]
        for states in batches:
            block = states[0].m.base
            assert all(s.m.base is block for s in states)
            assert block.shape == (len(states), skel.n) and block.dtype == np.float64
            assert not block.flags.writeable

    def test_writing_to_a_state_raises(self, chain20, ex1, ex1_dyn):
        _, _, diagram = chain20
        for state in (diagram.critical_points[0][0], psi_state(ex1, ex1_dyn, (2,))):
            with pytest.raises(ValueError, match="read-only"):
                state.m[0] = 0.5

    def test_only_the_root_piece_keeps_float_matrices(self, chain20):
        skel, dyn, diagram = chain20
        extreme_states_at(skel, dyn, 2.0, diagram=diagram)
        assert "_float_arrays" in vars(diagram.pieces[0].skeleton)
        assert [p.vertices for p in diagram.pieces[1:] if "_float_arrays" in vars(p.skeleton)] == []
        # A piece's float matrices are its root's, cut on demand.
        piece = diagram.pieces[5].skeleton
        want = [np.array(m, dtype=float) for m in piece.matrices]
        assert all(np.array_equal(a, b) and not a.flags.writeable for a, b in zip(piece.as_arrays(), want))

    def test_equality_and_hashing_are_by_value(self, chain20):
        skel, dyn, diagram = chain20
        state = diagram.critical_points[-1][0]
        twin = replace(state, m=np.array(state.m.tolist()))
        assert twin == state and hash(twin) == hash(state)
        as_tuple = (state.beta, tuple(state.m.tolist()), state.kind, state.anchor, state.depth, state.factors_through_ck)
        assert hash(state) == hash(as_tuple)
        assert replace(state, m=state.m[::-1]) != state
        assert state in set(diagram.critical_points[-1])
        assert state != as_tuple
        assert phase_diagram(skel, dyn) == diagram


class TestVerifyState:
    def test_constructed_state_passes(self, ex1, ex1_dyn):
        state = psi_state(ex1, ex1_dyn, (2,))
        assert verify_state(ex1, ex1_dyn, 1.0, state.m).passed

    def test_point_mass_on_middle_vertex_fails_product(self, ex1, ex1_dyn):
        check = verify_state(ex1, ex1_dyn, 1.0, (0.0, 1.0, 0.0))
        assert not check.passed
        # Direct 3x3 arithmetic. Product gap: (1 - A1/5)(1 - A2/4) applied
        # to (0,1,0) gives -1/4 at u. Colour gap: (A1 m - 5m) at u is 2.
        assert check.product_violation == pytest.approx(0.25, abs=1e-12)
        assert check.colour_violation == pytest.approx(2.0, abs=1e-12)

    def test_uniform_far_above_criticality(self, ex1, ex1_dyn):
        m = (1 / 3, 1 / 3, 1 / 3)
        assert verify_state(ex1, ex1_dyn, 10.0, m).passed

    def test_norm_and_sign_checks(self, ex1, ex1_dyn):
        assert not verify_state(ex1, ex1_dyn, 1.0, (0.5, 0.0, 0.0)).passed
        assert not verify_state(ex1, ex1_dyn, 1.0, (1.5, 0.0, -0.5)).passed


class TestFactorsThrough:
    def test_supercritical_states_never_factor(self, ex1, ex1_dyn):
        for s in supercritical_extremes(ex1, ex1_dyn, 1.7):
            assert not factors_through(ex1, ex1_dyn, 1.7, s.m)

    def test_unique_state_of_connected_graph_factors(self):
        skel = skeleton("ab", [[1, 1], [1, 1]], [[2, 2], [2, 2]])
        dyn = normalize_dynamics(skel)
        (state,) = kms1_extremes(skel, dyn)
        assert factors_through(skel, dyn, 1.0, state.m)

    def test_partial_eigen_gap_is_not_enough(self, ex2, ex2_dyn):
        # The colour-2 factor annihilates this state's vector, so the
        # product gap vanishes, yet colour 1 is strictly subcritical on it:
        # the state must not be reported as factoring.
        state = psi_state(ex2, ex2_dyn, (1,))
        vec = np.array(state.m)
        arrays = ex2.as_arrays()
        product_gap = vec.copy()
        for i in range(2):
            product_gap = product_gap - math.exp(-ex2_dyn.r[i]) * (arrays[i] @ product_gap)
        assert float(np.max(np.abs(product_gap))) <= 1e-12
        assert not factors_through(ex2, ex2_dyn, 1.0, state.m)
