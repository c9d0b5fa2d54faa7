import json
import math
import random
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

from kgraphkms import (
    _digraph,
    check_spectral_ordering,
    common_pf_eigenvector,
    components,
    critical_components,
    decompose,
    extend_eigenvector,
    extreme_states_at,
    normalize_dynamics,
    phase_diagram,
    spectral,
    spectral_radius,
)
from kgraphkms.dumbbell import commutation_gaps_3, make_dumbbell2, make_dumbbell3, sample_commuting3
from kgraphkms.dumbbell import Dumbbell2Params
from kgraphkms.spectral import (
    STATUS_CONTRADICTION,
    STATUS_HOLDS,
    STATUS_NOT_MET,
    EigenConsistencyError,
    PFResult,
    _collatz_wielandt,
    _exceeds,
    _perron_block,
    _ties,
)

from conftest import (
    DATA,
    EXAMPLE_1,
    EXAMPLE_2,
    NO_BRIDGE_COUNTEREXAMPLE,
    REDUCIBLE_COLOUR_BLOCKS,
    chain,
    count_eig,
    count_perron,
    cycle_and_square,
    cycle_product_skeleton,
    data_skeletons,
    product_skeleton,
    quick_exit_weight,
    skeleton,
    weighted_cycle,
)


def quadratic_roots(a, b, c, d):
    """Eigenvalues of [[a, b], [c, d]] from the characteristic polynomial."""
    tr, det = a + d, a * d - b * c
    disc = math.sqrt(tr * tr - 4 * det)
    return (tr - disc) / 2, (tr + disc) / 2


class TestSpectralRadius:
    def test_scalar(self):
        assert spectral_radius([[5]]) == 5.0

    def test_example1_global_radii(self):
        assert spectral_radius(EXAMPLE_1.matrices[0]) == pytest.approx(5.0, abs=1e-12)
        assert spectral_radius(EXAMPLE_1.matrices[1]) == pytest.approx(4.0, abs=1e-12)

    def test_all_ones_against_characteristic_polynomial(self):
        lo, hi = quadratic_roots(1, 1, 1, 1)
        assert hi == pytest.approx(2.0)
        assert spectral_radius([[1, 1], [1, 1]]) == pytest.approx(hi, abs=1e-12)

    def test_random_2x2_against_characteristic_polynomial(self):
        rng = random.Random(3)
        for _ in range(50):
            a, b, c, d = (rng.randint(0, 6) for _ in range(4))
            expected = max(abs(t) for t in quadratic_roots(a, b, c, d))
            assert spectral_radius([[a, b], [c, d]]) == pytest.approx(expected, abs=1e-10)

    def test_radius_at_least_max_diagonal(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(1, 5)
            m = [[rng.randint(0, 4) for _ in range(n)] for _ in range(n)]
            assert spectral_radius(m) >= max(m[i][i] for i in range(n)) - 1e-12

    def test_reducible_matrix_takes_block_maximum(self):
        assert spectral_radius([[2, 7], [0, 5]]) == pytest.approx(5.0, abs=1e-12)


class TestCertifiedPerronRoot:
    def test_long_weighted_cycle(self, monkeypatch):
        # Every eigenvalue of a weighted cycle has modulus equal to the
        # geometric mean of its weights, so no power iteration converges on
        # this imprimitive block quickly; one certified Noda iteration gets
        # the root exactly, and no dense eigensolve runs.
        rng = random.Random(300)
        weights = [rng.randint(1, 3) for _ in range(300)]
        expected = math.exp(sum(math.log(w) for w in weights) / len(weights))
        perron_calls, eig_calls = count_perron(monkeypatch), count_eig(monkeypatch)
        rho = spectral_radius(weighted_cycle(weights))
        assert perron_calls == [(300, 300)] and eig_calls == []
        assert rho == pytest.approx(expected, rel=1e-12, abs=0)
        _, x, (lo, hi) = _perron_block(weighted_cycle(weights))
        assert x.min() > 0 and lo <= rho <= hi and hi - lo <= 1e-12 * hi

    def test_badly_scaled_perron_vector_is_refined(self):
        # The Perron vector spans 3**20 here; the solves scaled by the
        # current vector resolve its smallest entries to full relative
        # accuracy, so the bracket closes to rounding level.
        block = weighted_cycle([3] * 40 + [1] * 40)
        rho, x, (lo, hi) = _perron_block(block)
        assert rho == pytest.approx(math.sqrt(3), rel=1e-12, abs=0)
        assert x.min() > 0 and x.sum() == pytest.approx(1.0) and x.max() / x.min() > 3**19
        assert lo <= rho <= hi and hi - lo <= 1e-12 * hi

    def test_exact_start_vector_needs_no_solve(self, monkeypatch):
        # Every row of a regular block sums to its root, so the constant
        # start vector is the Perron vector and its bracket has zero width.
        solves = []
        original = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solves.append(a.shape) or original(a, b))
        block = np.array([[0.0, 1.0, 2.0], [2.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
        rho, x, bracket = _perron_block(block)
        assert solves == [] and bracket == (3.0, 3.0) and rho == 3.0
        assert x.tolist() == [1 / 3] * 3

    def test_product_skeleton_radii(self):
        # X = A (x) I and Y = I (x) B commute, so X + Y and XY + X + 2Y have
        # roots a + b and ab + a + 2b with a = rho(A), b = rho(B).
        skel = product_skeleton()
        colours = [np.array(m) for m in skel.matrices]
        a, b = 6 ** (1 / 3), 1 + 2 ** (1 / 3)
        expected = (a + b, a * b + a + 2 * b)
        (radii,) = decompose(skel).radii
        assert radii == pytest.approx(expected, rel=1e-12, abs=0)
        for colour, root in zip(colours, expected):
            assert spectral_radius(colour) == pytest.approx(root, rel=1e-12, abs=0)
        for res, root in zip(common_pf_eigenvector(colours), expected):
            assert res.radius == pytest.approx(root, rel=1e-12, abs=0)

    def test_reducible_block_with_a_positive_vector_is_certified(self):
        # Only irreducible blocks reach _perron_block from the analysis, but
        # the iteration needs no irreducibility to certify what it returns:
        # the upper bound halves its distance to 1 at each step, and every
        # bracket, taken at a positive vector, contains the root 1.
        rho, x, (lo, hi) = _perron_block(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert x.min() > 0 and lo <= 1.0 <= hi and hi - lo <= 1e-15
        assert lo <= rho <= hi

    def test_reducible_block_raises(self):
        # A nilpotent block has root 0: the lower bound stays 0 while the
        # upper bound shrinks geometrically, so no bracket is ever narrow
        # relative to itself and the step cap ends the iteration.
        with pytest.raises(EigenConsistencyError, match=r"2x2 block .* 100 Noda steps: .*bracket \[0\.0, "):
            _perron_block(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_step_cap_raises_naming_size_steps_and_bracket(self, monkeypatch):
        monkeypatch.setattr(spectral, "NODA_MAX_STEPS", 2)
        block = product_skeleton().as_arrays()[0]
        with pytest.raises(EigenConsistencyError, match=r"^Perron root of a 54x54 block not settled after 2 Noda steps: Collatz-Wielandt bracket \[\S+, \S+\]$"):
            _perron_block(block)
        monkeypatch.setattr(spectral, "NODA_MAX_STEPS", 100)
        assert _perron_block(block)[0] == pytest.approx(6 ** (1 / 3) + 1 + 2 ** (1 / 3), rel=1e-12, abs=0)


class TestRootsFromTheSharedVector:
    """A larger component's roots come from the Perron vector of its colour sum."""

    @pytest.mark.parametrize("skel", REDUCIBLE_COLOUR_BLOCKS.values(), ids=REDUCIBLE_COLOUR_BLOCKS.keys())
    def test_reducible_colour_block(self, skel):
        decomp = decompose(skel)
        assert decomp.count == 1 and not all(decomp.irreducible[0])
        x = decomp.vectors[0]
        assert x.min() > 0 and not x.flags.writeable
        for a, rho, (lo, hi) in zip(skel.as_arrays(), decomp.radii[0], decomp.brackets[0]):
            assert rho == pytest.approx(spectral_radius(a), rel=1e-12, abs=0)
            assert lo <= rho <= hi and hi - lo <= 1e-9 * hi

    def test_badly_scaled_shared_vector_is_refined(self):
        # The colour sum's Perron vector spans 3**20; the scaled solves
        # certify every colour's root at it.
        w, square = cycle_and_square()
        results = common_pf_eigenvector([w, w + square])
        expected = (math.sqrt(3), 3 + math.sqrt(3))
        for res, root in zip(results, expected):
            assert res.radius == pytest.approx(root, rel=1e-12, abs=0)
            lo, hi = res.bracket
            assert lo <= res.radius <= hi and hi - lo <= 1e-9 * hi

    def test_uncertified_bracket_names_component_colour_and_bracket(self, monkeypatch):
        # A vector that is not the Perron vector of the first colour's block.
        skel = product_skeleton()
        original = spectral._perron_block

        def skewed(block):
            rho, x, bracket = original(block)
            x = x.copy()
            x[0] *= 1.001
            return rho, x, bracket

        monkeypatch.setattr(spectral, "_perron_block", skewed)
        named = r"^component 0 \(vertices \[0, 1, .*\]\), colour 0: Collatz-Wielandt bracket \[\S+, \S+\]"
        with pytest.raises(EigenConsistencyError, match=named):
            decompose(skel)

    def test_library_pass_solves_once(self, monkeypatch):
        # One Perron computation for the one 54-vertex component, and no
        # dense eigensolve, in the whole pass.
        skel = cycle_product_skeleton(1)
        perron_calls, eig_calls = count_perron(monkeypatch), count_eig(monkeypatch)
        dyn = normalize_dynamics(skel)
        diagram = phase_diagram(skel, dyn)
        critical = diagram.critical_betas
        for beta in (*critical, critical[0] + 1.0):
            extreme_states_at(skel, dyn, beta, diagram=diagram)
        assert perron_calls == [(54, 54)] and eig_calls == []


class TestCommonPF:
    def test_scalar_family(self):
        results = common_pf_eigenvector([[[5]], [[4]]])
        assert [r.radius for r in results] == [5.0, 4.0]
        assert results[0].vector == (1.0,)

    def test_symmetric_family(self):
        results = common_pf_eigenvector([[[0, 1], [1, 0]], [[1, 1], [1, 1]]])
        assert results[0].vector == pytest.approx((0.5, 0.5), abs=1e-12)
        assert results[0].radius == pytest.approx(1.0, abs=1e-12)
        assert results[1].radius == pytest.approx(2.0, abs=1e-12)

    def test_single_member(self):
        (res,) = common_pf_eigenvector([[[1, 2], [2, 1]]])
        # Hand eigen-decomposition: eigenvalues 3 and -1, even eigenvector.
        assert res.radius == pytest.approx(3.0, abs=1e-12)
        assert res.vector == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_rejects_reducible_member(self):
        with pytest.raises(ValueError, match="irreducible"):
            common_pf_eigenvector([[[1, 1], [0, 1]]])

    def test_rejects_noncommuting(self):
        with pytest.raises(ValueError, match="commute"):
            common_pf_eigenvector([[[1, 2], [2, 1]], [[1, 3], [1, 1]]])

    def test_residuals_below_tolerance(self):
        for res in common_pf_eigenvector([[[0, 2], [2, 0]], [[3, 2], [2, 3]]]):
            assert res.residual <= 1e-12

    @pytest.mark.parametrize("family", [[[[5]]], [[[5]], [[4]]], [[[1]], [[2**60 + 1]], [[7]]]])
    def test_one_by_one_closed_form_matches_the_general_route(self, family):
        # The general route, step by step: Perron vector of the sum, then
        # each member's bracket, root clamped into it, and residual.
        mats = [np.array(m, dtype=float) for m in family]
        _, x, _ = _perron_block(sum(mats))
        want = []
        for m in mats:
            lo, hi = _collatz_wielandt(m, x)
            rho = min(max(spectral_radius(m), lo), hi)
            residual = float(np.max(np.abs(m @ x - rho * x)))
            want.append(PFResult(rho, tuple(float(t) for t in x), residual, (lo, hi)))
        got = common_pf_eigenvector(family)
        assert got == want
        assert [r.residual for r in got] == [0.0] * len(family)

    @pytest.mark.parametrize("family", [[[[0]]], [[[3]], [[0]]]])
    def test_one_by_one_zero_entry_is_not_irreducible(self, family):
        with pytest.raises(ValueError, match="irreducible"):
            common_pf_eigenvector(family)

    def test_brackets_contain_radii(self):
        families = [
            [[[0, 2], [2, 0]], [[3, 2], [2, 3]]],
            [[[1, 2], [2, 1]]],
            [[[5]], [[4]]],
            [[[0, 1, 1], [1, 0, 1], [1, 1, 0]], [[2, 1, 1], [1, 2, 1], [1, 1, 2]]],
        ]
        for family in families:
            for res in common_pf_eigenvector(family):
                lo, hi = res.bracket
                assert lo <= res.radius <= hi
                assert hi - lo <= 1e-9 * hi


ANALYSIS_INPUTS = {
    **data_skeletons(),
    **{f"cycle-product-{seed}": cycle_product_skeleton(seed) for seed in range(10)},
    "product": product_skeleton(),
}


class TestAnalysisRoute:
    """The extension takes each component's flags and roots from its analysis."""

    @pytest.mark.parametrize("skel", ANALYSIS_INPUTS.values(), ids=ANALYSIS_INPUTS.keys())
    def test_matches_the_public_route_on_every_critical_component(self, skel):
        decomp = decompose(skel)
        critical = critical_components(skel, normalize_dynamics(skel)).critical_indices()
        assert critical
        for c in critical:
            block = np.ix_(decomp.components[c], decomp.components[c])
            want = common_pf_eigenvector([a[block] for a in skel.as_arrays()])
            assert [t.hex() for t in decomp.vectors[c].tolist()] == [t.hex() for t in want[0].vector]
            assert [r.hex() for r in decomp.radii[c]] == [r.radius.hex() for r in want]
            assert [[b.hex() for b in pair] for pair in decomp.brackets[c]] == [
                [b.hex() for b in r.bracket] for r in want
            ]

    def test_rejects_a_reducible_colour_block_like_the_public_route(self):
        # One vertex with a loop in the first colour only; both routes reject
        # it, and the extension names the component by its labels.
        skel = skeleton("v", [[2]], [[0]])
        with pytest.raises(ValueError, match="family member 1 is not irreducible"):
            common_pf_eigenvector([[[2]], [[0]]])
        with pytest.raises(ValueError, match=r"^component \{v\} colour 1: block is not irreducible$"):
            extend_eigenvector(skel, (0,))
        # A two-cycle whose second colour is two loops.
        skel = skeleton("ab", [[0, 1], [1, 0]], [[1, 0], [0, 1]])
        with pytest.raises(ValueError, match=r"^component \{a, b\} colour 1: block is not irreducible$"):
            extend_eigenvector(skel, (0, 1))

    def test_phase_diagram_certifies_each_block_once(self, monkeypatch):
        # The product skeleton is one 54-vertex component: decompose runs one
        # Perron computation on its colour sum, for the shared vector and
        # every colour's root, and no dense eigensolve runs.
        # Flags, roots and the vector are never derived again outside
        # decompose, and a dynamics normalised on this very skeleton brings
        # that analysis along, so phase_diagram solves nothing.
        skel = product_skeleton()
        dyn = normalize_dynamics(skel)
        twin_dyn = normalize_dynamics(product_skeleton())
        depth, outside, decomposed = [0], [], []
        original_decompose = components.decompose

        def decompose_counted(s):
            decomposed.append(s)
            depth[0] += 1
            try:
                return original_decompose(s)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(components, "decompose", decompose_counted)
        for owner, name in ((spectral, "spectral_radius"), (_digraph, "irreducible")):
            original = getattr(owner, name)

            def counting(*args, name=name, original=original):
                if not depth[0]:
                    outside.append(name)
                return original(*args)

            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("kgraphkms") and getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting)
        perron_calls, eig_calls = count_perron(monkeypatch), count_eig(monkeypatch)
        for d, decompositions, perrons in ((dyn, 0, 0), (twin_dyn, 1, 1), (replace(dyn, analysis=None), 1, 1)):
            decomposed.clear()
            perron_calls.clear()
            phase_diagram(skel, d)
            assert decomposed == [skel] * decompositions
            assert perron_calls == [(54, 54)] * perrons
        assert outside == [] and eig_calls == []


class TestExtension:
    def test_example1_bottom_component(self):
        ext = extend_eigenvector(EXAMPLE_1, (2,))
        assert ext.f == (0,) and ext.d == (2,) and ext.h == (1,)
        assert ext.component_radii == (5.0, 4.0)
        # (5-2)^-1 * 3 = 1 from colour 1, reality check (4-2)^-1 * 2 = 1.
        assert ext.y == pytest.approx((1.0,), abs=1e-12)
        assert ext.z == pytest.approx((1.0, 0.0, 1.0), abs=1e-12)
        assert ext.cross_colour_discrepancy <= 1e-12
        assert max(ext.per_colour_residuals) <= 1e-12

    def test_example2_both_ends(self):
        ext_v = extend_eigenvector(EXAMPLE_2, (1,))
        assert ext_v.y == pytest.approx((0.2,), abs=1e-12)
        assert ext_v.z == pytest.approx((0.2, 1.0, 0.0), abs=1e-12)
        ext_w = extend_eigenvector(EXAMPLE_2, (2,))
        assert ext_w.y == pytest.approx((1 / 6,), abs=1e-12)
        assert ext_w.z == pytest.approx((1 / 6, 0.0, 1.0), abs=1e-12)

    def test_exchange_identity_all_pairs(self):
        for skel, comp in ((EXAMPLE_1, (2,)), (EXAMPLE_2, (1,)), (EXAMPLE_2, (2,))):
            ext = extend_eigenvector(skel, comp)
            assert ext.exchange_identity_discrepancy <= 1e-9

    def test_rejects_non_hereditary_component(self):
        with pytest.raises(ValueError, match="hereditary"):
            extend_eigenvector(EXAMPLE_1, (0,))

    def test_singular_colour_is_not_solved(self):
        # Colour-0 roots tie at 3 between the two components, so the
        # colour-0 system is singular and only colour 1 is solved.
        skel = skeleton("vw", [[3, 0], [0, 3]], [[2, 1], [0, 4]])
        ext = extend_eigenvector(skel, (1,))
        assert ext.solved_colours == (1,)

    def test_weights_nonnegative_on_fuzzed_dumbbells(self):
        checked = 0
        for params in sample_commuting3(23, 40):
            skel = make_dumbbell3(params)
            try:
                ext = extend_eigenvector(skel, (2,))
            except ValueError:
                continue  # the end at w dominates in neither colour
            checked += 1
            assert min(ext.y, default=0.0) >= -1e-12
            assert max(ext.per_colour_residuals) <= 1e-8
        assert checked >= 5


EXTENSION_PINS = json.loads((DATA / "golden" / "extension.json").read_text())
EXTENSION_INPUTS = {**data_skeletons(), "chain12": chain(12, 0), "product-skeleton": product_skeleton()}


def hexed(value):
    """A float as ``float.hex``, tuples as lists of the same, anything else as is."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return [hexed(t) for t in value]
    return value


class TestExtensionPins:
    @pytest.mark.parametrize("name", EXTENSION_INPUTS)
    def test_every_component_bit_for_bit(self, name):
        # Recorded by the extension code that solved each colour's system
        # with a fresh matrix and took the exchange identity over ordered
        # pairs, on the same analysis: every result, field and float, or the
        # error, of every component.
        skel = EXTENSION_INPUTS[name]
        got = []
        for comp in decompose(skel).components:
            try:
                ext = extend_eigenvector(skel, comp)
            except ValueError as exc:
                got.append({"error": str(exc)})
                continue
            got.append({f.name: hexed(getattr(ext, f.name)) for f in fields(ext)})
        assert got == EXTENSION_PINS[name]


class TestQuickExit:
    def test_single_term(self):
        got = quick_exit_weight(EXAMPLE_1, (2,), 0, 0)
        assert got == pytest.approx([3 / 5], abs=1e-15)

    def test_converges_to_solved_weight(self):
        got = quick_exit_weight(EXAMPLE_1, (2,), 0, 60)
        assert got == pytest.approx([1.0], abs=1e-10)

    def test_empty_feeder_set(self):
        skel = skeleton("v", [[2]], [[3]])
        assert quick_exit_weight(skel, (0,), 0, 10).size == 0

    def test_monotone_convergence(self):
        ext = extend_eigenvector(EXAMPLE_1, (2,))
        y = np.array(ext.y)
        errors = [
            float(np.max(np.abs(quick_exit_weight(EXAMPLE_1, (2,), 0, n) - y)))
            for n in range(0, 40, 5)
        ]
        assert all(a >= b - 1e-15 for a, b in zip(errors, errors[1:]))
        assert errors[-1] < errors[0]


class TestRadiusBand:
    def test_band_is_relative_above_one_and_absolute_below(self):
        assert _ties(1e6, 1e6 * (1 + 0.9e-9)) and not _ties(1e6, 1e6 * (1 + 1.1e-9))
        assert _ties(0.5, 0.5 + 0.9e-9) and not _ties(0.5, 0.5 + 1.1e-9)
        assert _ties(2.0, 2.0 + 1.5e-6, bands=1e3) and not _ties(2.0, 2.0 + 2.5e-6, bands=1e3)

    @pytest.mark.parametrize("a", [0.3, 1.0, 1e6])
    @pytest.mark.parametrize("gap", [0.0, 0.999e-9, 1.001e-9, 0.1])
    def test_each_pair_ties_or_one_side_exceeds(self, a, gap):
        b = a + gap * max(1.0, a)
        assert [_exceeds(a, b), _ties(a, b), _exceeds(b, a)].count(True) == 1
        assert _ties(a, b) == _ties(b, a) == (gap < 1e-9)


class TestOrdering:
    def test_example1_conclusion_holds(self):
        # 5 > 4 > 2 and 4 > 3 > 2: the conclusion is true even though the
        # middle component receives nothing from the bottom one, so the
        # missing bridge is recorded without demoting the verdict.
        for colour in (0, 1):
            verdict = check_spectral_ordering(EXAMPLE_1, (2,), colour)
            assert verdict.status == STATUS_HOLDS
            assert verdict.reversals == ()
            assert not verdict.hypothesis_met
            assert (1, 0) in verdict.missing_bridges

    def test_counterexample_is_commuting_but_hypothesis_fails(self):
        a1, a2 = NO_BRIDGE_COUNTEREXAMPLE.matrices
        gaps = commutation_gaps_3(
            (a1[0][0], a2[0][0]),
            (a1[1][1], a2[1][1]),
            (a1[2][2], a2[2][2]),
            (a1[0][1], a2[0][1]),
            (a1[0][2], a2[0][2]),
            (a1[1][2], a2[1][2]),
        )
        assert gaps == (0, 0, 0)
        verdict = check_spectral_ordering(NO_BRIDGE_COUNTEREXAMPLE, (2,), 0)
        assert verdict.status == STATUS_NOT_MET
        # Component {v} cannot be reached from {w} in either colour.
        assert (1, 0) in verdict.missing_bridges and (1, 1) in verdict.missing_bridges
        # The would-be conclusion indeed reverses in colour 2: 4 > 3.
        assert (1, 1, 4.0, 3.0) in verdict.reversals

    def test_two_vertex_dominant_end(self):
        skel = make_dumbbell2(Dumbbell2Params((2, 2), (3, 3), (1, 1)))
        for colour in (0, 1):
            verdict = check_spectral_ordering(skel, (1,), colour)
            assert verdict.status == STATUS_HOLDS

    @pytest.mark.parametrize(
        "colour, tied", [(0, [1]), (1, [1, 2])], ids=["colour-0", "colour-1"]
    )
    def test_degenerate_messages_in_order(self, colour, tied):
        # Vertex order a, b, e, c, f, g is also the component order. a, the
        # component under test, receives a bridge from b and so is not
        # hereditary; c has no loop in colour 1; b ties a in both colours and
        # e ties it in colour 1; f and g beat it clearly in colours 0 and 1.
        # Only ties in the tested colour are near-tie messages.
        loops = [(5, 4), (5, 4), (3, 4), (2, 0), (6, 2), (1, 9)]
        mats = [np.diag([pair[i] for pair in loops]) for i in range(2)]
        for m in mats:
            m[0, 1] = 1
        skel = skeleton("abecfg", *(m.tolist() for m in mats))
        verdict = check_spectral_ordering(skel, (0,), colour)
        assert verdict.degenerate == (
            "a component is not coordinatewise irreducible",
            "component under test is not hereditary",
            *(f"radii nearly tie in colour {colour} between components {c} and 0; tighten input" for c in tied),
        )
        assert verdict.reversals == (
            (1, 0, 5.0, 5.0), (1, 1, 4.0, 4.0), (2, 1, 4.0, 4.0), (4, 0, 6.0, 5.0), (5, 1, 9.0, 4.0)
        )
        assert verdict.status == STATUS_NOT_MET
        assert not verdict.dominant_colour_ok and not verdict.hypothesis_met

    @pytest.mark.parametrize("colour", [2, 7, -1])
    def test_colour_outside_the_skeleton_is_refused(self, colour):
        # Unchecked, such a colour finds no reversal in its own colour and
        # so reads as a contradiction with the hypothesis met.
        skel = make_dumbbell3(sample_commuting3(1, 1)[0])
        with pytest.raises(ValueError, match=rf"colour {colour} is not one of the 2 colours"):
            check_spectral_ordering(skel, (2,), colour)

    def test_never_contradicts_on_fuzzed_dumbbells(self):
        for params in sample_commuting3(59, 60):
            skel = make_dumbbell3(params)
            for colour in (0, 1):
                verdict = check_spectral_ordering(skel, (2,), colour)
                assert verdict.status != STATUS_CONTRADICTION
