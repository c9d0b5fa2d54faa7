import json
import random
from dataclasses import astuple
from itertools import product
from pathlib import Path

import pytest

from kgraphkms import (
    CommutationError,
    Dumbbell2Params,
    Dumbbell3Params,
    DumbbellBounds,
    FuzzReport,
    check_assumptions,
    figure3_params,
    fuzz_ordering,
    make_dumbbell2,
    make_dumbbell3,
    validate_skeleton,
)
from kgraphkms.dumbbell import (
    _draws,
    commutation_gap_2,
    commutation_gaps_3,
    matrices_2,
    matrices_3,
    sample_commuting3,
    sample_dumbbell3,
)

# Sampler output recorded before the sampler was last rewritten: per case,
# the first samples of ``sample_commuting3``, the outcome of the first
# trials of ``sample_dumbbell3`` on one generator (None for a rejection)
# and the generator's next ``random()`` after them. The benchmark's
# ``dumbbell-batch`` graphs and ``tests/test_engine.py`` depend on these draws.
SAMPLER_PINS = json.loads((Path(__file__).parent / "data" / "golden" / "sampler.json").read_text())


def brute_commutes(mats) -> bool:
    """Independent oracle: multiply both ways with the generic triple loop."""
    a, b = mats
    n = len(a)
    left = [[sum(a[i][l] * b[l][j] for l in range(n)) for j in range(n)] for i in range(n)]
    right = [[sum(b[i][l] * a[l][j] for l in range(n)) for j in range(n)] for i in range(n)]
    return left == right


def enumerate_commuting2(bound: int, bridge=None) -> list[Dumbbell2Params]:
    """Every two-vertex parameter tuple with entries <= bound that commutes and passes validation, in lexicographic order."""
    rng = range(bound + 1)
    bridges = [bridge] if bridge is not None else list(product(rng, rng))
    out = []
    for m1, m2, n1, n2 in product(rng, repeat=4):
        for p in bridges:
            params = Dumbbell2Params((m1, m2), (n1, n2), p)
            if commutation_gap_2(params.loops_v, params.loops_w, p) != 0:
                continue
            if validate_skeleton(("v", "w"), matrices_2(params)).passed:
                out.append(params)
    return out


def enumerate_commuting3(bound: int) -> list[Dumbbell3Params]:
    """Every three-vertex tuple with entries <= bound that passes the exact relations and validation."""
    rng = range(bound + 1)
    out = []
    for m1, m2, n1, n2, p1, p2 in product(rng, repeat=6):
        for q1, q2, r1, r2, s1, s2 in product(rng, repeat=6):
            pairs = (m1, m2), (n1, n2), (p1, p2), (q1, q2), (r1, r2), (s1, s2)
            if any(g != 0 for g in commutation_gaps_3(*pairs)):
                continue
            params = Dumbbell3Params(*pairs)
            if validate_skeleton(("u", "v", "w"), matrices_3(params)).passed:
                out.append(params)
    return out


class TestMake:
    def test_known_good_figure3_accepted(self):
        # 5*2+1*13 = 23 = 3*1+2*10 and 5*1+1*9 = 14 = 3*1+1*11.
        params = figure3_params((5, 3), (10, 13), (11, 9), (1, 2), (1, 1))
        skel = make_dumbbell3(params)
        assert skel.vertex_labels == ("u", "v", "w")
        assert skel.matrices[0] == ((5, 1, 1), (0, 10, 0), (0, 0, 11))
        assert skel.matrices[1] == ((3, 2, 1), (0, 13, 0), (0, 0, 9))

    def test_equal_loops_accept_any_bridge(self):
        for bridge in ((0, 0), (1, 1), (3, 1), (0, 5)):
            skel = make_dumbbell2(Dumbbell2Params((2, 3), (2, 3), bridge))
            assert skel.matrices[0][0][1] == bridge[0]

    def test_no_cross_bridge_counterexample_matrices(self):
        params = Dumbbell3Params((1, 1), (3, 4), (5, 3), (2, 3), (2, 1), (0, 0))
        skel = make_dumbbell3(params)
        assert skel.matrices[0] == ((1, 2, 2), (0, 3, 0), (0, 0, 5))
        assert skel.matrices[1] == ((1, 3, 1), (0, 4, 0), (0, 0, 3))

    def test_rejection_names_relation(self):
        with pytest.raises(CommutationError) as err:
            make_dumbbell2(Dumbbell2Params((1, 1), (2, 2), (1, 2)))
        assert "bridge(w,v)" in err.value.relation
        with pytest.raises(CommutationError) as err:
            make_dumbbell3(Dumbbell3Params((2, 2), (3, 4), (5, 5), (1, 1), (1, 1), (1, 1)))
        assert err.value.relation

    def test_rejects_negative_sizes(self):
        with pytest.raises(ValueError):
            make_dumbbell2(Dumbbell2Params((1, 1), (2, 2), (-1, -1)))

    def test_acceptance_matches_validate_commutation(self):
        # Cross-module consistency on every enumerated tuple.
        for params in enumerate_commuting2(2):
            make_dumbbell2(params)
            assert validate_skeleton(("v", "w"), matrices_2(params)).passed


class TestEnumerate:
    def test_fixed_unit_bridge_forces_equal_loop_gaps(self):
        got = enumerate_commuting2(2, bridge=(1, 1))
        assert got
        for params in got:
            m, n = params.loops_v, params.loops_w
            assert n[1] - m[1] == n[0] - m[0]
            assert brute_commutes(matrices_2(params))
        # Completeness against brute force over the same grid.
        count = 0
        for m1 in range(3):
            for m2 in range(3):
                for n1 in range(3):
                    for n2 in range(3):
                        p = Dumbbell2Params((m1, m2), (n1, n2), (1, 1))
                        mats = matrices_2(p)
                        if brute_commutes(mats) and validate_skeleton(("v", "w"), mats).passed:
                            count += 1
        assert count == len(got)

    def test_bound_zero_is_empty(self):
        assert enumerate_commuting2(0) == []

    def test_zero_bridges_accepted_but_isolated(self):
        got = enumerate_commuting2(2, bridge=(0, 0))
        assert got
        for params in got[:5]:
            skel = make_dumbbell2(params)
            report = check_assumptions(skel)
            assert not report.a1_no_isolated

    def test_three_vertex_enumeration_matches_brute_force(self):
        got = enumerate_commuting3(1)
        assert got
        for params in got:
            assert brute_commutes(matrices_3(params))

    def test_no_wu_bridge_forces_cross_ratio(self):
        # Commuting tuples with the w->u bundle empty in both colours but
        # everything else present and unequal loops at u, v satisfy the
        # degenerate corner identity exactly.
        found = 0
        for params in enumerate_commuting3(2):
            if params.bridge_wu != (0, 0):
                continue
            if 0 in params.bridge_vu or 0 in params.bridge_wv:
                continue
            if params.loops_u[0] == params.loops_v[0]:
                continue
            found += 1
            q, s = params.bridge_vu, params.bridge_wv
            assert q[1] * s[0] == q[0] * s[1]
        assert found > 0


class TestSampling:
    def test_deterministic_per_seed(self):
        a = sample_commuting3(99, 10)
        b = sample_commuting3(99, 10)
        assert a == b
        assert a != sample_commuting3(100, 10)

    def test_samples_commute_and_satisfy_assumptions(self):
        for params in sample_commuting3(5, 30):
            gaps = commutation_gaps_3(
                params.loops_u,
                params.loops_v,
                params.loops_w,
                params.bridge_vu,
                params.bridge_wu,
                params.bridge_wv,
            )
            assert gaps == (0, 0, 0)
            skel = make_dumbbell3(params)
            assert check_assumptions(skel).all_pass

    @pytest.mark.parametrize("case", SAMPLER_PINS, ids=lambda c: f"seed{c['seed']}-{'-'.join(c['bounds']) or 'default'}")
    def test_draws_are_pinned(self, case):
        def flat(params):
            return None if params is None else [x for pair in astuple(params) for x in pair]

        bounds = DumbbellBounds(**case["bounds"])
        samples = sample_commuting3(case["seed"], len(case["samples"]), bounds)
        assert [flat(p) for p in samples] == case["samples"]
        rng = random.Random(case["seed"])
        assert [flat(sample_dumbbell3(rng, bounds)) for _ in case["trials"]] == case["trials"]
        assert rng.random() == case["next_random"]

    @pytest.mark.parametrize("lo, hi", [(2, 9), (1, 1), (0, 1), (3, 1000), (-4, 4), (1, 2**70)])
    def test_draws_follow_randint(self, lo, hi):
        mine, reference = random.Random(lo * 31 + hi), random.Random(lo * 31 + hi)
        for count in (1, 2, 4, 7):
            assert _draws(mine, lo, hi, count) == [reference.randint(lo, hi) for _ in range(count)]
        assert mine.getstate() == reference.getstate()

    def test_empty_range_is_rejected(self):
        with pytest.raises(ValueError, match="empty sampling range 9:2"):
            sample_dumbbell3(random.Random(0), DumbbellBounds(loop_lo=9, loop_hi=2))

    def test_dominant_bounds_force_w_dominance(self):
        bounds = DumbbellBounds(loop_lo=2, loop_hi=5, w_loop_lo=8, w_loop_hi=12)
        for params in sample_commuting3(7, 20, bounds):
            assert min(params.loops_w) >= 8
            assert max(params.loops_u + params.loops_v) <= 5


class TestFuzz:
    def test_seeded_run_has_no_contradictions(self):
        report = fuzz_ordering(42, 200)
        assert report.samples == 200
        assert report.contradictions == ()
        assert report.hypothesis_met + report.hypothesis_not_met == 200

    def test_count_zero(self):
        assert fuzz_ordering(1, 0) == FuzzReport(0, 0, 0, 0, ())

    def test_zero_wv_bridge_never_meets_hypothesis(self):
        bounds = DumbbellBounds(zero_wv_bridge=True)
        report = fuzz_ordering(13, 60, bounds)
        assert report.samples == 60
        assert report.hypothesis_met == 0
        assert report.hypothesis_not_met == 60
        assert report.contradictions == ()

    def test_commutation_gap_accepts_arrays(self):
        import numpy as np

        m1 = np.array([1, 2])
        gap = commutation_gap_2((m1, m1), (m1 + 1, m1 + 1), (np.array([1, 1]), np.array([1, 1])))
        assert gap.shape == (2,)
