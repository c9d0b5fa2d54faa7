"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criterion 5 re-verifies every state emitted by the earlier criteria,
so test order in this file matters (pytest runs them in definition order).
"""

import math
import time

import numpy as np
import pytest

from kgraphkms import (
    Dumbbell2Params,
    DumbbellBounds,
    check_spectral_ordering,
    extend_eigenvector,
    extreme_states_at,
    fuzz_ordering,
    kms1_extremes,
    make_dumbbell2,
    make_dumbbell3,
    normalize_dynamics,
    phase_diagram,
    validate_skeleton,
    verify_state,
)
from kgraphkms.components import decompose, is_hereditary
from kgraphkms.dumbbell import (
    commutation_gap_2,
    commutation_gaps_3,
    matrices_2,
    sample_commuting3,
)
from kgraphkms.engine import critical_components
from kgraphkms.spectral import STATUS_NOT_MET

from conftest import EXAMPLE_1, EXAMPLE_2, NO_BRIDGE_COUNTEREXAMPLE, factors_through, quick_exit_weight, skeleton

# Every state emitted while running criteria 1-4 and 9 lands here and is
# re-verified wholesale by criterion 5.
STATE_POOL: list = []

DOMINANT_BOUNDS = DumbbellBounds(loop_lo=2, loop_hi=5, w_loop_lo=8, w_loop_hi=12)

LN = math.log


def _pool(skel, dyn, states):
    for s in states:
        STATE_POOL.append((skel, dyn, s))
    return states


def _ok(n, message):
    print(f"CRITERION {n}: PASS — {message}")


def test_criterion_1_example1_simplex():
    dyn = normalize_dynamics(EXAMPLE_1)
    start = time.perf_counter()
    states = kms1_extremes(EXAMPLE_1, dyn)
    elapsed = time.perf_counter() - start
    _pool(EXAMPLE_1, dyn, states)
    got = sorted(tuple(s.m) for s in states)
    expected = sorted([(0.5, 0.0, 0.5), (5 / 11, 6 / 11, 0.0), (1.0, 0.0, 0.0)])
    assert len(got) == 3
    for g, e in zip(got, expected):
        assert g == pytest.approx(e, abs=1e-9)
    assert elapsed < 1.0
    _ok(1, f"three extreme states reproduced within 1e-9 in {elapsed * 1e3:.1f} ms")


def test_criterion_2_example1_phase_diagram():
    dyn = normalize_dynamics(EXAMPLE_1)
    diag = phase_diagram(EXAMPLE_1, dyn)
    expected = (1.0, LN(4) / LN(5), LN(2) / LN(4))
    assert len(diag.critical_betas) == 3
    for got, want in zip(diag.critical_betas, expected):
        assert abs(got - want) <= 1e-12
    regimes = [
        (1.5, 3),                 # above the first critical value
        (1.0, 3),                 # at it
        (0.93, 2),                # open interval (ln4/ln5, 1)
        (LN(4) / LN(5), 2),       # second critical value
        (0.7, 1),                 # open interval above the terminal value
        (LN(2) / LN(4), 1),       # terminal value itself
        (0.49, 0),                # below terminal
    ]
    for beta, count in regimes:
        states = extreme_states_at(EXAMPLE_1, dyn, beta, diagram=diag)
        assert len(states) == count, f"beta={beta}: {len(states)} != {count}"
        _pool(EXAMPLE_1, dyn, states)
    _ok(2, "critical values {1, ln4/ln5, ln2/ln4} within 1e-12 and counts 3/3/2/2/1/1/0")


def test_criterion_3_example2():
    dyn = normalize_dynamics(EXAMPLE_2)
    states = kms1_extremes(EXAMPLE_2, dyn)
    _pool(EXAMPLE_2, dyn, states)
    got = sorted(tuple(s.m) for s in states)
    expected = sorted([(1 / 6, 5 / 6, 0.0), (1 / 7, 0.0, 6 / 7), (1.0, 0.0, 0.0)])
    for g, e in zip(got, expected):
        assert g == pytest.approx(e, abs=1e-9)
    by_kind = {s.anchor: s for s in states if s.kind == "component"}
    assert not by_kind[("v",)].factors_through_ck
    assert not by_kind[("w",)].factors_through_ck
    assert not factors_through(EXAMPLE_2, dyn, 1.0, by_kind[("v",)].m)
    diag = phase_diagram(EXAMPLE_2, dyn)
    assert diag.critical_betas == pytest.approx((1.0, LN(5) / LN(11)), abs=1e-12)
    assert extreme_states_at(EXAMPLE_2, dyn, 0.6, diagram=diag) == ()
    _ok(3, "extremes {(1/6,5/6,0),(1/7,0,6/7),(1,0,0)}, no factoring, terminal ln5/ln11")


def test_criterion_4_extension_cross_checks():
    cases = [(EXAMPLE_1, (2,)), (EXAMPLE_2, (1,)), (EXAMPLE_2, (2,))]
    for params in sample_commuting3(2024, 500, DOMINANT_BOUNDS):
        cases.append((make_dumbbell3(params), (2,)))
    worst_cross = worst_series = 0.0
    for skel, comp in cases:
        ext = extend_eigenvector(skel, comp)
        worst_cross = max(worst_cross, ext.cross_colour_discrepancy)
        y = np.array(ext.y)
        for colour in ext.solved_colours:
            series = quick_exit_weight(skel, comp, colour, 60)
            gap = float(np.max(np.abs(series - y))) if y.size else 0.0
            worst_series = max(worst_series, gap)
    assert worst_cross <= 1e-8
    assert worst_series <= 1e-8
    _ok(
        4,
        f"503 extensions: colour solves agree to {worst_cross:.2e}, "
        f"series oracle to {worst_series:.2e}",
    )


def test_criterion_5_subinvariance_everywhere():
    # Fresh fuzz sweep: full temperature structure of 120 random dumbbells.
    for seed, count in ((7, 60), (8, 60)):
        for params in sample_commuting3(seed, count):
            skel = make_dumbbell3(params)
            dyn = normalize_dynamics(skel)
            diag = phase_diagram(skel, dyn)
            for beta, states in zip(diag.critical_betas, diag.critical_points):
                for s in states:
                    STATE_POOL.append((skel, dyn, s))
    assert len(STATE_POOL) >= 300
    for skel, dyn, state in STATE_POOL:
        check = verify_state(skel, dyn, state.beta, state.m, tol=1e-9)
        assert check.passed, f"{state.kind} at beta={state.beta}: {check}"
    _ok(5, f"{len(STATE_POOL)} emitted states pass the subinvariance checks at 1e-9")


def test_criterion_6_ordering_fuzz_and_counterexample():
    report = fuzz_ordering(42, 500)
    assert report.samples == 500
    assert report.contradictions == ()

    rep = validate_skeleton(("u", "v", "w"), NO_BRIDGE_COUNTEREXAMPLE.matrices)
    assert rep.passed
    verdict = check_spectral_ordering(NO_BRIDGE_COUNTEREXAMPLE, (2,), 0)
    assert verdict.status == STATUS_NOT_MET
    assert not verdict.hypothesis_met
    assert (1, 1, 4.0, 3.0) in verdict.reversals
    _ok(
        6,
        f"500 fuzzed dumbbells, 0 contradictions ({report.hypothesis_met} met the "
        "hypothesis); bridge-free counterexample flagged with the colour-2 reversal 3 < 4",
    )


def test_criterion_7_commutation_equivalence():
    # Two-vertex family, entries <= 4: relation == generic matrix products.
    def brute(mats):
        a, b = mats
        n = len(a)
        left = [[sum(a[i][l] * b[l][j] for l in range(n)) for j in range(n)] for i in range(n)]
        right = [[sum(b[i][l] * a[l][j] for l in range(n)) for j in range(n)] for i in range(n)]
        return left == right

    checked2 = agree2 = 0
    for m1 in range(5):
        for m2 in range(5):
            for n1 in range(5):
                for n2 in range(5):
                    for p1 in range(5):
                        for p2 in range(5):
                            params = Dumbbell2Params((m1, m2), (n1, n2), (p1, p2))
                            accepted = commutation_gap_2(params.loops_v, params.loops_w, params.bridge) == 0
                            try:
                                make_dumbbell2(params)
                                constructed = True
                            except ValueError:
                                constructed = False
                            assert accepted == constructed == brute(matrices_2(params))
                            checked2 += 1
                            agree2 += accepted

    # Three-vertex family, entries <= 3: vectorised over all 4^12 tuples.
    checked3 = agree3 = 0
    grid8 = np.indices((4,) * 8).reshape(8, -1)
    p1, p2, q1, q2, r1, r2, s1, s2 = (grid8[i].astype(np.int64) for i in range(8))
    zero = np.zeros_like(p1)
    for m1 in range(4):
        for m2 in range(4):
            for n1 in range(4):
                for n2 in range(4):
                    gaps = commutation_gaps_3(
                        (m1, m2), (n1, n2), (p1, p2), (q1, q2), (r1, r2), (s1, s2)
                    )
                    by_relations = (gaps[0] == 0) & (gaps[1] == 0) & (gaps[2] == 0)
                    a1 = ((m1 + zero, q1, r1), (zero, n1 + zero, s1), (zero, zero, p1))
                    a2 = ((m2 + zero, q2, r2), (zero, n2 + zero, s2), (zero, zero, p2))
                    by_products = np.ones_like(by_relations)
                    for i in range(3):
                        for j in range(3):
                            left = sum(a1[i][l] * a2[l][j] for l in range(3))
                            right = sum(a2[i][l] * a1[l][j] for l in range(3))
                            by_products &= left == right
                    assert np.array_equal(by_relations, by_products)
                    checked3 += by_relations.size
                    agree3 += int(by_relations.sum())
    assert checked3 == 4**12
    _ok(
        7,
        f"relations match generic products on {checked2} two-vertex tuples "
        f"({agree2} commute) and {checked3} three-vertex tuples ({agree3} commute)",
    )


def test_criterion_8_dimension_count():
    fixtures = [EXAMPLE_1, EXAMPLE_2, skeleton("vw", [[2, 1], [0, 3]], [[2, 1], [0, 3]])]
    for params in sample_commuting3(31, 60):
        fixtures.append(make_dumbbell3(params))
    # Dumbbells with a forced dominant hereditary end always qualify.
    for params in sample_commuting3(32, 30, DOMINANT_BOUNDS):
        fixtures.append(make_dumbbell3(params))
    applicable = 0
    for skel in fixtures:
        dyn = normalize_dynamics(skel)
        decomp = decompose(skel)
        crit = critical_components(skel, dyn)
        crit_comps = [decomp.components[c] for c in crit.critical_indices()]
        if not all(is_hereditary(skel, comp) for comp in crit_comps):
            continue
        applicable += 1
        covered = {v for comp in crit_comps for v in comp}
        states = kms1_extremes(skel, dyn)
        assert len(states) == (skel.n - len(covered)) + len(crit_comps)
    assert applicable >= 30
    _ok(8, f"extreme count equals |vertices off G| + |critical components| on {applicable} fixtures")


def test_criterion_9_two_component_behaviour():
    # Dominant top component: unique critical state, nothing below.
    top_critical = skeleton("vw", [[4, 2], [0, 2]], [[3, 1], [0, 2]])
    dyn_top = normalize_dynamics(top_critical)
    states = kms1_extremes(top_critical, dyn_top)
    _pool(top_critical, dyn_top, states)
    assert len(states) == 1
    assert states[0].m == pytest.approx((1.0, 0.0), abs=1e-12)
    diag = phase_diagram(top_critical, dyn_top)
    assert diag.terminal_beta == 1.0
    assert extreme_states_at(top_critical, dyn_top, 0.9, diagram=diag) == ()

    # Dominant hereditary end: |C| + 1 = 2 extreme states at the critical
    # value, one state down to the second critical value, nothing below it.
    bottom_critical = skeleton("vw", [[2, 1], [0, 3]], [[2, 1], [0, 3]])
    dyn_bot = normalize_dynamics(bottom_critical)
    states = kms1_extremes(bottom_critical, dyn_bot)
    _pool(bottom_critical, dyn_bot, states)
    assert len(states) == 2
    diag = phase_diagram(bottom_critical, dyn_bot)
    second = LN(2) / LN(3)
    assert diag.critical_betas == pytest.approx((1.0, second), abs=1e-12)
    assert len(extreme_states_at(bottom_critical, dyn_bot, 0.8, diagram=diag)) == 1
    assert extreme_states_at(bottom_critical, dyn_bot, second * 0.99, diagram=diag) == ()
    _ok(9, "critical top gives a unique state dying at 1; critical bottom gives 2 then 1 then none")
