"""Dumbbell skeletons: loop bundles at two or three vertices joined by bridges.

The two-colour commutation requirement collapses to a handful of exact
integer relations on the bundle sizes, which makes this family ideal both
for generating valid inputs in bulk and for stress-testing the spectral
ordering machinery. All relation checks are exact integer arithmetic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .components import analysed
from .skeleton import Skeleton
from .spectral import STATUS_CONTRADICTION, STATUS_HOLDS, check_spectral_ordering

Pair = tuple[int, int]

RELATION_2 = "bridge(w,v) vs loop difference"
RELATION_3_VU = "bridge(v,u) vs loops at u,v"
RELATION_3_WV = "bridge(w,v) vs loops at v,w"
RELATION_3_WU = "bridge(w,u) corner relation"


class CommutationError(ValueError):
    """Requested bundle sizes do not give commuting colour matrices."""

    def __init__(self, relation: str, detail: str):
        super().__init__(f"commutation fails: {relation}: {detail}")
        self.relation = relation


@dataclass(frozen=True)
class Dumbbell2Params:
    """Two vertices v, w; loops at each; bridge bundles from w to v."""

    loops_v: Pair
    loops_w: Pair
    bridge: Pair


@dataclass(frozen=True)
class Dumbbell3Params:
    """Three vertices u, v, w with loop bundles and bridges pointing left.

    ``bridge_vu`` counts edges from v to u, ``bridge_wu`` from w to u,
    ``bridge_wv`` from w to v, one count per colour.
    """

    loops_u: Pair
    loops_v: Pair
    loops_w: Pair
    bridge_vu: Pair
    bridge_wu: Pair
    bridge_wv: Pair


def figure3_params(loops_u, loops_v, loops_w, bridge_vu, bridge_wu) -> Dumbbell3Params:
    """Three-vertex dumbbell whose w-to-v bundle is empty (two hereditary ends)."""
    return Dumbbell3Params(
        loops_u=tuple(loops_u),
        loops_v=tuple(loops_v),
        loops_w=tuple(loops_w),
        bridge_vu=tuple(bridge_vu),
        bridge_wu=tuple(bridge_wu),
        bridge_wv=(0, 0),
    )


def commutation_gap_2(loops_v, loops_w, bridge):
    """Zero exactly when the two-vertex colour matrices commute.

    Accepts ints or numpy arrays elementwise.
    """
    m1, m2 = loops_v
    n1, n2 = loops_w
    p1, p2 = bridge
    return (n2 - m2) * p1 - (n1 - m1) * p2


def commutation_gaps_3(loops_u, loops_v, loops_w, bridge_vu, bridge_wu, bridge_wv):
    """Residuals of the three exact relations for the three-vertex dumbbell.

    All three vanish exactly when the colour matrices commute. Accepts ints
    or numpy arrays elementwise.
    """
    m1, m2 = loops_u
    n1, n2 = loops_v
    p1, p2 = loops_w
    q1, q2 = bridge_vu
    r1, r2 = bridge_wu
    s1, s2 = bridge_wv
    g_vu = q2 * (n1 - m1) - q1 * (n2 - m2)
    g_wv = s2 * (p1 - n1) - s1 * (p2 - n2)
    g_wu = r2 * (p1 - m1) + q2 * s1 - (r1 * (p2 - m2) + q1 * s2)
    return g_vu, g_wv, g_wu


def matrices_2(params: Dumbbell2Params):
    out = []
    for i in range(2):
        out.append(
            (
                (params.loops_v[i], params.bridge[i]),
                (0, params.loops_w[i]),
            )
        )
    return tuple(out)


def matrices_3(params: Dumbbell3Params):
    out = []
    for i in range(2):
        out.append(
            (
                (params.loops_u[i], params.bridge_vu[i], params.bridge_wu[i]),
                (0, params.loops_v[i], params.bridge_wv[i]),
                (0, 0, params.loops_w[i]),
            )
        )
    return tuple(out)


def make_dumbbell2(params: Dumbbell2Params) -> Skeleton:
    """Two-vertex dumbbell skeleton, rejecting non-commuting bundle sizes."""
    _check_nonnegative(params.loops_v, params.loops_w, params.bridge)
    gap = commutation_gap_2(params.loops_v, params.loops_w, params.bridge)
    if gap != 0:
        raise CommutationError(RELATION_2, f"residual {gap} for {params}")
    return Skeleton(("v", "w"), matrices_2(params))


def make_dumbbell3(params: Dumbbell3Params) -> Skeleton:
    """Three-vertex dumbbell skeleton, rejecting non-commuting bundle sizes."""
    _check_nonnegative(
        params.loops_u,
        params.loops_v,
        params.loops_w,
        params.bridge_vu,
        params.bridge_wu,
        params.bridge_wv,
    )
    gaps = commutation_gaps_3(
        params.loops_u,
        params.loops_v,
        params.loops_w,
        params.bridge_vu,
        params.bridge_wu,
        params.bridge_wv,
    )
    names = (RELATION_3_VU, RELATION_3_WV, RELATION_3_WU)
    for gap, name in zip(gaps, names):
        if gap != 0:
            raise CommutationError(name, f"residual {gap} for {params}")
    return Skeleton(("u", "v", "w"), matrices_3(params))


def _check_nonnegative(*pairs):
    for pair in pairs:
        for x in pair:
            if int(x) != x or x < 0:
                raise ValueError(f"bundle sizes must be nonnegative integers, got {x!r}")


@dataclass(frozen=True)
class DumbbellBounds:
    """Sampling ranges for random commuting three-vertex dumbbells.

    Loop counts start at 2 so every component has all per-colour Perron
    roots above 1. ``w_loop_lo``/``w_loop_hi`` override the range for the
    loops at w, which is how a caller forces the hereditary end to dominate.
    ``zero_wv_bridge`` pins the w-to-v bundle to zero in both colours;
    otherwise every bridge bundle must be nonempty in both colours.
    """

    loop_lo: int = 2
    loop_hi: int = 9
    bridge_lo: int = 1
    bridge_hi: int = 9
    w_loop_lo: int | None = None
    w_loop_hi: int | None = None
    zero_wv_bridge: bool = False


def _draws(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """``count`` successive ``rng.randint(lo, hi)`` values, from the same generator state.

    This is CPython's rule for ``randint`` on a ``random.Random``: take
    ``k`` bits of the range's size, redraw until below it. Applying it
    directly skips ``randint``'s argument handling, which dominated
    sampling on three-vertex graphs.
    """
    n = hi - lo + 1
    if n <= 0:
        raise ValueError(f"empty sampling range {lo}:{hi}")
    k = n.bit_length()
    getrandbits = rng.getrandbits
    out = []
    for _ in range(count):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        out.append(lo + r)
    return out


def _solve_second_colour(first, diff1, diff2, rng, bounds):
    """Integer second-colour bridge matching ``b2 * diff1 == b1 * diff2``."""
    if diff1 != 0:
        num = first * diff2
        if num % diff1:
            return None
        val = num // diff1
        return val if val >= 0 else None
    if first * diff2 != 0:
        return None
    return _draws(rng, bounds.bridge_lo, bounds.bridge_hi, 1)[0]


def sample_dumbbell3(rng: random.Random, bounds: DumbbellBounds) -> Dumbbell3Params | None:
    """One sampling trial: draw loops and colour-1 bridges, solve colour 2.

    Independent sampling almost never commutes, so the second colour's
    bridges are solved from the exact relations instead, rejecting
    non-integer or negative solutions. Returns None on rejection.
    """
    lo, hi = bounds.loop_lo, bounds.loop_hi
    wlo = bounds.w_loop_lo if bounds.w_loop_lo is not None else lo
    whi = bounds.w_loop_hi if bounds.w_loop_hi is not None else hi
    m0, m1, n0, n1 = _draws(rng, lo, hi, 4)
    m, n = (m0, m1), (n0, n1)
    p = tuple(_draws(rng, wlo, whi, 2))
    q1, r1 = _draws(rng, bounds.bridge_lo, bounds.bridge_hi, 2)
    s1 = 0 if bounds.zero_wv_bridge else _draws(rng, bounds.bridge_lo, bounds.bridge_hi, 1)[0]

    q2 = _solve_second_colour(q1, n[0] - m[0], n[1] - m[1], rng, bounds)
    if q2 is None:
        return None
    if bounds.zero_wv_bridge:
        s2 = 0
    else:
        s2 = _solve_second_colour(s1, p[0] - n[0], p[1] - n[1], rng, bounds)
        if s2 is None:
            return None
    # Corner relation: r2 (p1 - m1) = r1 (p2 - m2) + q1 s2 - q2 s1.
    rhs = r1 * (p[1] - m[1]) + q1 * s2 - q2 * s1
    if p[0] != m[0]:
        if rhs % (p[0] - m[0]):
            return None
        r2 = rhs // (p[0] - m[0])
        if r2 < 0:
            return None
    else:
        if rhs != 0:
            return None
        r2 = _draws(rng, bounds.bridge_lo, bounds.bridge_hi, 1)[0]
    if not bounds.zero_wv_bridge and min(q1, q2, r1, r2, s1, s2) < 1:
        return None
    params = Dumbbell3Params(m, n, p, (q1, q2), (r1, r2), (s1, s2))
    gaps = commutation_gaps_3(m, n, p, params.bridge_vu, params.bridge_wu, params.bridge_wv)
    if any(g != 0 for g in gaps):
        return None
    return params


def sample_commuting3(seed: int, count: int, bounds: DumbbellBounds | None = None) -> list[Dumbbell3Params]:
    """Deterministic batch of commuting three-vertex dumbbells."""
    bounds = bounds if bounds is not None else DumbbellBounds()
    rng = random.Random(seed)
    out: list[Dumbbell3Params] = []
    trials = 0
    limit = max(10_000, 10_000 * count)
    while len(out) < count and trials < limit:
        trials += 1
        params = sample_dumbbell3(rng, bounds)
        if params is not None:
            out.append(params)
    if len(out) < count:
        raise RuntimeError(
            f"sampler produced only {len(out)}/{count} dumbbells in {trials} trials"
        )
    return out


@dataclass(frozen=True)
class FuzzReport:
    """Outcome statistics of a spectral-ordering fuzz run.

    ``contradictions`` must stay empty: an entry means the per-colour
    dominance propagation failed on a graph satisfying its hypotheses,
    which indicates a bug.
    """

    samples: int
    hypothesis_met: int
    conclusion_holds: int
    hypothesis_not_met: int
    contradictions: tuple[tuple[Dumbbell3Params, str], ...]


def fuzz_ordering(seed: int, count: int, bounds: DumbbellBounds | None = None) -> FuzzReport:
    """Fuzz the ordering verdict on random commuting three-vertex dumbbells.

    For each sample both colours are tried as the dominant one for the
    hereditary end {w}; any CONTRADICTION verdict is collected as a
    counterexample.
    """
    if count == 0:
        return FuzzReport(0, 0, 0, 0, ())
    samples = sample_commuting3(seed, count, bounds)
    met = holds = not_met = 0
    contradictions = []
    for params in samples:
        skel = analysed(make_dumbbell3(params))
        verdicts = [check_spectral_ordering(skel, (2,), colour) for colour in range(2)]
        statuses = [v.status for v in verdicts]
        if any(s == STATUS_CONTRADICTION for s in statuses):
            contradictions.append((params, ";".join(statuses)))
        if any(v.hypothesis_met for v in verdicts):
            met += 1
        else:
            not_met += 1
        if any(s == STATUS_HOLDS for s in statuses):
            holds += 1
    return FuzzReport(
        samples=len(samples),
        hypothesis_met=met,
        conclusion_holds=holds,
        hypothesis_not_met=not_met,
        contradictions=tuple(contradictions),
    )
