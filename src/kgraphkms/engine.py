"""Equilibrium-state engine: criticality, state construction, temperature sweep.

States are represented by their vertex weight vectors; the off-diagonal
law ``state(t_mu t_nu*) = 0`` for ``mu != nu`` and the diagonal weights
``exp(-beta r . d(mu)) m[s(mu)]`` are implied metadata and never stored
numerically. All vectors returned by this module are expressed in the
coordinate frame of the skeleton they were asked about, with zeros on any
vertices removed along the way, so results at different temperatures are
directly comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .components import (
    AssumptionReport,
    analysis_of,
    analysis_scope,
    check_assumptions,
    hereditary_closure,
    restrict,
    split_isolated,
)
from .skeleton import Skeleton
from .spectral import SOLVE_RESIDUAL_TOL, EigenConsistencyError, extend_eigenvector

CRITICAL_RTOL = 1e-9
STATE_TOL = 1e-9

KIND_COMPONENT = "component"
KIND_POINT_MASS = "point-mass"


class AssumptionError(RuntimeError):
    """A computation was asked to proceed on a graph failing its preconditions."""

    def __init__(self, report: AssumptionReport):
        super().__init__(f"connectivity assumptions violated: {report}")
        self.report = report


@dataclass(frozen=True)
class Dynamics:
    """Normalised dynamics vector and the bookkeeping around it.

    After normalisation the largest of ``ln(rho_i) / r_i`` equals 1, so the
    first critical inverse temperature is 1. ``rationally_independent`` is a
    caller attestation: it cannot be decided from floating point input, and
    uniqueness of convex decompositions of states relies on it.
    """

    r: tuple[float, ...]
    normalization_factor: float
    rationally_independent: bool
    preferred: bool
    critical_colours: frozenset[int]
    log_radii: tuple[float, ...]

    @property
    def k(self) -> int:
        return len(self.r)


@dataclass(frozen=True)
class ExtremeState:
    """One extreme equilibrium state at a fixed inverse temperature.

    ``kind`` records the provenance: ``component`` states extend a critical
    component's Perron vector, ``point-mass`` states are lifted from a
    vertex of a quotient in the strictly supercritical regime. ``anchor``
    holds the defining vertex labels and ``depth`` the recursion stage that
    produced the state.
    """

    beta: float
    m: tuple[float, ...]
    kind: str
    anchor: tuple[str, ...]
    depth: int
    factors_through_ck: bool


@dataclass(frozen=True)
class StateCheck:
    passed: bool
    l1_error: float
    min_entry: float
    colour_violation: float
    product_violation: float


@dataclass(frozen=True)
class CriticalityReport:
    """Per-component critical colours for a dynamics on one skeleton."""

    critical_colours_by_component: tuple[frozenset[int], ...]
    active_colours: frozenset[int]
    warnings: tuple[str, ...]

    def critical_indices(self) -> tuple[int, ...]:
        return tuple(
            c for c, cols in enumerate(self.critical_colours_by_component) if cols
        )


@dataclass(frozen=True)
class Interval:
    """Open inverse-temperature interval with its simplex recipe.

    Between consecutive critical values the extreme states are the lifted
    point-mass states of the listed quotient pieces, one per vertex; the
    pieces (by vertex label) are the generators, evaluable at any beta in
    the interval.
    """

    lo: float
    hi: float
    piece_labels: tuple[tuple[str, ...], ...]
    extreme_count: int


@dataclass(frozen=True)
class PhasePiece:
    """One node of the removal recursion: a sub-skeleton and its critical data."""

    skeleton: Skeleton
    vertices: tuple[int, ...]
    beta_start: float
    beta_crit: float
    symbolic_beta: str | None
    critical_states: tuple[ExtremeState, ...]
    depth: int
    sources_present: bool
    warnings: tuple[str, ...]


@dataclass(frozen=True)
class PhaseDiagram:
    """Complete simplex structure over the whole inverse-temperature axis.

    ``critical_betas`` is strictly decreasing and ends at ``terminal_beta``;
    below the terminal value no equilibrium states exist. Critical points
    carry explicit extreme states; open intervals carry the recipe (one
    point-mass state per listed vertex) instead of sampled values.
    """

    vertex_labels: tuple[str, ...]
    r: tuple[float, ...]
    rationally_independent: bool
    critical_betas: tuple[float, ...]
    symbolic_betas: tuple[str | None, ...]
    critical_points: tuple[tuple[ExtremeState, ...], ...]
    intervals: tuple[Interval, ...]
    terminal_beta: float
    pieces: tuple[PhasePiece, ...]


def normalize_dynamics(
    skel: Skeleton,
    r="preferred",
    rationally_independent: bool = True,
    rescale: bool = True,
) -> Dynamics:
    """Scale a dynamics vector so the critical inverse temperature is 1.

    ``r`` may be the string ``"preferred"`` (take ``r_i = ln rho(A_i)``,
    which requires every global Perron root above 1) or a strictly positive
    vector, which is multiplied by ``max_i ln(rho_i)/r_i``. With
    ``rescale=False`` the vector must already be normalised.
    """
    if skel.n == 0:
        raise ValueError("cannot normalise a dynamics on the empty skeleton")
    decomp = analysis_of(skel)
    log_radii = []
    for i in range(skel.k):
        rho = decomp.global_radius(i)
        if rho <= 0.0:
            raise ValueError(f"colour {i} has Perron root 0; no positive dynamics exists")
        log_radii.append(math.log(rho))

    if isinstance(r, str):
        if r != "preferred":
            raise ValueError(f"unknown dynamics keyword {r!r}")
        if any(lr <= CRITICAL_RTOL for lr in log_radii):
            raise ValueError(
                "preferred dynamics undefined: some global Perron root is <= 1"
            )
        r_vec = tuple(log_radii)
        factor = 1.0
    else:
        raw = tuple(float(t) for t in r)
        if len(raw) != skel.k:
            raise ValueError(f"expected {skel.k} dynamics entries, got {len(raw)}")
        if any(t <= 0 for t in raw):
            raise ValueError("dynamics entries must be strictly positive")
        factor = max(lr / t for lr, t in zip(log_radii, raw))
        if factor <= 0:
            raise ValueError(
                "all Perron roots are <= 1; no critical inverse temperature exists"
            )
        if rescale:
            r_vec = tuple(factor * t for t in raw)
        else:
            if abs(factor - 1.0) > CRITICAL_RTOL:
                raise ValueError(
                    f"dynamics not normalised (max ln(rho)/r = {factor:.12g}); "
                    "pass rescale=True to normalise"
                )
            r_vec = raw
            factor = 1.0

    critical = frozenset(
        i
        for i in range(skel.k)
        if abs(log_radii[i] - r_vec[i]) <= CRITICAL_RTOL * max(1.0, r_vec[i])
    )
    return Dynamics(
        r=r_vec,
        normalization_factor=factor,
        rationally_independent=bool(rationally_independent),
        preferred=len(critical) == skel.k,
        critical_colours=critical,
        log_radii=tuple(log_radii),
    )


def critical_components(skel: Skeleton, dyn: Dynamics) -> CriticalityReport:
    """Label every component with the colours in which it is critical.

    A component is critical in colour j when j attains the normalised
    maximum globally, the component's colour-j Perron root equals
    ``exp(r_j)``, and its colour-j block is irreducible. Near-ties within a
    few orders of the detection tolerance are surfaced as warnings rather
    than silently classified.
    """
    if skel.n == 0:
        return CriticalityReport((), frozenset(), ())
    decomp = analysis_of(skel)
    global_log = []
    for i in range(skel.k):
        rho = decomp.global_radius(i)
        if rho <= 0:
            raise ValueError(f"colour {i} has Perron root 0")
        global_log.append(math.log(rho))
    ratios = [global_log[i] / dyn.r[i] for i in range(skel.k)]
    if abs(max(ratios) - 1.0) > CRITICAL_RTOL:
        raise ValueError(
            f"dynamics is not normalised for this skeleton (max ratio {max(ratios):.12g})"
        )
    active = frozenset(i for i in range(skel.k) if abs(ratios[i] - 1.0) <= CRITICAL_RTOL)

    warnings: list[str] = []
    by_component = []
    for c in range(decomp.count):
        cols = set()
        for j in active:
            rho = decomp.radii[c][j]
            if rho <= 0:
                continue
            gap = abs(math.log(rho) - dyn.r[j])
            tol = CRITICAL_RTOL * max(1.0, dyn.r[j])
            if gap <= tol:
                if decomp.irreducible[c][j]:
                    cols.add(j)
            elif gap <= 1e3 * tol:
                warnings.append(
                    f"component {c} colour {j}: Perron root within {gap:.2e} of the "
                    "critical weight; classification is degenerate, tighten input"
                )
        by_component.append(frozenset(cols))
    return CriticalityReport(tuple(by_component), active, tuple(warnings))


def _minimal_critical(decomp, crit: CriticalityReport) -> tuple[int, ...]:
    """Critical components with no other critical component receiving from them."""
    crit_idx = crit.critical_indices()
    out = []
    for c in crit_idx:
        if not any(d != c and decomp.leq[d][c] for d in crit_idx):
            out.append(c)
    return tuple(out)


def removal_set(skel: Skeleton, dyn: Dynamics, allow_violations: bool = False) -> frozenset[int]:
    """Vertices to drop so every remaining critical component is hereditary.

    The hereditary closure of the union of the minimal critical components,
    minus that union, is itself hereditary; removing it keeps exactly the
    minimal critical components critical and makes each of them hereditary.
    """
    with analysis_scope():
        _require_assumptions(skel, allow_violations)
        return _removal_set(skel, dyn)


def _require_assumptions(skel: Skeleton, allow_violations: bool) -> None:
    if allow_violations:
        return
    report = check_assumptions(skel)
    if not report.all_pass:
        raise AssumptionError(report)


def _removal_set(skel: Skeleton, dyn: Dynamics) -> frozenset[int]:
    decomp = analysis_of(skel)
    crit = critical_components(skel, dyn)
    minimal = _minimal_critical(decomp, crit)
    if not minimal:
        raise ValueError("no critical components found; is the dynamics normalised?")
    core = set()
    for c in minimal:
        core.update(decomp.components[c])
    closure = hereditary_closure(skel, core)
    return frozenset(closure - core)


def _embed(m: Sequence[float], from_labels: Sequence[str], to_labels: Sequence[str]) -> tuple[float, ...]:
    pos = {label: i for i, label in enumerate(to_labels)}
    out = [0.0] * len(to_labels)
    for value, label in zip(m, from_labels):
        out[pos[label]] = float(value)
    return tuple(out)


def _embed_state(state: ExtremeState, from_labels, to_labels, beta=None) -> ExtremeState:
    return replace(
        state,
        m=_embed(state.m, from_labels, to_labels),
        beta=state.beta if beta is None else beta,
    )


def _certify(skel: Skeleton, dyn: Dynamics, beta: float, m, context: str) -> None:
    check = verify_state(skel, dyn, beta, m, tol=STATE_TOL)
    if not check.passed:
        raise EigenConsistencyError(f"{context}: constructed state fails verification: {check}")


def psi_state(skel: Skeleton, dyn: Dynamics, component: Iterable[int], depth: int = 0) -> ExtremeState:
    """Critical state carried by one hereditary critical component.

    The extension of the component's Perron vector is normalised to total
    weight 1; the support covers the component and everything that receives
    a path from it. The state descends to the Cuntz-Krieger quotient exactly
    when every ``r_i`` matches the log of the component's colour-i root.
    """
    ext = extend_eigenvector(skel, component)
    z = np.array(ext.z)
    m = tuple(float(t) for t in z / z.sum())
    factors = all(
        abs(dyn.r[i] - math.log(ext.component_radii[i])) <= CRITICAL_RTOL * max(1.0, dyn.r[i])
        for i in range(skel.k)
    )
    anchor = tuple(skel.vertex_labels[v] for v in ext.d)
    _certify(skel, dyn, 1.0, m, f"component state for {anchor}")
    return ExtremeState(
        beta=1.0,
        m=m,
        kind=KIND_COMPONENT,
        anchor=anchor,
        depth=depth,
        factors_through_ck=factors,
    )


def supercritical_extremes(
    skel: Skeleton, dyn: Dynamics, beta: float, depth: int = 0
) -> tuple[ExtremeState, ...]:
    """One extreme state per vertex, valid strictly above criticality.

    For each vertex the point mass is pushed through the inverse of the
    product ``prod_i (1 - e^(-beta r_i) A_i)`` and normalised; every factor
    is invertible because ``beta r_i`` strictly exceeds ``ln rho(A_i)``.
    """
    if skel.n == 0:
        return ()
    decomp = analysis_of(skel)
    arrays = skel.as_arrays()
    for i in range(skel.k):
        margin = beta * dyn.r[i] - math.log(max(decomp.global_radius(i), 1e-300))
        if margin <= 0:
            raise ValueError(
                f"beta={beta:.12g} is at or below criticality in colour {i} for this skeleton"
            )
    n = skel.n
    # Row v of ``vecs`` is vertex v's vector, pushed through one factor per
    # colour. Each colour is one stacked solve of n single-right-hand-side
    # systems, the same LAPACK call per system as solving them one by one;
    # one factorisation with n right-hand sides would round differently.
    vecs = np.eye(n)
    for i in range(skel.k):
        factor = np.eye(n) - math.exp(-beta * dyn.r[i]) * arrays[i]
        sols = np.linalg.solve(np.broadcast_to(factor, (n, n, n)), vecs[:, :, None])[:, :, 0]
        # Normwise backward error: near a critical value the solution
        # grows like 1/margin, and so does the rounding in F x.
        resid = np.abs(sols @ factor.T - vecs).max(axis=1)
        norm = float(np.abs(factor).sum(axis=1).max())
        scale = np.maximum(norm * np.abs(sols).max(axis=1), np.abs(vecs).max(axis=1))
        bad = np.flatnonzero(resid > SOLVE_RESIDUAL_TOL * scale)
        if bad.size:
            raise EigenConsistencyError(
                f"supercritical solve residual {resid[bad[0]]:.3e} in colour {i}"
            )
        vecs = sols
    states = []
    for v, vec in enumerate(vecs):
        m = tuple(float(t) for t in vec / vec.sum())
        label = skel.vertex_labels[v]
        _certify(skel, dyn, beta, m, f"point-mass state at {label}")
        states.append(
            ExtremeState(
                beta=float(beta),
                m=m,
                kind=KIND_POINT_MASS,
                anchor=(label,),
                depth=depth,
                factors_through_ck=False,
            )
        )
    return tuple(states)


def _kms1_parts(skel: Skeleton, dyn: Dynamics, depth: int):
    """Critical-temperature machinery shared by the API call and the sweep.

    Returns the extreme states at beta = 1 (in the frame of ``skel``), the
    quotient skeleton left after dropping the removal set and the surviving
    critical components, and the criticality report they came from. The
    caller has checked the assumptions.
    """
    inner = restrict(skel, _removal_set(skel, dyn))
    inner_decomp = analysis_of(inner)
    inner_crit = critical_components(inner, dyn)
    crit_idx = inner_crit.critical_indices()
    if not crit_idx:
        raise ValueError("no critical components after removal; inconsistent dynamics")

    states: list[ExtremeState] = []
    core = set()
    for c in crit_idx:
        comp = inner_decomp.components[c]
        state = psi_state(inner, dyn, comp, depth=depth)
        states.append(_embed_state(state, inner.vertex_labels, skel.vertex_labels))
        core.update(comp)
    quotient = restrict(inner, core)
    if quotient.n:
        for state in supercritical_extremes(quotient, dyn, 1.0, depth=depth):
            states.append(_embed_state(state, quotient.vertex_labels, skel.vertex_labels))
    return tuple(states), quotient, inner_crit


def kms1_extremes(skel: Skeleton, dyn: Dynamics, allow_violations: bool = False) -> tuple[ExtremeState, ...]:
    """Extreme equilibrium states at the critical inverse temperature 1.

    First the redundant feeders of non-minimal critical components are
    removed, then each surviving (now hereditary) critical component
    contributes its extension state, and the quotient with all critical
    components dropped contributes one lifted point-mass state per vertex.
    """
    with analysis_scope():
        _require_assumptions(skel, allow_violations)
        states, _, _ = _kms1_parts(skel, dyn, depth=0)
    return states


def _symbolic_beta(skel: Skeleton, r: Sequence[float]) -> str | None:
    """Render a critical value as ln(a)/ln(b) when both sides snap to integers."""
    decomp = analysis_of(skel)
    radii = [decomp.global_radius(i) for i in range(skel.k)]
    best_i, best = 0, -math.inf
    for i, rho in enumerate(radii):
        if rho <= 0:
            continue
        ratio = math.log(rho) / r[i]
        if ratio > best:
            best, best_i = ratio, i
    if best == -math.inf:
        return None
    if abs(best - 1.0) <= 1e-12:
        return "1"
    a = radii[best_i]
    b = math.exp(r[best_i])
    a_int, b_int = round(a), round(b)
    if (
        a_int >= 2
        and b_int >= 2
        and abs(a - a_int) <= 1e-9 * a_int
        and abs(b - b_int) <= 1e-9 * b_int
    ):
        return f"ln({a_int})/ln({b_int})"
    return None


def phase_diagram(skel: Skeleton, dyn: Dynamics, allow_violations: bool = False) -> PhaseDiagram:
    """Full simplex structure across every inverse temperature.

    Sweeps downward: above the current critical value the simplex is the
    per-vertex family on the current quotient; at the critical value the
    states of ``kms1_extremes`` appear (rescaled onto the original axis);
    below it the recursion continues on the quotient minus its critical
    components, split into pieces that do not interact. The recursion
    terminates because every round removes at least one component.
    Assumptions are checked once, here: every piece of a passing graph
    passes too, since restriction keeps its components' analysis intact.
    """
    with analysis_scope():
        _require_assumptions(skel, allow_violations)
        return _assemble(skel, dyn, _removal_pieces(skel, dyn))


def _removal_pieces(skel: Skeleton, dyn: Dynamics) -> list[PhasePiece]:
    """Every node of the removal recursion, parents before children."""
    pieces: list[PhasePiece] = []

    def process(sub: Skeleton, beta_start: float, depth: int) -> None:
        sub_dyn = normalize_dynamics(sub, r=dyn.r, rationally_independent=dyn.rationally_independent)
        beta_c = sub_dyn.normalization_factor
        states, quotient, crit = _kms1_parts(sub, sub_dyn, depth)
        embedded = tuple(
            _embed_state(s, sub.vertex_labels, skel.vertex_labels, beta=beta_c) for s in states
        )
        pieces.append(
            PhasePiece(
                skeleton=sub,
                vertices=tuple(skel.index_of(lab) for lab in sub.vertex_labels),
                beta_start=beta_start,
                beta_crit=beta_c,
                symbolic_beta=_symbolic_beta(sub, dyn.r),
                critical_states=embedded,
                depth=depth,
                sources_present=sub.has_sources,
                warnings=crit.warnings,
            )
        )
        for nxt in split_isolated(quotient):
            process(nxt, beta_c, depth + 1)

    for top in split_isolated(skel):
        process(top, math.inf, 0)
    return pieces


def _merged_betas(pieces: Sequence[PhasePiece]) -> dict[float, float]:
    """Map every critical value, and infinity, to the head of its near-tie cluster.

    Values within ``CRITICAL_RTOL * max(1, beta)`` of a larger one are the
    same critical value computed along different routes; the largest value
    of such a cluster represents it.
    """
    snap = {math.inf: math.inf}
    head = None
    for b in sorted({p.beta_crit for p in pieces}, reverse=True):
        if head is None or head - b > CRITICAL_RTOL * max(1.0, head):
            head = b
        snap[b] = head
    return snap


def _assemble(skel: Skeleton, dyn: Dynamics, pieces: list[PhasePiece]) -> PhaseDiagram:
    snap = _merged_betas(pieces)
    betas = sorted({snap[p.beta_crit] for p in pieces}, reverse=True)
    critical_points = []
    symbolic: list[str | None] = []
    for b in betas:
        bucket: list[ExtremeState] = []
        sym = None
        for p in pieces:
            if snap[p.beta_crit] == b:
                bucket.extend(replace(s, beta=b) for s in p.critical_states)
                if sym is None:
                    sym = p.symbolic_beta
            elif snap[p.beta_crit] < b < snap[p.beta_start]:
                for s in supercritical_extremes(p.skeleton, dyn, b, depth=p.depth):
                    bucket.append(_embed_state(s, p.skeleton.vertex_labels, skel.vertex_labels))
        critical_points.append(tuple(bucket))
        symbolic.append(sym)

    intervals = []
    prev = math.inf
    for b in betas:
        alive = [p for p in pieces if snap[p.beta_crit] <= b and snap[p.beta_start] >= prev]
        intervals.append(
            Interval(
                lo=b,
                hi=prev,
                piece_labels=tuple(p.skeleton.vertex_labels for p in alive),
                extreme_count=sum(len(p.vertices) for p in alive),
            )
        )
        prev = b

    return PhaseDiagram(
        vertex_labels=skel.vertex_labels,
        r=dyn.r,
        rationally_independent=dyn.rationally_independent,
        critical_betas=tuple(betas),
        symbolic_betas=tuple(symbolic),
        critical_points=tuple(critical_points),
        intervals=tuple(intervals),
        terminal_beta=betas[-1],
        pieces=tuple(pieces),
    )


def extreme_states_at(
    skel: Skeleton,
    dyn: Dynamics,
    beta: float,
    diagram: PhaseDiagram | None = None,
    match_rtol: float = 1e-9,
    allow_violations: bool = False,
) -> tuple[ExtremeState, ...]:
    """Extreme states at an arbitrary inverse temperature.

    Values within ``match_rtol`` of a critical value resolve to that
    critical point; otherwise the surviving quotient pieces straddling
    ``beta`` are evaluated supercritically. Below the terminal value the
    state set is empty.
    """
    if beta <= 0:
        raise ValueError("inverse temperature must be positive")
    with analysis_scope():
        diag = diagram if diagram is not None else phase_diagram(skel, dyn, allow_violations)
        for b, states in zip(diag.critical_betas, diag.critical_points):
            if abs(beta - b) <= match_rtol * max(1.0, b):
                return states
        if beta < diag.terminal_beta:
            return ()
        out: list[ExtremeState] = []
        for p in diag.pieces:
            if p.beta_crit < beta < p.beta_start:
                for s in supercritical_extremes(p.skeleton, dyn, beta, depth=p.depth):
                    out.append(_embed_state(s, p.skeleton.vertex_labels, skel.vertex_labels))
        return tuple(out)


def _growth(beta: float, r: float) -> float:
    """The factor ``e^(beta r)``; ``ValueError`` where it overflows a float."""
    try:
        return math.exp(beta * r)
    except OverflowError:
        raise ValueError(
            f"e^(beta r) overflows at beta={beta:.12g}, r={r:.12g}: states at this "
            "inverse temperature cannot be checked in floating point"
        ) from None


def verify_state(skel: Skeleton, dyn: Dynamics, beta: float, m, tol: float = STATE_TOL) -> StateCheck:
    """Check the defining inequalities of an equilibrium vertex vector.

    Requires total weight 1, nonnegativity, the per-colour bound
    ``A_i m <= e^(beta r_i) m`` and entrywise nonnegativity of
    ``prod_i (1 - e^(-beta r_i) A_i) m``, each up to ``tol``.
    """
    vec = np.array([float(t) for t in m])
    if vec.shape != (skel.n,):
        raise ValueError(f"state vector has length {vec.size}, expected {skel.n}")
    arrays = skel.as_arrays()
    l1_error = abs(float(vec.sum()) - 1.0)
    min_entry = float(vec.min()) if vec.size else 0.0
    colour_violation = 0.0
    for i in range(skel.k):
        excess = arrays[i] @ vec - _growth(beta, dyn.r[i]) * vec
        colour_violation = max(colour_violation, float(excess.max()))
    gap = vec.copy()
    for i in range(skel.k):
        gap = gap - math.exp(-beta * dyn.r[i]) * (arrays[i] @ gap)
    product_violation = float((-gap).max()) if gap.size else 0.0
    passed = (
        l1_error <= tol
        and min_entry >= -tol
        and colour_violation <= tol
        and product_violation <= tol
    )
    return StateCheck(
        passed=passed,
        l1_error=l1_error,
        min_entry=min_entry,
        colour_violation=colour_violation,
        product_violation=product_violation,
    )


def factors_through(skel: Skeleton, dyn: Dynamics, beta: float, m, tol: float = STATE_TOL) -> bool:
    """Whether a state descends to the Cuntz-Krieger quotient.

    The state with vertex vector ``m`` factors exactly when ``m`` is a
    common eigenvector with ``A_i m = e^(beta r_i) m`` for every colour:
    that is the condition for the vertex projections to saturate the
    quotient relations. (The product gap can vanish termwise without the
    state factoring, so the per-colour form is the safe test.)
    """
    vec = np.array([float(t) for t in m])
    if vec.shape != (skel.n,):
        raise ValueError(f"state vector has length {vec.size}, expected {skel.n}")
    arrays = skel.as_arrays()
    worst = 0.0
    for i in range(skel.k):
        worst = max(
            worst,
            float(np.max(np.abs(arrays[i] @ vec - _growth(beta, dyn.r[i]) * vec))),
        )
    return worst <= tol
