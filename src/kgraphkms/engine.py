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
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from .components import (
    AssumptionReport,
    ComponentDecomposition,
    _vertex_indices,
    analysed,
    check_assumptions,
    hereditary_closure,
    restrict,
    split_isolated,
)
from .skeleton import Skeleton
from .spectral import SOLVE_RESIDUAL_TOL, EigenConsistencyError, _exceeds, _extension, _ties

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

    ``analysis`` holds the skeleton the dynamics was normalised on and its
    decomposition. ``phase_diagram``, ``extreme_states_at``, ``removal_set``
    and ``kms1_extremes`` reuse that decomposition when they are asked about
    that very skeleton object, never an equal copy; a dynamics built
    without it makes them analyse the skeleton themselves.
    """

    r: tuple[float, ...]
    normalization_factor: float
    rationally_independent: bool
    preferred: bool
    critical_colours: frozenset[int]
    log_radii: tuple[float, ...]
    analysis: tuple[Skeleton, ComponentDecomposition] | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True, eq=False)
class ExtremeState:
    """One extreme equilibrium state at a fixed inverse temperature.

    ``m`` is the vertex vector, a read-only float64 array: the states that
    one call returns for one piece at one inverse temperature are the rows
    of one block. Equality and hashing are by value, with ``m`` taken as
    the tuple of its floats. ``kind`` records the provenance: ``component``
    states extend a critical component's Perron vector, ``point-mass``
    states are lifted from a vertex of a quotient in the strictly
    supercritical regime. ``anchor`` holds the defining vertex labels and
    ``depth`` the recursion stage that produced the state.
    """

    beta: float
    m: np.ndarray
    kind: str
    anchor: tuple[str, ...]
    depth: int
    factors_through_ck: bool

    def _key(self) -> tuple:
        return (self.beta, tuple(self.m.tolist()), self.kind, self.anchor, self.depth, self.factors_through_ck)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


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
    """One node of the removal recursion: a sub-skeleton and its critical data.

    ``vertices`` are the piece's vertex indices in the skeleton the diagram
    was asked about. ``skeleton`` carries its decomposition, which later
    evaluations of the diagram reuse.
    """

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
    ``_skeleton`` is the skeleton it was asked about, for ``extreme_states_at`` to compare.
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
    _skeleton: Skeleton = field(compare=False, repr=False)


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
    decomp = analysed(skel)._analysis
    log_radii = _log_radii(decomp, skel.k)

    if isinstance(r, str):
        if r != "preferred":
            raise ValueError(f"unknown dynamics keyword {r!r}")
        if not all(_exceeds(lr, 0.0) for lr in log_radii):
            raise ValueError(
                "preferred dynamics undefined: some global Perron root is <= 1"
            )
        r_vec = tuple(log_radii)
        factor = 1.0
    else:
        entries = tuple(r)
        if len(entries) != skel.k:
            raise ValueError(f"expected {skel.k} dynamics entries, got {len(entries)}")
        # A bool is no number, as in ``parse_input``.
        raw = tuple(math.nan if isinstance(t, (bool, np.bool_)) else float(t) for t in entries)
        for j, t in enumerate(raw):
            if not (math.isfinite(t) and t > 0):
                raise ValueError(f"dynamics entry {j} must be a finite number above 0, got {entries[j]!r}")
        ratios = [lr / t for lr, t in zip(log_radii, raw)]
        factor = max(ratios)
        scaled = tuple(factor * t for t in raw)
        # A tiny entry overflows the factor, a huge one its own scaled value.
        bad = [j for j, q in enumerate(ratios) if q == math.inf] or [
            j for j, t in enumerate(scaled) if math.isinf(t)
        ]
        if bad:
            raise ValueError(
                f"dynamics entry {bad[0]} ({raw[bad[0]]!r}) cannot be normalised: "
                "scaling it to critical inverse temperature 1 overflows a float"
            )
        if factor <= 0:
            raise ValueError(
                "all Perron roots are <= 1; no critical inverse temperature exists"
            )
        if rescale:
            r_vec = scaled
        else:
            if not _ties(factor, 1.0):
                raise ValueError(
                    f"dynamics not normalised (max ln(rho)/r = {factor:.12g}); "
                    "pass rescale=True to normalise"
                )
            r_vec = raw
            factor = 1.0

    critical = frozenset(i for i in range(skel.k) if _ties(log_radii[i], r_vec[i]))
    return Dynamics(
        r=r_vec,
        normalization_factor=factor,
        rationally_independent=bool(rationally_independent),
        preferred=len(critical) == skel.k,
        critical_colours=critical,
        log_radii=tuple(log_radii),
        analysis=(skel, decomp),
    )


def _analysed(skel: Skeleton, dyn: Dynamics) -> Skeleton:
    """``skel`` carrying its analysis, the one ``dyn`` holds if ``dyn`` was normalised on ``skel`` itself."""
    if skel.n == 0:
        raise ValueError("the skeleton is empty: it has no vertices, so no states")
    own = skel._analysis is None and dyn.analysis is not None and dyn.analysis[0] is skel
    return skel._twin(dyn.analysis[1]) if own else analysed(skel)


def _log_radii(decomp: ComponentDecomposition, k: int) -> list[float]:
    """``ln rho(A_i)`` for every colour; each global Perron root must be positive."""
    out = []
    for i in range(k):
        rho = decomp.global_radius(i)
        if rho <= 0.0:
            raise ValueError(f"colour {i} has Perron root 0; no positive dynamics exists")
        out.append(math.log(rho))
    return out


def critical_components(skel: Skeleton, dyn: Dynamics) -> CriticalityReport:
    """Label every component with the colours in which it is critical.

    A component is critical in colour j when j attains the normalised
    maximum globally (``ln rho(A_j)`` ties ``r_j``, as in
    ``normalize_dynamics``), the component's colour-j log Perron root ties
    ``r_j``, and its colour-j block is irreducible. Near-ties within a
    thousand bands are surfaced as warnings, naming the component by its
    vertex labels, rather than silently classified. A dynamics normalised
    on ``skel`` itself lends its analysis and log radii.
    """
    if skel.n == 0:
        return CriticalityReport((), frozenset(), ())
    decomp = _analysed(skel, dyn)._analysis
    own = dyn.analysis is not None and dyn.analysis[0] is skel
    log_radii = dyn.log_radii if own else _log_radii(decomp, skel.k)
    top = max(lr / r for lr, r in zip(log_radii, dyn.r))
    if not _ties(top, 1.0):
        raise ValueError(f"dynamics is not normalised for this skeleton (max ratio {top:.12g})")
    active = frozenset(i for i in range(skel.k) if _ties(log_radii[i], dyn.r[i]))

    warnings: list[str] = []
    by_component = []
    for c, comp in enumerate(decomp.components):
        cols = set()
        for j in active:
            rho = decomp.radii[c][j]
            if rho <= 0:
                continue
            log_rho = math.log(rho)
            if _ties(log_rho, dyn.r[j]):
                if decomp.irreducible[c][j]:
                    cols.add(j)
            elif _ties(log_rho, dyn.r[j], bands=1e3):
                warnings.append(
                    f"component {{{', '.join(skel.vertex_labels[v] for v in comp)}}} colour {j}: Perron root "
                    f"within {abs(log_rho - dyn.r[j]):.2e} of the critical weight; classification is "
                    "degenerate, tighten input"
                )
        by_component.append(frozenset(cols))
    return CriticalityReport(tuple(by_component), active, tuple(warnings))


def removal_set(skel: Skeleton, dyn: Dynamics, allow_violations: bool = False) -> frozenset[int]:
    """Vertices to drop so every remaining critical component is hereditary.

    The hereditary closure of the union of the minimal critical components,
    minus that union, is itself hereditary; removing it keeps exactly the
    minimal critical components critical and makes each of them hereditary.
    """
    skel = _analysed(skel, dyn)
    _require_assumptions(skel, allow_violations)
    _, core, closure = _minimal_core(skel, critical_components(skel, dyn))
    return closure - core


def _require_assumptions(skel: Skeleton, allow_violations: bool) -> None:
    if allow_violations:
        return
    report = check_assumptions(skel)
    if not report.all_pass:
        raise AssumptionError(report)


def _minimal_core(skel: Skeleton, crit: CriticalityReport):
    """The minimal critical components' vertex tuples, the union of their vertices and its hereditary closure."""
    decomp = analysed(skel)._analysis
    leq = decomp.leq
    crit_idx = crit.critical_indices()
    # Minimal: no other critical component receives a path from them.
    minimal = [decomp.components[c] for c in crit_idx if not any(d != c and leq[d, c] for d in crit_idx)]
    if not minimal:
        raise ValueError("no critical components found; is the dynamics normalised?")
    core = {v for comp in minimal for v in comp}
    return minimal, core, hereditary_closure(skel, core)


def _embedded(rows: np.ndarray, frame, size: int, beta: float, meta) -> list[ExtremeState]:
    """States whose vertex vectors are the rows of ``rows`` moved into a ``size``-vertex frame.

    Column j of ``rows`` lands on vertex ``frame[j]``, and every other
    vertex gets 0. The vectors are the rows of one read-only block, and
    ``meta`` gives each row's kind, anchor, depth and factoring flag.
    """
    out = np.zeros((len(rows), size))
    out[:, frame] = rows
    out.flags.writeable = False
    return [ExtremeState(beta, m, *rest) for m, rest in zip(out, meta)]


def _point_mass_meta(skel: Skeleton, depth: int):
    return [(KIND_POINT_MASS, (label,), depth, False) for label in skel.vertex_labels]


def _positions(sub: Skeleton, skel: Skeleton, vertices=slice(None)) -> np.ndarray:
    """Indices in ``skel`` of ``sub``'s ``vertices`` (default all), where ``sub`` is ``skel`` or was cut from it.

    Both hold sorted vertex indices in one root, so they are found by binary search.
    """
    return np.searchsorted(skel._at, sub._at[vertices])


def _certify(arrays, dyn: Dynamics, beta: float, rows: np.ndarray, context) -> None:
    """Raise unless every row passes ``verify_state``; ``context(j)`` names row j.

    ``arrays`` are the colour blocks of the skeleton the rows are states
    of, cut once by the caller (``Skeleton.as_arrays``). Decided on the
    margin arrays alone: a ``StateCheck`` is built only for the first
    failing row, to name it.
    """
    columns = _state_margins(arrays, dyn, beta, rows, STATE_TOL)
    failing = np.flatnonzero(~columns[0])
    if failing.size:
        j = int(failing[0])
        check = StateCheck(*(c[j].item() for c in columns))
        raise EigenConsistencyError(f"{context(j)}: constructed state fails verification: {check}")


def _psi(skel: Skeleton, dyn: Dynamics, component, depth: int):
    """A component state's vertex vector, not yet certified, and its kind, anchor, depth and factoring flag."""
    z, d, radii, *_ = _extension(skel, component)
    factors = all(_ties(math.log(rho), r) for rho, r in zip(radii, dyn.r))
    return z / z.sum(), (KIND_COMPONENT, tuple(skel.vertex_labels[v] for v in d), depth, factors)


def psi_state(skel: Skeleton, dyn: Dynamics, component: Iterable[int], depth: int = 0) -> ExtremeState:
    """Critical state carried by one hereditary critical component.

    The extension of the component's Perron vector (``spectral._extension``,
    the worker behind ``extend_eigenvector`` without its diagnostics) is
    normalised to total weight 1 and certified; the support covers the
    component and everything that receives a path from it. The state
    descends to the Cuntz-Krieger quotient exactly when every ``r_i``
    matches the log of the component's colour-i root.
    """
    m, meta = _psi(skel, dyn, component, depth)
    _certify(skel.as_arrays(), dyn, 1.0, m[None, :], lambda _: f"component state for {meta[1]}")
    m.flags.writeable = False
    return ExtremeState(1.0, m, *meta)


def supercritical_extremes(
    skel: Skeleton, dyn: Dynamics, beta: float, depth: int = 0, *, frame: Sequence[int] | None = None, size: int = 0
) -> tuple[ExtremeState, ...]:
    """One extreme state per vertex, valid strictly above criticality.

    For each vertex the point mass is pushed through the inverse of the
    product ``prod_i (1 - e^(-beta r_i) A_i)`` and normalised; every factor
    is invertible because ``beta r_i`` strictly exceeds ``ln rho(A_i)``.
    With ``frame``, the indices of ``skel``'s vertices in a larger skeleton
    of ``size`` vertices, the states are returned in that skeleton's frame.
    """
    beta = _inverse_temperature(beta)
    if frame is None:
        frame, size = range(skel.n), skel.n
    elif not _is_frame(frame, skel.n, size):
        raise ValueError(f"frame must hold {skel.n} distinct vertex indices in range({size}), got {frame!r}")
    if skel.n == 0:
        return ()
    arrays = skel.as_arrays()
    rows = _point_masses(skel, arrays, dyn, beta)
    _certify(arrays, dyn, beta, rows, lambda v: f"point-mass state at {skel.vertex_labels[v]}")
    return tuple(_embedded(rows, frame, size, beta, _point_mass_meta(skel, depth)))


def _is_frame(frame, n: int, size: int) -> bool:
    """``frame`` holds ``n`` distinct ints in ``range(size)``, read as ``_vertex_indices`` reads vertex sets."""
    try:
        return len(frame) == n == len(_vertex_indices(size, frame))
    except ValueError:
        return False


def _inverse_temperature(beta) -> float:
    """``beta`` as a float, or ``ValueError`` unless it is a finite number above 0."""
    value = float(beta)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"inverse temperature must be a finite number above 0, got {beta!r}")
    return value


def _point_masses(skel: Skeleton, arrays, dyn: Dynamics, beta: float) -> np.ndarray:
    """The point-mass states at ``beta`` on a non-empty skeleton with colour blocks ``arrays``: row v is vertex v's.

    Each solve's backward error is checked here; the caller certifies the
    rows (``_certify``).
    """
    decomp = analysed(skel)._analysis
    for i in range(skel.k):
        margin = beta * dyn.r[i] - math.log(max(decomp.global_radius(i), 1e-300))
        if margin <= 0:
            raise ValueError(
                f"beta={beta:.12g} is at or below criticality in colour {i} for this skeleton"
            )
    n = skel.n
    # Row v of ``vecs`` is vertex v's vector, pushed through one factor per
    # colour: one factorisation per colour, solved for all n right-hand sides.
    vecs = np.eye(n)
    for i in range(skel.k):
        factor = np.eye(n) - math.exp(-beta * dyn.r[i]) * arrays[i]
        sols = np.linalg.solve(factor, vecs.T).T
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
    return vecs / vecs.sum(axis=1, keepdims=True)


def _kms1_parts(skel: Skeleton, dyn: Dynamics, depth: int, top: Skeleton, beta: float):
    """Critical-temperature machinery shared by the API call and the sweep.

    Returns the extreme states at the critical value, labelled ``beta`` and
    embedded in the frame of ``top`` (``skel`` or a skeleton it was cut
    from), the quotient skeleton left after dropping the hereditary closure
    of the minimal critical components, and the piece's criticality report.
    The caller has checked the assumptions.

    Criticality is decided once, on ``skel``. Dropping the feeders of the
    minimal critical components leaves exactly those components critical:
    every dropped vertex feeds one of them, every other critical component
    feeds a minimal one and is dropped, and the active colours and the kept
    components' roots are unchanged.

    The component states (built on ``skel`` minus ``closure - core``) and
    the quotient's point masses (on ``skel`` minus ``closure``) are placed
    as the rows of one block in ``skel``'s frame, and that block is
    certified once, on ``skel``'s colour blocks. This is the same test as
    certifying each row on its own sub-skeleton. Each row vanishes on a set
    ``H`` that is hereditary in ``skel``, ``closure - core`` or
    ``closure``, and lives on its complement ``K``. ``H`` is closed under
    path sources, so ``A[H, K] = 0`` in every colour; then ``A m`` is ``A[K,
    K] m[K]`` on ``K`` and 0 on ``H``, and so is each factor ``(1 -
    e^(-beta r_i) A_i)`` of the product. On ``K`` every margin is the
    sub-skeleton's; on ``H`` every bounded quantity is 0, which passes, and
    the total weight is the same sum, up to its order. So the block passes
    exactly when each row passes on its sub-skeleton, and a failure names
    the same state.
    """
    crit = critical_components(skel, dyn)
    minimal, core, closure = _minimal_core(skel, crit)
    inner = restrict(skel, closure - core)
    quotient = restrict(skel, closure)
    block = np.zeros((len(minimal) + quotient.n, skel.n))
    at, meta = _positions(inner, skel), []
    for j, comp in enumerate(minimal):
        row, state_meta = _psi(inner, dyn, _positions(skel, inner, list(comp)), depth)
        block[j, at] = row
        meta.append(state_meta)
    if quotient.n:
        block[len(minimal) :, _positions(quotient, skel)] = _point_masses(quotient, quotient.as_arrays(), dyn, 1.0)
        meta += _point_mass_meta(quotient, depth)
    kinds = {KIND_COMPONENT: "component state for {}", KIND_POINT_MASS: "point-mass state at {[0]}"}
    _certify(skel.as_arrays(), dyn, 1.0, block, lambda j: kinds[meta[j][0]].format(meta[j][1]))
    return tuple(_embedded(block, _positions(skel, top), top.n, beta, meta)), quotient, crit


def kms1_extremes(skel: Skeleton, dyn: Dynamics, allow_violations: bool = False) -> tuple[ExtremeState, ...]:
    """Extreme equilibrium states at the critical inverse temperature 1.

    First the redundant feeders of non-minimal critical components are
    removed, then each surviving (now hereditary) critical component
    contributes its extension state, and the quotient with all critical
    components dropped contributes one lifted point-mass state per vertex.
    """
    skel = _analysed(skel, dyn)
    _require_assumptions(skel, allow_violations)
    states, _, _ = _kms1_parts(skel, dyn, 0, skel, 1.0)
    return states


def _symbolic_beta(skel: Skeleton, r: Sequence[float]) -> str | None:
    """Render a critical value as ln(a)/ln(b) when both sides snap to integers."""
    decomp = analysed(skel)._analysis
    ratios = [lr / ri for lr, ri in zip(_log_radii(decomp, skel.k), r)]
    best = max(ratios)
    if abs(best - 1.0) <= 1e-12:
        return "1"
    best_i = ratios.index(best)
    a = decomp.global_radius(best_i)
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
    carried = _analysed(skel, dyn)
    _require_assumptions(carried, allow_violations)
    return _assemble(skel, dyn, _removal_pieces(carried, dyn))


def _removal_pieces(skel: Skeleton, dyn: Dynamics) -> list[PhasePiece]:
    """Every node of the removal recursion, in preorder: parents before children.

    A stack, not nested calls, so Python's recursion limit bounds no depth;
    each quotient's pieces go on in reverse, to come off in order.
    """
    pieces: list[PhasePiece] = []
    stack = [(top, math.inf, 0) for top in reversed(split_isolated(skel))]
    while stack:
        sub, beta_start, depth = stack.pop()
        sub_dyn = normalize_dynamics(sub, r=dyn.r, rationally_independent=dyn.rationally_independent)
        beta_c = sub_dyn.normalization_factor
        states, quotient, crit = _kms1_parts(sub, sub_dyn, depth, skel, beta_c)
        pieces.append(
            PhasePiece(
                skeleton=sub,
                vertices=tuple(_positions(sub, skel).tolist()),
                beta_start=beta_start,
                beta_crit=beta_c,
                symbolic_beta=_symbolic_beta(sub, dyn.r),
                critical_states=states,
                depth=depth,
                sources_present=sub.has_sources,
                warnings=crit.warnings,
            )
        )
        stack += [(nxt, beta_c, depth + 1) for nxt in reversed(split_isolated(quotient))]
    return pieces


def _merged_betas(pieces: Sequence[PhasePiece]) -> dict[float, float]:
    """Map every critical value, and infinity, to the head of its near-tie cluster.

    Values that a larger one does not exceed (``_exceeds``) are the same
    critical value computed along different routes; the largest value of
    such a cluster represents it.
    """
    snap = {math.inf: math.inf}
    head = None
    for b in sorted({p.beta_crit for p in pieces}, reverse=True):
        if head is None or _exceeds(head, b):
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
                # A value merged into a larger one of its cluster takes that label.
                bucket.extend(s if s.beta == b else replace(s, beta=b) for s in p.critical_states)
                if sym is None:
                    sym = p.symbolic_beta
            elif snap[p.beta_crit] < b < snap[p.beta_start]:
                bucket.extend(
                    supercritical_extremes(p.skeleton, dyn, b, p.depth, frame=p.vertices, size=skel.n)
                )
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
        _skeleton=skel,
    )


def extreme_states_at(
    skel: Skeleton,
    dyn: Dynamics,
    beta: float,
    diagram: PhaseDiagram | None = None,
    allow_violations: bool = False,
) -> tuple[ExtremeState, ...]:
    """Extreme states at an arbitrary inverse temperature.

    Values that tie a critical value (``_ties``) resolve to that
    critical point; otherwise the surviving quotient pieces straddling
    ``beta`` are evaluated supercritically, reusing the analyses that the
    pieces of ``diagram`` carry. Below the terminal value the state set is
    empty. ``diagram`` must be for ``skel`` (or an equal skeleton) and ``dyn.r``.
    """
    beta = _inverse_temperature(beta)
    diag = diagram if diagram is not None else phase_diagram(skel, dyn, allow_violations)
    if diag.vertex_labels != skel.vertex_labels or diag.r != dyn.r:
        raise ValueError("the diagram was computed for other vertex labels or another dynamics vector r")
    if diag._skeleton is not skel and diag._skeleton != skel:
        raise ValueError("the diagram was computed for a skeleton with other colour matrices")
    for b, states in zip(diag.critical_betas, diag.critical_points):
        if _ties(beta, b):
            return states
    if beta < diag.terminal_beta:
        return ()
    out: list[ExtremeState] = []
    for p in diag.pieces:
        if p.beta_crit < beta < p.beta_start:
            out += supercritical_extremes(p.skeleton, dyn, beta, p.depth, frame=p.vertices, size=skel.n)
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
    return verify_states(skel, dyn, beta, vec[None, :], tol)[0]


def verify_states(skel: Skeleton, dyn: Dynamics, beta: float, rows, tol: float = STATE_TOL) -> tuple[StateCheck, ...]:
    """``verify_state`` for every row of an (s x n) matrix of vertex vectors.

    Each check bounds the entries of a state or of a linear image of it, so
    one matrix product per colour serves the whole batch.
    """
    m = np.asarray(rows, dtype=float)
    if len(m) == 0:
        return ()
    if m.ndim != 2 or m.shape[1] != skel.n:
        raise ValueError(f"states have shape {m.shape}, expected (s, {skel.n})")
    return tuple(map(StateCheck, *(c.tolist() for c in _state_margins(skel.as_arrays(), dyn, beta, m, tol))))


def _state_margins(arrays, dyn: Dynamics, beta: float, m: np.ndarray, tol: float):
    """The ``StateCheck`` fields of every row of the (s x n) float matrix ``m``, as arrays.

    ``arrays`` are the n x n float colour blocks the rows are checked against.
    """
    l1_error = np.abs(m.sum(axis=1) - 1.0)
    min_entry = colour_violation = product_violation = np.zeros(len(m))
    if m.shape[1]:
        min_entry = m.min(axis=1)
        gap = m
        for a, r in zip(arrays, dyn.r):
            colour_violation = np.maximum(colour_violation, (m @ a.T - _growth(beta, r) * m).max(axis=1))
            gap = gap - math.exp(-beta * r) * (gap @ a.T)
        product_violation = (-gap).max(axis=1)
    passed = (l1_error <= tol) & (min_entry >= -tol) & (colour_violation <= tol) & (product_violation <= tol)
    return passed, l1_error, min_entry, colour_violation, product_violation

