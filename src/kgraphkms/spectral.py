"""Perron roots and eigenvector machinery for commuting nonnegative matrices.

Spectral radii are computed per strongly connected block by Noda's shifted
inverse iteration, whose every iterate is a strictly positive vector and so
carries a Collatz–Wielandt bracket that certifies the root; reducible
matrices are handled exactly as the maximum over their diagonal blocks. No
dense eigensolve runs. The colour blocks of one component share a Perron
vector, which one iteration on their sum gives together with every block's
root, and the graph analysis stores them per component. The extension step
reads a hereditary component's vector and roots straight from that
analysis, in ``_partition_for``, which also checks its preconditions and
cuts its blocks, and solves a dense linear system per colour to continue
the vector across the components that feed from it; the tests check it
against a truncated path-weight series. Every comparison of
Perron roots, log radii and critical values in the package goes through
``_ties`` and ``_exceeds``, one band of ``RADIUS_BAND_RTOL``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from ._digraph import irreducible, succ_lists, tarjan_sccs

SOLVE_RESIDUAL_TOL = 1e-10
RADIUS_BAND_RTOL = 1e-9
# Noda iteration converges quadratically on irreducible blocks; a block that
# needs this many steps raises instead.
NODA_MAX_STEPS = 100

STATUS_NOT_MET = "hypothesis-not-met"
STATUS_HOLDS = "conclusion-holds"
STATUS_CONTRADICTION = "CONTRADICTION"


class EigenConsistencyError(RuntimeError):
    """A cross-check between two computation routes disagreed."""


@dataclass(frozen=True)
class PFResult:
    """Perron root of one matrix plus the (shared) unimodular eigenvector.

    ``bracket`` is the Collatz–Wielandt bracket ``(min_i (Ax)_i/x_i,
    max_i (Ax)_i/x_i)`` of the matrix at the shared vector; it contains
    ``radius`` and is at most ``RADIUS_BAND_RTOL`` wide, relative.
    """

    radius: float
    vector: tuple[float, ...]
    residual: float
    bracket: tuple[float, float] = (0.0, 0.0)


@dataclass(frozen=True)
class ExtensionResult:
    """Eigenvector of the full vertex matrices built from a hereditary component.

    ``d``, ``f`` and ``h`` partition the vertex set: the component itself,
    the vertices that receive a path from it, and the rest. ``z`` agrees
    with the component's Perron vector on ``d``, with the solved weight
    vector ``y`` on ``f``, and vanishes on ``h``; it is an eigenvector of
    every colour matrix with eigenvalue the component's per-colour Perron
    root.
    """

    d: tuple[int, ...]
    f: tuple[int, ...]
    h: tuple[int, ...]
    component_radii: tuple[float, ...]
    x: tuple[float, ...]
    y: tuple[float, ...]
    z: tuple[float, ...]
    solved_colours: tuple[int, ...]
    per_colour_residuals: tuple[float, ...]
    cross_colour_discrepancy: float
    exchange_identity_discrepancy: float


@dataclass(frozen=True)
class OrderingVerdict:
    """Outcome of the per-colour dominance check for a hereditary component.

    The status reports whether the ordering conclusion (the tested
    component's Perron root strictly dominates every other component in
    every colour) is true for this input. When it fails, the status says
    whether a hypothesis violation explains it (``hypothesis-not-met``) or
    not (``CONTRADICTION``, which must never occur and indicates a bug or
    invalid input). ``missing_bridges`` lists (component index, colour)
    pairs with no single-colour path into that component from the tested
    one; ``reversals`` lists (component index, colour, its radius, the
    tested component's radius) wherever dominance fails.
    """

    status: str
    hypothesis_met: bool
    dominant_colour_ok: bool
    missing_bridges: tuple[tuple[int, int], ...]
    reversals: tuple[tuple[int, int, float, float], ...]
    degenerate: tuple[str, ...]


def _as_float_matrix(matrix) -> np.ndarray:
    arr = np.array(matrix, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("expected a square matrix")
    if arr.size and arr.min() < 0:
        raise ValueError("expected a nonnegative matrix")
    return arr


def _collatz_wielandt(matrix: np.ndarray, x: np.ndarray) -> tuple[float, float]:
    """Bracket ``min_i (Ax)_i/x_i <= rho(A) <= max_i (Ax)_i/x_i`` for nonnegative A.

    Holds for every strictly positive ``x`` (Horn–Johnson 8.1.26); any
    other ``x`` gives the empty-handed bracket ``(-inf, inf)``.
    """
    if not np.all(x > 0):
        return -np.inf, np.inf
    ratios = (matrix @ x) / x
    return float(ratios.min()), float(ratios.max())


def _ties(a: float, b: float, bands: float = 1.0) -> bool:
    """Whether two Perron roots, log radii or critical values agree within ``bands`` radius bands.

    The band is ``RADIUS_BAND_RTOL`` of the larger magnitude, absolute below
    1. Plain floats, no numpy: the ordering fuzz runs it thousands of times.
    """
    return abs(a - b) <= bands * RADIUS_BAND_RTOL * max(1.0, abs(a), abs(b))


def _exceeds(a: float, b: float) -> bool:
    """Whether ``a`` lies above ``b`` by more than one radius band (see ``_ties``)."""
    return a - b > RADIUS_BAND_RTOL * max(1.0, abs(a), abs(b))


def _certified(bracket: tuple[float, float]) -> bool:
    # Relative to the bracket's upper end with no absolute floor: the floor
    # of ``_ties`` would loosen certification for roots below 1.
    lo, hi = bracket
    return bool(np.isfinite(lo) and hi - lo <= RADIUS_BAND_RTOL * abs(hi))


def _perron_block(block: np.ndarray) -> tuple[float, np.ndarray, tuple[float, float]]:
    """Certified Perron root and direction of an irreducible nonnegative block.

    Noda iteration (T. Noda, Numer. Math. 17, 1971) from the unit-sum
    constant vector. Each step shifts by the current Collatz–Wielandt upper
    bound ``hi > rho``, where ``hi I - B`` is a nonsingular M-matrix with a
    positive inverse, and solves the similar system ``D^-1 (hi I - B) D z =
    1`` with ``D = diag(x)``: the next vector ``D z``, scaled to unit sum, is
    strictly positive, and the entries of ``z`` are all of one size, so the
    solve resolves each entry to the same relative accuracy however widely
    they spread. Every iterate's bracket is a certificate; the iteration
    stops at a zero-width bracket or at the first step that does not narrow
    it, and ``NODA_MAX_STEPS`` steps without stopping raise
    ``EigenConsistencyError``. The root is ``sum(Bx)`` clamped into the
    bracket, which must be at most ``RADIUS_BAND_RTOL`` wide, relative.
    Returns (radius, unit-sum vector, bracket).
    """
    d = block.shape[0]
    x = np.full(d, 1.0 / d)
    bracket = _collatz_wielandt(block, x)
    steps = 0
    while bracket[0] < bracket[1]:
        if steps == NODA_MAX_STEPS:
            raise EigenConsistencyError(
                f"Perron root of a {d}x{d} block not settled after {steps} Noda steps: "
                f"Collatz-Wielandt bracket [{bracket[0]!r}, {bracket[1]!r}]"
            )
        steps += 1
        with np.errstate(all="ignore"):
            shifted = block * (-x / x[:, None])
            shifted.flat[:: d + 1] += bracket[1]
            try:
                z = np.linalg.solve(shifted, np.ones(d))
            except np.linalg.LinAlgError:
                break  # exactly singular: the bound is the root
            y = x * z
            y /= y.sum()
            narrower = _collatz_wielandt(block, y)  # (-inf, inf) unless y > 0
        if not narrower[1] - narrower[0] < bracket[1] - bracket[0]:
            break
        x, bracket = y, narrower
    if not _certified(bracket):
        raise EigenConsistencyError(
            f"Perron root of a {d}x{d} block not certified: Collatz-Wielandt "
            f"bracket [{bracket[0]!r}, {bracket[1]!r}] after {steps} Noda steps"
        )
    lo, hi = bracket
    return min(max(float((block @ x).sum()), lo), hi), x, bracket


def spectral_radius(matrix) -> float:
    """Perron root of a square nonnegative matrix, reducible or not.

    Computed blockwise over the strongly connected components of the
    support digraph and maximised, so no assumption of irreducibility is
    needed.
    """
    arr = _as_float_matrix(matrix)
    best = 0.0
    for comp in tarjan_sccs(succ_lists(arr > 0)):
        best = max(best, _perron_block(arr[np.ix_(comp, comp)])[0])
    return best


def _family_perron(
    mats: Sequence[np.ndarray], owner: str
) -> tuple[np.ndarray, tuple[float, ...], tuple[tuple[float, float], ...]]:
    """Shared Perron vector of commuting blocks with an irreducible sum, and each block's root.

    One certified Noda iteration on the sum (``_perron_block``) gives its
    Perron vector ``x > 0``, scaled to unit sum. The sum is irreducible, so
    ``x`` spans its Perron eigenspace, and each commuting block maps that
    eigenspace to itself: ``x`` is an eigenvector of every block, reducible
    ones included, and a nonnegative matrix with a positive eigenvector has
    its Perron root as that eigenvalue (Horn–Johnson 8.1.30). Each block's
    root is therefore ``sum(A x)``, clamped into the block's
    Collatz–Wielandt bracket at ``x``, which must be at most
    ``RADIUS_BAND_RTOL`` wide, relative, and the eigen residual
    ``max |A x - rho x|`` at most ``1e-9 max(1, rho)``, a safety check that
    a certified bracket implies up to rounding; if not,
    ``EigenConsistencyError`` names ``owner``, the colour and the bracket.
    Returns (read-only vector, roots, brackets).
    """
    total = np.zeros(mats[0].shape)
    for m in mats:
        total += m
    try:
        _, x, _ = _perron_block(total)
    except EigenConsistencyError as exc:
        raise EigenConsistencyError(f"{owner}, colour sum: {exc}") from None
    x.flags.writeable = False
    roots, brackets = [], []
    for i, m in enumerate(mats):
        ax = m @ x
        ratios = ax / x
        lo, hi = bracket = float(ratios.min()), float(ratios.max())
        if not _certified(bracket):
            raise EigenConsistencyError(
                f"{owner}, colour {i}: Collatz-Wielandt bracket [{lo!r}, {hi!r}] at the shared "
                f"Perron vector is wider than the radius band"
            )
        rho = min(max(float(ax.sum()), lo), hi)
        residual = float(np.max(np.abs(ax - rho * x)))
        if residual > 1e-9 * max(1.0, rho):
            raise EigenConsistencyError(
                f"{owner}, colour {i}: not simultaneously diagonalisable at the Perron root: "
                f"root {rho!r}, Collatz-Wielandt bracket [{lo!r}, {hi!r}] at the shared vector, "
                f"residual {residual:.3e}"
            )
        roots.append(rho)
        brackets.append(bracket)
    return x, tuple(roots), tuple(brackets)


def common_pf_eigenvector(family: Sequence) -> list[PFResult]:
    """Shared unimodular Perron vector of commuting irreducible matrices.

    The vector is computed once, from the sum of the family, and gives every
    member's root and Collatz–Wielandt bracket (``_family_perron``, which
    also bounds each eigen residual). Each root must lie within the radius
    band of the member's own ``spectral_radius``. Failing either check means
    the family was not simultaneously diagonalisable at the Perron root,
    i.e. the stated preconditions (irreducibility, commutation) were
    violated.
    """
    mats = [_as_float_matrix(m) for m in family]
    if not mats:
        raise ValueError("empty matrix family")
    if any(m.shape != mats[0].shape for m in mats):
        raise ValueError("family members differ in dimension")
    for i, m in enumerate(mats):
        if not irreducible(m > 0):
            raise ValueError(f"family member {i} is not irreducible")
    if len(mats[0]) > 1:  # 1x1 matrices always commute
        for i, j in combinations(range(len(mats)), 2):
            if not np.allclose(mats[i] @ mats[j], mats[j] @ mats[i], rtol=0, atol=1e-9):
                raise ValueError(f"family members {i} and {j} do not commute")
    x, roots, brackets = _family_perron(mats, "family")
    for i, (m, rho) in enumerate(zip(mats, roots)):
        own = spectral_radius(m)
        if not _ties(rho, own):
            raise EigenConsistencyError(
                f"family not simultaneously diagonalisable at the Perron root: member {i} "
                f"root {rho!r} at the shared vector, {own!r} on its own"
            )
    vector = tuple(x.tolist())
    return [
        PFResult(rho, vector, float(np.max(np.abs(m @ x - rho * x))), bracket)
        for m, rho, bracket in zip(mats, roots, brackets)
    ]


def _partition_for(skel, component: Iterable[int]):
    """The extension's preconditions and blocks for one component.

    Checks, in this order, that ``component`` holds vertex indices of a
    strongly connected component, that it is hereditary and that each of its
    colour blocks is irreducible. Returns the feeders F (the other vertices
    that receive a path from it), the component D and the rest H; from its
    analysis, the component's shared Perron vector and per-colour roots;
    each colour's Perron root over the feeder block, the largest of its
    components' roots since F is a union of components; and each colour's
    blocks ``(A[F, F], A[F, D])``, the two halves of the one block
    ``A[F, F + D]`` that ``Skeleton._cut`` cuts per colour.
    """
    from .components import _named_component

    skel, d, c = _named_component(skel, component)
    decomp = skel._analysis
    if decomp.leq[c].sum() > 1:  # another component has a path into it
        raise ValueError(f"component {d} is not hereditary")
    for i, flag in enumerate(decomp.irreducible[c]):
        if not flag:
            labels = ", ".join(skel.vertex_labels[v] for v in d)
            raise ValueError(f"component {{{labels}}} colour {i}: block is not irreducible")
    feeds = decomp.leq[:, c]
    feeders = [e for e in np.flatnonzero(feeds).tolist() if e != c]
    fed = feeds[decomp._labels]
    f = np.flatnonzero(fed & (decomp._labels != c)).tolist()
    h = np.flatnonzero(~fed).tolist()
    feeder_radii = [max([0.0] + [decomp.radii[e][i] for e in feeders]) for i in range(skel.k)]
    blocks = [(a[:, : len(f)], a[:, len(f) :]) for a in skel._cut(f, f + d, floats=True)]
    return f, d, h, decomp.vectors[c], decomp.radii[c], feeder_radii, blocks


def _extension(skel, component: Iterable[int]):
    """The extension of a component's Perron vector, with every check that can raise and no diagnostics.

    For each admissible colour ``i`` (one whose root over the component
    exceeds its root over the feeders) the feeder weights solve ``(rho_i I
    - E_i) y = B_i x``; each solve's residual is bounded, and the first
    admissible colour's solution must be nonnegative. ``extend_eigenvector``
    and the engine's component states both come from here. Returns ``z``,
    the float array equal to ``x`` on D, ``y`` on F and 0 on H; the
    component D and its roots; the feeders F and the rest H; its Perron
    vector ``x``; the admissible colours and their solutions, the rows of
    one array, the first being ``y``; and each colour's blocks ``(E_i,
    B_i)``.
    """
    f, d, h, x, radii, rho_e, blocks = _partition_for(skel, component)
    admissible = [i for i in range(skel.k) if _exceeds(radii[i], rho_e[i])]
    if not admissible:
        raise ValueError("no colour dominates the feeder blocks; extension undefined")
    solutions = np.zeros((len(admissible), len(f)))
    if f:
        # One stacked solve; LAPACK solves each system as it would alone.
        rhos = np.array([radii[i] for i in admissible])[:, None, None]
        systems = rhos * np.eye(len(f)) - np.array([blocks[i][0] for i in admissible])
        bx = np.array([blocks[i][1] @ x for i in admissible])
        solutions = np.linalg.solve(systems, bx[..., None])[..., 0]
        residuals = np.abs((systems @ solutions[..., None])[..., 0] - bx).max(axis=1)
        bad = np.flatnonzero(residuals > SOLVE_RESIDUAL_TOL * np.maximum(1.0, np.abs(bx).max(axis=1)))
        if bad.size:
            j = bad[0]
            raise EigenConsistencyError(
                f"linear solve residual {residuals[j]:.3e} above tolerance in colour {admissible[j]}"
            )
    y = solutions[0]
    if y.size and float(y.min()) < -1e-12:
        raise EigenConsistencyError("extension weight vector has negative entries")
    z = np.zeros(skel.n)
    z[f] = y
    z[d] = x
    return z, d, radii, f, h, x, admissible, solutions, blocks


def extend_eigenvector(skel, component: Iterable[int]) -> ExtensionResult:
    """Extend the component's Perron vector to an eigenvector of every colour.

    For each colour ``i`` in the dominated set, the weight vector over the
    feeders solves ``(rho_i I - E_i) y = B_i x`` where ``E_i`` and ``B_i``
    are the feeder and bridge blocks; dominance makes the system
    nonsingular, and commutation makes the answer colour-independent. The
    solve is repeated for every admissible colour (``_extension``, which
    raises on a bad residual or a negative weight). The diagnostics are
    added here only, and never raise: the spread of the solutions, the
    exchange identity ``(rho_i I - E_i) B_j x = (rho_j I - E_j) B_i x``
    over all colour pairs, and each colour's eigen residual ``|A_i z -
    rho_i z|``.
    """
    z, d, radii, f, h, x, admissible, solutions, blocks = _extension(skel, component)
    y = solutions[0]
    cross = exchange = 0.0
    if f:
        cross = float(np.abs(solutions - y).max())
        systems = [rho * np.eye(len(f)) - e for rho, (e, _) in zip(radii, blocks)]
        bx = [b @ x for _, b in blocks]
        # Every colour pair, admissible or not; the discrepancy of (i, j) is
        # that of (j, i), so each pair is taken once.
        for i, j in combinations(range(skel.k), 2):
            exchange = max(exchange, float(np.max(np.abs(systems[i] @ bx[j] - systems[j] @ bx[i]))))
    residuals = tuple(float(np.max(np.abs(a @ z - rho * z))) for a, rho in zip(skel.as_arrays(), radii))
    return ExtensionResult(
        d=tuple(d),
        f=tuple(f),
        h=tuple(h),
        component_radii=radii,
        x=tuple(x.tolist()),
        y=tuple(y.tolist()),
        z=tuple(z.tolist()),
        solved_colours=tuple(admissible),
        per_colour_residuals=residuals,
        cross_colour_discrepancy=cross,
        exchange_identity_discrepancy=exchange,
    )


def check_spectral_ordering(skel, component: Iterable[int], colour: int) -> OrderingVerdict:
    """Test whether one colour's dominance by a hereditary component propagates.

    Hypothesis: every component is coordinatewise irreducible, the tested
    component is hereditary, every other component receives single-colour
    paths from it in every colour, and its Perron root in the given colour
    strictly beats every other component's. Conclusion: the same strict
    dominance holds in every colour. Whenever the hypothesis is met the
    conclusion must hold; the verdict records which side failed otherwise.
    A colour outside ``range(k)`` raises ``ValueError``.
    """
    from .components import _named_component

    if not 0 <= colour < skel.k:
        raise ValueError(f"colour {colour} is not one of the {skel.k} colours 0..{skel.k - 1}")
    skel, _, d_idx = _named_component(skel, component)
    decomp = skel._analysis
    degenerate: list[str] = []
    if not all(decomp.coordinatewise_irreducible):
        degenerate.append("a component is not coordinatewise irreducible")
    if decomp.leq[d_idx].sum() > 1:
        degenerate.append("component under test is not hereditary")

    reach = decomp.colour_reach
    missing = [
        (c, i) for c in range(decomp.count) if c != d_idx for i in range(skel.k) if not reach[i][c, d_idx]
    ]

    rho_d = decomp.radii[d_idx]
    reversals = [
        (c, i, decomp.radii[c][i], rho_d[i])
        for c in range(decomp.count)
        if c != d_idx
        for i in range(skel.k)
        if not _exceeds(rho_d[i], decomp.radii[c][i])
    ]
    # Dominance in the given colour fails exactly at that colour's reversals.
    in_colour = [(c, rho_c) for c, i, rho_c, _ in reversals if i == colour]
    dominant_ok = not in_colour
    hypothesis_ok = not (degenerate or missing or in_colour)
    degenerate += [
        f"radii nearly tie in colour {colour} between components {c} and {d_idx}; tighten input"
        for c, rho_c in in_colour
        if _ties(rho_d[colour], rho_c)
    ]

    if not reversals:
        status = STATUS_HOLDS
    elif hypothesis_ok:
        status = STATUS_CONTRADICTION
    else:
        status = STATUS_NOT_MET
    return OrderingVerdict(
        status=status,
        hypothesis_met=hypothesis_ok,
        dominant_colour_ok=dominant_ok,
        missing_bridges=tuple(missing),
        reversals=tuple(reversals),
        degenerate=tuple(degenerate),
    )
