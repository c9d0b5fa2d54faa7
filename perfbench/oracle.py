"""Output checks that do not rely on the engine's own certification.

The expected phase structure is re-derived here from scratch: strongly
connected components come from ``scipy.sparse.csgraph``, a single-vertex
component's Perron root is its loop count (the closed form for the
triangular chain and dumbbell graphs), and a larger component's root is the
largest eigenvalue modulus from ``scipy.linalg.eigvals``. A short removal
recursion over that condensation then predicts every critical value, the
number of extreme states at each one and each interval's extreme count.
Every state the program emits is re-checked with the public
``verify_state`` against dynamics built from these independent radii.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvals
from scipy.sparse.csgraph import connected_components

from kgraphkms import Skeleton, verify_state
from kgraphkms.engine import Dynamics

STATE_TOL = 1e-9
BETA_RTOL = 1e-12
RADIUS_RTOL = 1e-9
# Same relative band the engine uses to call a component critical.
CRITICAL_RTOL = 1e-9


@dataclass(frozen=True)
class Piece:
    size: int
    beta_start: float
    beta_crit: float
    states_at_crit: int


@dataclass(frozen=True)
class Expected:
    """Independently derived phase structure of one graph."""

    dyn: Dynamics
    critical_betas: tuple[float, ...]
    pieces: tuple[Piece, ...]

    def count_at(self, beta: float) -> int:
        """Extreme states at ``beta``, critical or not."""
        total = 0
        for p in self.pieces:
            if _close(p.beta_crit, beta):
                total += p.states_at_crit
            elif p.beta_crit < beta < p.beta_start:
                total += p.size
        return total

    def interval_counts(self) -> list[int]:
        prev, out = math.inf, []
        for b in self.critical_betas:
            alive = [p for p in self.pieces if p.beta_crit <= b * (1 + BETA_RTOL) and p.beta_start >= prev]
            out.append(sum(p.size for p in alive))
            prev = b
        return out

    def interior_beta(self) -> float:
        """A beta strictly inside an open interval: the highest finite one if any."""
        b = self.critical_betas
        return (b[0] + b[1]) / 2 if len(b) > 1 else 1.5 * b[0]

    def above_terminal_beta(self) -> float:
        """1% above the terminal value, or halfway to the next critical value.

        Closer in, ``supercritical_extremes`` rejects correct solves on
        graphs with repeated loop counts (see the README's defect list).
        """
        b = self.critical_betas
        gap = b[-2] - b[-1] if len(b) > 1 else math.inf
        return b[-1] + min(0.01 * b[-1], gap / 2)


def _close(a: float, b: float, rtol: float = BETA_RTOL) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(b))


def _condensation(skel: Skeleton):
    """Components, per-colour radii and component edges, from scipy alone."""
    mats = [np.array(m, dtype=float) for m in skel.matrices]
    support = sum(m > 0 for m in mats)
    count, label = connected_components(support, directed=True, connection="strong")
    comps = [np.flatnonzero(label == c) for c in range(count)]
    radii = []
    for comp in comps:
        if len(comp) == 1:
            v = comp[0]
            radii.append(tuple(float(m[v][v]) for m in skel.matrices))
        else:
            blocks = [m[np.ix_(comp, comp)] for m in mats]
            radii.append(tuple(float(np.max(np.abs(eigvals(b)))) for b in blocks))
    # feeds[c] holds the components d with an edge from d into c.
    feeds = [set() for _ in range(count)]
    for v, w in zip(*np.nonzero(support)):
        if label[v] != label[w]:
            feeds[label[v]].add(int(label[w]))
    return [len(c) for c in comps], radii, feeds


def _sources_within(feeds, s: frozenset, c: int) -> set:
    """Components inside ``s`` with a path into ``c`` that stays inside ``s``."""
    seen, todo = set(), [c]
    while todo:
        for d in feeds[todo.pop()]:
            if d in s and d not in seen:
                seen.add(d)
                todo.append(d)
    return seen


def _weak_pieces(feeds, s: frozenset) -> list[frozenset]:
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


def expected(skel: Skeleton) -> Expected:
    """Phase structure of ``skel`` under preferred dynamics."""
    sizes, radii, feeds = _condensation(skel)
    k = skel.k
    log_radii = tuple(math.log(max(r[j] for r in radii)) for j in range(k))
    dyn = Dynamics(
        r=log_radii,
        normalization_factor=1.0,
        rationally_independent=True,
        preferred=True,
        critical_colours=frozenset(range(k)),
        log_radii=log_radii,
    )
    pieces: list[Piece] = []

    def run(s: frozenset, beta_start: float) -> None:
        beta = max(math.log(radii[c][j]) / log_radii[j] for c in s for j in range(k))
        crit = {
            c
            for c in s
            for j in range(k)
            if abs(math.log(radii[c][j]) - beta * log_radii[j])
            <= CRITICAL_RTOL * max(1.0, beta * log_radii[j])
        }
        feeders = {c: _sources_within(feeds, s, c) for c in crit}
        minimal = {c for c in crit if not any(c in feeders[d] for d in crit if d != c)}
        removed = set().union(*(feeders[c] for c in minimal)) - minimal
        quotient = frozenset(s - removed - minimal)
        size = sum(sizes[c] for c in s)
        pieces.append(Piece(size, beta_start, beta, len(minimal) + sum(sizes[c] for c in quotient)))
        for nxt in _weak_pieces(feeds, quotient):
            run(nxt, beta)

    for top in _weak_pieces(feeds, frozenset(range(len(sizes)))):
        run(top, math.inf)
    betas: list[float] = []
    for b in sorted((p.beta_crit for p in pieces), reverse=True):
        if not betas or not _close(b, betas[-1]):
            betas.append(b)
    return Expected(dyn, tuple(betas), tuple(pieces))


class Oracle:
    """Checks reports and library results for one graph; collects failures."""

    def __init__(self, skel: Skeleton):
        self.skel = skel
        self.exp = expected(skel)

    def _states(self, states, beta: float, where: str) -> list[str]:
        errors = []
        for s in states:
            if not _close(s[0], beta):
                errors.append(f"{where}: state at beta {s[0]!r}, expected {beta!r}")
            check = verify_state(self.skel, self.exp.dyn, s[0], s[1], tol=STATE_TOL)
            if not check.passed:
                errors.append(f"{where}: state fails verification: {check}")
        return errors

    def _report_state(self, state: dict) -> tuple[float, list[float]]:
        m = state["m"]
        return state["beta"], [m[label] for label in self.skel.vertex_labels]

    def _dynamics(self, dynamics: dict) -> list[str]:
        errors = []
        for name in ("r", "log_radii"):
            got = dynamics[name]
            for j, want in enumerate(self.exp.dyn.log_radii):
                if abs(got[j] - want) > RADIUS_RTOL * abs(want):
                    errors.append(f"dynamics.{name}[{j}] = {got[j]!r}, independent value {want!r}")
        return errors

    def _betas(self, got, where: str) -> list[str]:
        want = self.exp.critical_betas
        if len(got) != len(want) or not all(_close(g, w) for g, w in zip(got, want)):
            return [f"{where}: critical values {list(got)} != closed form {list(want)}"]
        return []

    def check_phase_report(self, report: dict) -> list[str]:
        errors = self._dynamics(report["dynamics"])
        phase = report["phase"]
        errors += self._betas([c["value"] for c in phase["critical_betas"]], "phase")
        if errors:
            return errors
        for c in phase["critical_betas"]:
            b, states = c["value"], c["extreme_states"]
            if len(states) != self.exp.count_at(b):
                errors.append(f"phase: {len(states)} states at {b!r}, expected {self.exp.count_at(b)}")
            errors += self._states([self._report_state(s) for s in states], b, "phase")
        want = self.exp.interval_counts()
        for iv, count in zip(phase["intervals"], want):
            live = sum(len(p) for p in iv["pieces"])
            if not iv["extreme_count"] == live == count:
                errors.append(
                    f"phase: interval above {iv['lo']!r} has extreme_count {iv['extreme_count']}, "
                    f"live vertices {live}, expected {count}"
                )
        if not _close(phase["terminal_beta"], self.exp.critical_betas[-1]):
            errors.append(f"phase: terminal value {phase['terminal_beta']!r}")
        return errors

    def check_kms_report(self, report: dict, beta: float) -> list[str]:
        errors = self._dynamics(report["dynamics"])
        kms = report["kms"]
        states = kms["extreme_states"]
        want = self.exp.count_at(beta)
        if not kms["extreme_count"] == len(states) == want:
            errors.append(f"kms: {kms['extreme_count']} / {len(states)} states at {beta!r}, expected {want}")
        errors += self._states([self._report_state(s) for s in states], beta, "kms")
        return errors

    def check_library(self, diagram, evaluations) -> list[str]:
        """``evaluations`` maps each evaluated beta to ``extreme_states_at``'s result."""
        errors = self._betas(diagram.critical_betas, "library")
        if errors:
            return errors
        counts = [iv.extreme_count for iv in diagram.intervals]
        if counts != self.exp.interval_counts():
            errors.append(f"library: interval counts {counts} != {self.exp.interval_counts()}")
        for beta, states in evaluations.items():
            if len(states) != self.exp.count_at(beta):
                errors.append(f"library: {len(states)} states at {beta!r}, expected {self.exp.count_at(beta)}")
            errors += self._states([(s.beta, s.m) for s in states], beta, "library")
        return errors
