import importlib.util
import os
import sys
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from kgraphkms import Skeleton, emit_report, normalize_dynamics, parse_input, spectral
from kgraphkms.engine import STATE_TOL, _growth

# CI runs the derandomised profile (HYPOTHESIS_PROFILE=ci): every run draws
# the same examples, so a failing one reproduces locally with that setting.
settings.register_profile("ci", derandomize=True, database=None, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

DATA = Path(__file__).parent / "data"


def skeleton(labels, *matrices) -> Skeleton:
    return Skeleton(tuple(labels), tuple(tuple(tuple(row) for row in m) for m in matrices))


# Three single-vertex components u <- v, u <- w with loops; w is the
# dominant hereditary end for the preferred dynamics (ln 5, ln 4).
EXAMPLE_1 = skeleton(
    "uvw",
    [[2, 2, 3], [0, 4, 0], [0, 0, 5]],
    [[2, 1, 2], [0, 3, 0], [0, 0, 4]],
)

# Two incomparable hereditary ends: v is critical in colour 2, w in colour 1,
# preferred dynamics (ln 11, ln 13).
EXAMPLE_2 = skeleton(
    "uvw",
    [[5, 1, 1], [0, 10, 0], [0, 0, 11]],
    [[3, 2, 1], [0, 13, 0], [0, 0, 9]],
)

# Commuting but with no bridge from w into v in either colour; the ordering
# conclusion fails in colour 2 (4 > 3), so the hypothesis must catch it.
NO_BRIDGE_COUNTEREXAMPLE = skeleton(
    "uvw",
    [[1, 2, 2], [0, 3, 0], [0, 0, 5]],
    [[1, 3, 1], [0, 4, 0], [0, 0, 3]],
)


def chain(n, offset):
    """Chain-n: colours M + M^2 and 2M + M^2 for upper bidiagonal M."""
    m = np.diag(np.arange(n) + offset + 2) + np.diag(np.ones(n - 1, dtype=int), 1)
    return Skeleton(tuple(f"c{i}" for i in range(n)), ((m + m @ m).tolist(), (2 * m + m @ m).tolist()))


def product_skeleton():
    """54 vertices, colours X + Y and XY + X + 2Y with X = A (x) I and Y = I (x) B.

    ``A`` is the cycle with weights 1, 2, 3 repeated six times and ``B`` a
    3x3 irreducible block; X and Y commute, so the colours do.
    """
    cycle = np.zeros((18, 18), dtype=np.int64)
    for i, w in enumerate([1, 2, 3] * 6):
        cycle[(i + 1) % 18, i] = w
    block = np.array([[1, 1, 0], [0, 1, 2], [1, 0, 1]], dtype=np.int64)
    x = np.kron(cycle, np.eye(3, dtype=np.int64))
    y = np.kron(np.eye(18, dtype=np.int64), block)
    return Skeleton(tuple(f"p{i}" for i in range(54)), ((x + y).tolist(), (x @ y + x + 2 * y).tolist()))


@cache
def _benchmark_workloads():
    # perfbench is a directory of scripts, not a package: load its generator
    # by path, registered under a name of its own for its dataclasses.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cycle_product_skeleton(seed):
    """The benchmark's 54-vertex ``cycle-product`` input for ``seed`` (``perfbench/workloads.py``)."""
    return _benchmark_workloads().cycle_product_skeleton(seed)


def data_skeletons() -> dict[str, Skeleton]:
    """The skeletons of the input documents in ``tests/data``, by file stem."""
    docs = {path.stem: parse_input(path.read_text()) for path in sorted(DATA.glob("*.json"))}
    return {stem: Skeleton(doc.vertices, doc.matrices) for stem, doc in docs.items()}


def emitted(report, fmt: str = "json") -> str:
    """The text ``emit_report`` writes for ``report``, joined from its pieces."""
    parts: list[str] = []
    emit_report(report, fmt, parts.append)
    return "".join(parts)


def rules(report) -> set[str]:
    """The rules that a validation report's violations name."""
    return {v.rule for v in report.violations}


def colour_support(skel: Skeleton, i: int) -> np.ndarray:
    """Boolean matrix with True where colour ``i`` has an edge."""
    return skel.as_arrays()[i] > 0


def vertex_reach(decomp) -> np.ndarray:
    """``[v, w]``: a path, possibly trivial, has range ``v`` and source ``w``.

    That is ``leq`` read at each vertex's component.
    """
    labels = np.zeros(sum(map(len, decomp.components)), dtype=np.intp)
    for c, comp in enumerate(decomp.components):
        labels[list(comp)] = c
    return decomp.leq[np.ix_(labels, labels)]


def count_eig(monkeypatch) -> list:
    """Record the shape of every ``np.linalg.eig`` call for the rest of the test."""
    calls = []
    original = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda a: calls.append(a.shape) or original(a))
    return calls


def count_perron(monkeypatch) -> list:
    """Record the shape of every block ``spectral._perron_block`` certifies for the rest of the test."""
    calls = []
    original = spectral._perron_block
    monkeypatch.setattr(spectral, "_perron_block", lambda block: calls.append(block.shape) or original(block))
    return calls


def weighted_cycle(weights) -> np.ndarray:
    """The float cycle with ``a[(i + 1) % n, i] = weights[i]``."""
    n = len(weights)
    a = np.zeros((n, n))
    for i, w in enumerate(weights):
        a[(i + 1) % n, i] = w
    return a


def cycle_and_square():
    """An 80-cycle ``W`` with weights 3 (40 times) then 1 (40 times), and ``W²``.

    ``W`` is irreducible with root ``sqrt(3)``; ``W²`` splits into two
    40-cycles, so it is reducible, with root 3. Their sum's Perron vector
    spans ``3**20``.
    """
    w = weighted_cycle([3] * 40 + [1] * 40).astype(int)
    return w, w @ w


# One component each, whose colour blocks are not all irreducible.
REDUCIBLE_COLOUR_BLOCKS = {
    "identity-and-swap": skeleton("ab", np.eye(2, dtype=int).tolist(), [[0, 1], [1, 0]]),
    "cycle-and-square": skeleton([f"v{i}" for i in range(80)], *(m.tolist() for m in cycle_and_square())),
}


@pytest.fixture
def ex1():
    return EXAMPLE_1


@pytest.fixture
def ex1_dyn():
    return normalize_dynamics(EXAMPLE_1)


@pytest.fixture
def ex2():
    return EXAMPLE_2


@pytest.fixture
def ex2_dyn():
    return normalize_dynamics(EXAMPLE_2)


def state_set(states, digits=9):
    """Order-insensitive comparable form of a state list."""
    return sorted(tuple(round(x, digits) for x in s.m) for s in states)


def factors_through(skel, dyn, beta: float, m, tol: float = STATE_TOL) -> bool:
    """Reference route: whether a state descends to the Cuntz-Krieger quotient.

    The state with vertex vector ``m`` factors exactly when ``m`` is a
    common eigenvector with ``A_i m = e^(beta r_i) m`` for every colour:
    that is the condition for the vertex projections to saturate the
    quotient relations. (The product gap can vanish termwise without the
    state factoring, so the per-colour form is the safe test.) The engine
    decides the same from criticality, as ``ExtremeState.factors_through_ck``.
    """
    vec = np.array([float(t) for t in m])
    if vec.shape != (skel.n,):
        raise ValueError(f"state vector has length {vec.size}, expected {skel.n}")
    return all(
        np.abs(a @ vec - _growth(beta, r) * vec).max() <= tol for a, r in zip(skel.as_arrays(), dyn.r)
    )


def quick_exit_weight(skel, component, colour: int, truncation: int) -> np.ndarray:
    """Reference route: truncated series of single-colour path weights leaving the component.

    Sums ``rho^-(n+1) E^n B x`` for ``n`` up to the truncation order, over
    the feeder and bridge blocks of ``spectral._partition_for``; the series
    converges geometrically to the weight vector ``y`` that
    ``extend_eigenvector`` solves for, and serves as an independent oracle
    for it.
    """
    f, _, _, x, radii, _, blocks = spectral._partition_for(skel, component)
    if not f:
        return np.zeros(0)
    rho = radii[colour]
    e, b = blocks[colour]
    term = b @ x
    total = term / rho
    scale = rho
    for _ in range(int(truncation)):
        term = e @ term
        scale *= rho
        total = total + term / scale
    return total
