import numpy as np
import pytest

from kgraphkms import Skeleton, normalize_dynamics


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
