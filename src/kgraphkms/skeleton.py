"""Vertex-matrix skeletons of finite higher-rank graphs.

A rank-k skeleton is a list of k square nonnegative-integer matrices over a
single labeled vertex set. Entry ``A_i(v, w)`` counts the colour-i edges
with range ``v`` and source ``w``, and the matrices must commute pairwise
for the coloured graph to underlie a k-graph. Entries are kept as exact
Python integers; floating point only enters downstream in the spectral
layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Sequence

import numpy as np

IntMatrix = tuple[tuple[int, ...], ...]

RULE_LABELS = "labels-distinct"
RULE_COLOURS = "colour-count"
RULE_SQUARE = "matrix-square"
RULE_DIMENSION = "matrix-dimension"
RULE_INTEGER = "entry-integer"
RULE_NONNEGATIVE = "entry-nonnegative"
RULE_COMMUTE = "colour-commutation"
RULE_NO_SOURCE = "no-zero-row"
RULE_NO_SINK = "no-zero-column"


@dataclass(frozen=True)
class Violation:
    rule: str
    message: str
    where: tuple = ()


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    violations: tuple[Violation, ...]

    def rules(self) -> set[str]:
        return {v.rule for v in self.violations}


def _integer(x) -> int | None:
    """``x`` as an exact integer if it is an int, a numpy integer or an integral float, else None."""
    if type(x) is int:  # the common case, tested first
        return x
    if isinstance(x, bool):
        return None
    if isinstance(x, (int, np.integer)) or (isinstance(x, float) and x.is_integer()):
        return int(x)
    return None


def _int_matmul(a: IntMatrix, b: IntMatrix) -> np.ndarray:
    """Exact product of two square integer matrices as an integer array.

    Every partial sum of an entry is bounded by ``n max|a| max|b|``. Below
    ``2**53`` all of them are exact float64 integers whatever the summation
    order, so the product runs on BLAS and is read back as ``int64``; below
    ``2**62`` it is taken in ``int64``, and otherwise in Python integers in
    an object array.
    """
    n = len(a)
    peak_a, peak_b = (max(1, max(map(abs, chain.from_iterable(m)), default=0)) for m in (a, b))
    bound = n * peak_a * peak_b
    dtype = float if bound < 2**53 else np.int64 if bound < 2**62 else object
    product = np.array(a, dtype=dtype).reshape(n, n) @ np.array(b, dtype=dtype).reshape(n, n)
    return product.astype(np.int64) if dtype is float else product


def _int_product(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    return tuple(map(tuple, _int_matmul(a, b).tolist()))


def _commutator_support(a: IntMatrix, b: IntMatrix) -> np.ndarray:
    """Entries ``(v, w)``, in row-major order, where ``AB`` and ``BA`` differ."""
    return np.argwhere(_int_matmul(a, b) != _int_matmul(b, a))


def _identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


@dataclass(frozen=True)
class Skeleton:
    """Immutable skeleton: distinct vertex labels plus k commuting matrices.

    Construction enforces the structural invariants (square matrices of one
    dimension, nonnegative integer entries, exact pairwise commutation).
    Zero rows or columns are tolerated structurally so that quotients of
    ill-connected graphs remain representable; ``validate_skeleton`` reports
    them against the full no-source/no-sink contract.
    """

    vertex_labels: tuple[str, ...]
    matrices: tuple[IntMatrix, ...]

    def __post_init__(self):
        labels = tuple(str(x) for x in self.vertex_labels)
        mats = tuple(tuple(tuple(map(_integer, row)) for row in m) for m in self.matrices)
        object.__setattr__(self, "vertex_labels", labels)
        object.__setattr__(self, "matrices", mats)
        if len(set(labels)) != len(labels):
            raise ValueError("vertex labels must be distinct")
        if not mats:
            raise ValueError("need at least one colour matrix")
        n = len(labels)
        for i, m in enumerate(mats):
            if len(m) != n or any(len(row) != n for row in m):
                raise ValueError(f"matrix {i} is not {n}x{n}")
            if any(x is None for row in m for x in row):
                raise ValueError(f"matrix {i} has entries that are not integers")
            if any(x < 0 for row in m for x in row):
                raise ValueError(f"matrix {i} has negative entries")
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                if _commutator_support(mats[i], mats[j]).size:
                    raise ValueError(f"matrices {i} and {j} do not commute")

    @classmethod
    def empty(cls, k: int) -> "Skeleton":
        return cls((), ((),) * k)

    def _induced(self, keep: Sequence[int]) -> "Skeleton":
        """Sub-skeleton on the sorted vertices ``keep``, without re-running the checks.

        Only for ``keep`` the complement of a hereditary set ``H`` or a weakly
        connected piece. Labels, shape and signs are inherited, and so is
        exact commutation: ``H`` is closed under path sources, so no edge
        runs from a kept vertex into ``H`` and ``A[H, K] = 0`` for every
        colour, whence ``(AB)[K, K] = A[K, K] B[K, K] + A[K, H] B[H, K] =
        A[K, K] B[K, K]``, and likewise for ``BA``. A weakly connected piece
        has no edges to or from the rest at all.
        """
        sub = object.__new__(Skeleton)
        object.__setattr__(sub, "vertex_labels", tuple(self.vertex_labels[v] for v in keep))
        object.__setattr__(
            sub, "matrices", tuple(tuple(tuple(m[v][w] for w in keep) for v in keep) for m in self.matrices)
        )
        return sub

    @property
    def n(self) -> int:
        return len(self.vertex_labels)

    @property
    def k(self) -> int:
        return len(self.matrices)

    def index_of(self, label: str) -> int:
        return self.vertex_labels.index(label)

    @cached_property
    def _float_arrays(self) -> tuple[np.ndarray, ...]:
        arrays = tuple(np.array(m, dtype=float).reshape(self.n, self.n) for m in self.matrices)
        for arr in arrays:
            arr.flags.writeable = False
        return arrays

    def as_arrays(self) -> tuple[np.ndarray, ...]:
        """Read-only float copies for the numeric layer, built once per skeleton."""
        return self._float_arrays

    def union_support(self) -> np.ndarray:
        """Boolean matrix with True where any colour has an edge."""
        out = np.zeros((self.n, self.n), dtype=bool)
        for arr in self.as_arrays():
            out |= arr > 0
        return out

    def colour_support(self, i: int) -> np.ndarray:
        """Boolean matrix with True where colour ``i`` has an edge."""
        return self.as_arrays()[i] > 0

    @property
    def has_sources(self) -> bool:
        """Whether some colour has an all-zero row (a colour-i source)."""
        return any(not any(row) for m in self.matrices for row in m)


def validate_skeleton(vertex_labels: Sequence[str], matrices) -> ValidationReport:
    """Check candidate input against every skeleton invariant.

    Shape, integrality, sign, exact commutation and the no-source/no-sink
    requirements are all reported as violations rather than exceptions; a
    passing report guarantees ``Skeleton(vertex_labels, matrices)`` succeeds.
    An empty vertex set is a valid degenerate skeleton.
    """
    violations: list[Violation] = []
    labels = [str(x) for x in vertex_labels]
    n = len(labels)
    if len(set(labels)) != n:
        dupes = sorted({x for x in labels if labels.count(x) > 1})
        violations.append(Violation(RULE_LABELS, f"duplicate vertex labels {dupes}", tuple(dupes)))
    if not matrices:
        violations.append(Violation(RULE_COLOURS, "at least one colour matrix required"))
        return ValidationReport(False, tuple(violations))

    grids: list[list[list[int]] | None] = []
    for i, m in enumerate(matrices):
        rows = list(m)
        row_lens = [len(r) if hasattr(r, "__len__") else -1 for r in rows]
        if any(l != len(rows) for l in row_lens):
            violations.append(Violation(RULE_SQUARE, f"matrix {i} is not square", (i,)))
            grids.append(None)
            continue
        if len(rows) != n:
            violations.append(
                Violation(RULE_DIMENSION, f"matrix {i} is {len(rows)}x{len(rows)}, expected {n}x{n}", (i,))
            )
            grids.append(None)
            continue
        grid: list[list[int]] = []
        ok = True
        for v, row in enumerate(rows):
            out_row = []
            for w, raw in enumerate(row):
                x = _integer(raw)
                if x is None:
                    violations.append(
                        Violation(RULE_INTEGER, f"entry A_{i}({v},{w})={raw!r} is not an integer", (i, v, w))
                    )
                    ok = False
                    continue
                if x < 0:
                    violations.append(
                        Violation(RULE_NONNEGATIVE, f"entry A_{i}({v},{w})={x} is negative", (i, v, w))
                    )
                    ok = False
                out_row.append(x)
            grid.append(out_row)
        grids.append(grid if ok else None)

    clean = [g for g in grids if g is not None]
    if len(clean) == len(grids) and n > 0:
        for i in range(len(clean)):
            for j in range(i + 1, len(clean)):
                bad = _commutator_support(clean[i], clean[j]).tolist()
                if bad:
                    violations.append(
                        Violation(
                            RULE_COMMUTE,
                            f"A_{i} A_{j} != A_{j} A_{i} at entries {[tuple(e) for e in bad]}",
                            (i, j),
                        )
                    )
        for i, m in enumerate(clean):
            for v in range(n):
                if not any(m[v]):
                    violations.append(
                        Violation(RULE_NO_SOURCE, f"row {v} of A_{i} is zero (source)", (i, v))
                    )
                if not any(m[u][v] for u in range(n)):
                    violations.append(
                        Violation(RULE_NO_SINK, f"column {v} of A_{i} is zero (sink)", (i, v))
                    )

    return ValidationReport(not violations, tuple(violations))


def degree_power(skel: Skeleton, powers: Sequence[int]) -> IntMatrix:
    """Exact integer product of the colour matrices raised to ``powers``.

    The empty product (all powers zero) is the identity. Arbitrary-precision
    integers make the computation exact for any exponent vector, and the
    result is order-independent because the matrices commute.
    """
    if len(powers) != skel.k:
        raise ValueError(f"expected {skel.k} exponents, got {len(powers)}")
    exps = [int(p) for p in powers]
    if any(p < 0 for p in exps):
        raise ValueError("exponents must be nonnegative")
    result = _identity(skel.n)
    for mat, p in zip(skel.matrices, exps):
        for _ in range(p):
            result = _int_product(result, mat)
    return result
