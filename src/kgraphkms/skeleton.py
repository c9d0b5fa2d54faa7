"""Vertex-matrix skeletons of finite higher-rank graphs.

A rank-k skeleton is a list of k square nonnegative-integer matrices over a
single labeled vertex set. Entry ``A_i(v, w)`` counts the colour-i edges
with range ``v`` and source ``w``, and the matrices must commute pairwise
for the coloured graph to underlie a k-graph. Each matrix is stored as a
read-only integer array: ``int64``, or an ``object`` array of exact Python
integers when some entry does not fit. Floating point only enters
downstream in the spectral layer.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, field
from functools import cached_property, reduce
from itertools import chain, combinations
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from .components import ComponentDecomposition

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
    """Every violation found, and the skeleton when the constructor accepts the candidate.

    ``skeleton`` is built from the arrays the checks produced, so no check
    runs twice; it is present exactly when every violation is a zero row
    or column, which skeletons tolerate.
    """

    passed: bool
    violations: tuple[Violation, ...]
    skeleton: Skeleton | None = field(default=None, compare=False, repr=False)


def _integer(x) -> int | None:
    """``x`` as an exact integer if it is an int, a numpy integer or an integral float, else None."""
    if type(x) is int:  # the common case, tested first
        return x
    if isinstance(x, bool):
        return None
    if isinstance(x, (int, np.integer)) or (isinstance(x, float) and x.is_integer()):
        return int(x)
    return None


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _entries(i: int, m, n: int) -> np.ndarray | list[Violation]:
    """Candidate matrix ``i`` on ``n`` vertices as its stored array, or its violations.

    The matrix must be an ``n x n`` grid with nonnegative entries that are
    ints, numpy integers or integral floats, never bools; anything that is
    no sequence of equally long rows is not square. Entry types are checked
    before an array is built, because numpy's dtype inference would take
    ``True`` for 1 and round ``2**60 + 1`` next to a float. Bad entries are
    reported in row-major order.
    """
    rows = list(m) if hasattr(m, "__iter__") else None
    if rows is None or any(len(row) != len(rows) if hasattr(row, "__len__") else True for row in rows):
        return [Violation(RULE_SQUARE, f"matrix {i} is not square", (i,))]
    if len(rows) != n:
        return [Violation(RULE_DIMENSION, f"matrix {i} is {len(rows)}x{len(rows)}, expected {n}x{n}", (i,))]
    flat = list(chain.from_iterable(rows))
    values, odd = flat, set()
    if not set(map(type, flat)) <= {int}:
        values = [_integer(x) for x in flat]
        odd = {p for p, x in enumerate(values) if x is None}
        values = [0 if x is None else x for x in values]
    try:
        arr = np.array(values, dtype=np.int64).reshape(n, n)
    except OverflowError:
        arr = np.array(values, dtype=object).reshape(n, n)
    if not odd and not (arr.size and arr.min() < 0):
        return _read_only(arr)
    bad = []
    for p in sorted(odd.union(np.flatnonzero(arr < 0).tolist())):
        v, w = divmod(p, n)
        if p in odd:
            bad.append(Violation(RULE_INTEGER, f"entry A_{i}({v},{w})={flat[p]!r} is not an integer", (i, v, w)))
        else:
            bad.append(Violation(RULE_NONNEGATIVE, f"entry A_{i}({v},{w})={values[p]} is negative", (i, v, w)))
    return bad


def _exact_dtype(a: np.ndarray, b: np.ndarray) -> type:
    """Narrowest dtype in which ``a @ b`` and ``b @ a`` are exact, for square integer arrays.

    Every partial sum of an entry of either product is bounded by
    ``n max|a| max|b|``, which is taken in Python integers. Below ``2**53``
    all of them are exact float64 integers whatever the summation order, so
    the products run on BLAS; below ``2**62`` they are taken in ``int64``,
    and otherwise in Python integers in an object array.
    """
    peak_a, peak_b = (max(1, int(m.max()), -int(m.min())) if m.size else 1 for m in (a, b))
    bound = len(a) * peak_a * peak_b
    return float if bound < 2**53 else np.int64 if bound < 2**62 else object


def _int_matmul(a: np.ndarray, b: np.ndarray, dtype: type | None = None) -> np.ndarray:
    """Exact product of two square integer arrays, taken in ``dtype`` (default ``_exact_dtype``)."""
    dtype = dtype or _exact_dtype(a, b)
    product = a.astype(dtype) @ b.astype(dtype)
    return product.astype(np.int64) if dtype is float else product


def _commutator_support(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean mask of the entries where ``AB`` and ``BA`` differ."""
    dtype = _exact_dtype(a, b)
    return _int_matmul(a, b, dtype) != _int_matmul(b, a, dtype)


class Skeleton:
    """Immutable skeleton: distinct vertex labels plus k commuting matrices.

    Construction enforces the structural invariants (square matrices of one
    dimension, nonnegative integer entries, exact pairwise commutation).
    Zero rows or columns are tolerated structurally so that quotients of
    ill-connected graphs remain representable; ``validate_skeleton`` reports
    them against the full no-source/no-sink contract. Equality, hashing and
    ``repr`` depend on the labels and entry values only, not on how the
    entries are stored.

    ``_analysis``, set at construction only, is None unless the library
    built the skeleton to carry its decomposition (``components.analysed``).
    ``_frame`` is None unless the skeleton was cut from another (``restrict``,
    ``split_isolated``); then it holds the root of that cut and this
    skeleton's sorted vertex indices in it, ``_ints`` is the root's tuple of
    integer arrays, and ``_cut`` cuts every matrix and block from the root's.
    """

    vertex_labels: tuple[str, ...]
    _ints: tuple[np.ndarray, ...]
    _analysis: ComponentDecomposition | None
    _frame: tuple[Skeleton, np.ndarray] | None

    def __init__(self, vertex_labels: Sequence[str], matrices) -> None:
        self.__post_init__(vertex_labels, matrices)

    def __post_init__(self, vertex_labels: Sequence[str], matrices) -> None:
        """Check the candidate and store it; every construction runs through here."""
        labels = tuple(str(x) for x in vertex_labels)
        if len(set(labels)) != len(labels):
            raise ValueError("vertex labels must be distinct")
        if not matrices:
            raise ValueError("need at least one colour matrix")
        n = len(labels)
        arrays = []
        for i, m in enumerate(matrices):
            arr = _entries(i, m, n)
            if isinstance(arr, list):
                rules = {v.rule for v in arr}
                if rules & {RULE_SQUARE, RULE_DIMENSION}:
                    raise ValueError(f"matrix {i} is not {n}x{n}")
                if RULE_INTEGER in rules:
                    raise ValueError(f"matrix {i} has entries that are not integers")
                raise ValueError(f"matrix {i} has negative entries")
            arrays.append(arr)
        for i, j in combinations(range(len(arrays)), 2):
            if _commutator_support(arrays[i], arrays[j]).any():
                raise ValueError(f"matrices {i} and {j} do not commute")
        vars(self).update(vertex_labels=labels, _ints=tuple(arrays), _analysis=None, _frame=None)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        same_shape = (self.vertex_labels, self.k) == (other.vertex_labels, other.k)
        return same_shape and all(map(np.array_equal, self._arrays, other._arrays))

    def __hash__(self):
        return hash((self.vertex_labels, self.matrices))

    def __repr__(self):
        return f"Skeleton(vertex_labels={self.vertex_labels!r}, matrices={self.matrices!r})"

    def _induced(self, keep: Sequence[int]) -> "Skeleton":
        """Sub-skeleton on the sorted vertices ``keep`` carrying its analysis slice, without re-running the checks.

        Only for ``keep`` the complement of a hereditary set ``H`` or a weakly
        connected piece. Labels, shape and signs are inherited, and so is
        exact commutation: ``H`` is closed under path sources, so no edge
        runs from a kept vertex into ``H`` and ``A[H, K] = 0`` for every
        colour, whence ``(AB)[K, K] = A[K, K] B[K, K] + A[K, H] B[H, K] =
        A[K, K] B[K, K]``, and likewise for ``BA``. A weakly connected piece
        has no edges to or from the rest at all.
        """
        frame = (self._frame[0] if self._frame else self, _read_only(self._at[np.asarray(keep, dtype=np.intp)]))
        labels = tuple(self.vertex_labels[v] for v in keep)
        return Skeleton._stored(labels, self._ints, self._analysis.sliced(keep), frame)

    @classmethod
    def _stored(
        cls,
        labels: tuple[str, ...],
        arrays,
        analysis: ComponentDecomposition | None,
        frame: tuple[Skeleton, np.ndarray] | None = None,
    ) -> "Skeleton":
        """A skeleton on labels and read-only arrays that are known to pass every check (the root's, with ``frame``)."""
        skel = object.__new__(cls)
        vars(skel).update(vertex_labels=labels, _ints=tuple(arrays), _analysis=analysis, _frame=frame)
        return skel

    def _twin(self, analysis: ComponentDecomposition) -> "Skeleton":
        """The same labels, arrays and cached views, as a new skeleton carrying ``analysis``."""
        twin = object.__new__(type(self))
        vars(twin).update(vars(self), _analysis=analysis)
        return twin

    @cached_property
    def matrices(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """The colour matrices as nested tuples of Python ints, built on first use."""
        return tuple(tuple(map(tuple, a.tolist())) for a in self._arrays)

    @property
    def n(self) -> int:
        return len(self.vertex_labels)

    @property
    def k(self) -> int:
        return len(self._ints)

    @property
    def _at(self) -> np.ndarray:
        """This skeleton's sorted vertex indices in its root: all of them for a root."""
        return np.arange(self.n) if self._frame is None else self._frame[1]

    def _cut(self, rows=None, cols=None, floats: bool = False) -> tuple[np.ndarray, ...]:
        """Each colour's read-only block at vertex indices ``rows`` x ``cols``, cut from the root's arrays.

        ``rows`` defaults to every vertex and ``cols`` to ``rows``. Integer
        blocks come from the root's integer arrays, float blocks (``floats``)
        from its one float copy; no other code cuts colour blocks. One
        fancy index per colour, a column of row indices against the row of
        column indices, makes each block; callers cut each block they need
        once and pass it on.
        """
        root, at = self._frame or (self, np.arange(self.n))
        rows = at if rows is None else at[np.asarray(rows, dtype=np.intp)]
        cols = rows if cols is None else at[np.asarray(cols, dtype=np.intp)]
        rows = rows[:, None]
        return tuple(_read_only(a[rows, cols]) for a in (root._float_arrays if floats else self._ints))

    @property
    def _arrays(self) -> tuple[np.ndarray, ...]:
        """The integer colour matrices: a root's own, cut from the root's on each read otherwise."""
        return self._ints if self._frame is None else self._cut()

    @cached_property
    def _float_arrays(self) -> tuple[np.ndarray, ...]:
        """A root's float copies of its integer arrays, built once."""
        return tuple(_read_only(a.astype(float)) for a in self._ints)

    def as_arrays(self) -> tuple[np.ndarray, ...]:
        """Read-only float copies for the numeric layer: a root's own, built once, and cut from them otherwise."""
        return self._float_arrays if self._frame is None else self._cut(floats=True)

    def union_support(self) -> np.ndarray:
        """Boolean matrix with True where any colour has an edge."""
        return reduce(np.maximum, self.as_arrays()) > 0

    @property
    def has_sources(self) -> bool:
        """Whether some colour has an all-zero row (a colour-i source)."""
        return not np.concatenate(self._arrays).any(axis=1).all()


def validate_skeleton(vertex_labels: Sequence[str], matrices) -> ValidationReport:
    """Check candidate input against every skeleton invariant.

    Shape, integrality, sign, exact commutation and the no-source/no-sink
    requirements are all reported as violations rather than exceptions; a
    passing report guarantees ``Skeleton(vertex_labels, matrices)`` succeeds,
    and carries that skeleton. An empty vertex set is a valid degenerate
    skeleton.
    """
    violations: list[Violation] = []
    labels = tuple(str(x) for x in vertex_labels)
    n = len(labels)
    if len(set(labels)) != n:
        dupes = sorted({x for x in labels if labels.count(x) > 1})
        violations.append(Violation(RULE_LABELS, f"duplicate vertex labels {dupes}", tuple(dupes)))
    if not matrices:
        violations.append(Violation(RULE_COLOURS, "at least one colour matrix required"))
        return ValidationReport(False, tuple(violations))

    arrays = [_entries(i, m, n) for i, m in enumerate(matrices)]
    entry_faults = [v for arr in arrays if isinstance(arr, list) for v in arr]
    violations += entry_faults
    if n > 0 and not entry_faults:
        for i, j in combinations(range(len(arrays)), 2):
            bad = np.argwhere(_commutator_support(arrays[i], arrays[j])).tolist()
            if bad:
                violations.append(
                    Violation(RULE_COMMUTE, f"A_{i} A_{j} != A_{j} A_{i} at entries {[tuple(e) for e in bad]}", (i, j))
                )
        zero = np.array(arrays) == 0
        sources, sinks = zero.all(axis=2), zero.all(axis=1)
        for i, v in np.argwhere(sources | sinks).tolist():
            if sources[i, v]:
                violations.append(Violation(RULE_NO_SOURCE, f"row {v} of A_{i} is zero (source)", (i, v)))
            if sinks[i, v]:
                violations.append(Violation(RULE_NO_SINK, f"column {v} of A_{i} is zero (sink)", (i, v)))

    tolerated = all(v.rule in (RULE_NO_SOURCE, RULE_NO_SINK) for v in violations)
    skel = Skeleton._stored(labels, arrays, None) if tolerated else None
    return ValidationReport(not violations, tuple(violations), skel)
