import hashlib
import random
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from kgraphkms import (
    Skeleton,
    normalize_dynamics,
    parse_input,
    phase_diagram,
    restrict,
    split_isolated,
    validate_skeleton,
)
from kgraphkms.skeleton import (
    RULE_COMMUTE,
    RULE_DIMENSION,
    RULE_INTEGER,
    RULE_NONNEGATIVE,
    RULE_NO_SINK,
    RULE_NO_SOURCE,
    RULE_SQUARE,
    _int_matmul,
)

from conftest import DATA, EXAMPLE_1, chain, data_skeletons, rules, skeleton


class TestValidate:
    def test_example1_passes(self):
        rep = validate_skeleton(
            ["u", "v", "w"],
            [[[2, 2, 3], [0, 4, 0], [0, 0, 5]], [[2, 1, 2], [0, 3, 0], [0, 0, 4]]],
        )
        assert rep.passed
        assert rep.violations == ()

    def test_single_vertex_single_loops(self):
        rep = validate_skeleton(["v"], [[[1]], [[1]]])
        assert rep.passed

    def test_two_vertex_commutation(self):
        # Loops (1,1) at v, (2,2) at w: the bridge relation forces equal
        # bundle sizes in both colours, so (1,1) passes and (1,2) fails.
        good = validate_skeleton(
            ["v", "w"], [[[1, 1], [0, 2]], [[1, 1], [0, 2]]]
        )
        assert good.passed
        bad = validate_skeleton(["v", "w"], [[[1, 1], [0, 2]], [[1, 2], [0, 2]]])
        assert not bad.passed
        assert RULE_COMMUTE in rules(bad)

    def test_shape_and_sign_reported_not_raised(self):
        rep = validate_skeleton(["a", "b"], [[[1, 0], [0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]])
        assert RULE_DIMENSION in rules(rep)
        rep = validate_skeleton(["a", "b"], [[[1, 0], [0]], [[1, 0], [0, 1]]])
        assert RULE_SQUARE in rules(rep)
        rep = validate_skeleton(["a"], [[[-1]], [[1]]])
        assert RULE_NONNEGATIVE in rules(rep)
        rep = validate_skeleton(["a"], [[[0.5]], [[1]]])
        assert RULE_INTEGER in rules(rep)

    def test_sources_and_sinks_reported(self):
        rep = validate_skeleton(["a", "b"], [[[1, 1], [0, 0]], [[1, 1], [0, 0]]])
        assert RULE_NO_SOURCE in rules(rep)
        rep = validate_skeleton(["a", "b"], [[[0, 1], [0, 1]], [[0, 1], [0, 1]]])
        assert RULE_NO_SINK in rules(rep)

    def test_empty_vertex_set_is_degenerate_valid(self):
        assert validate_skeleton([], [[], []]).passed

    def test_passed_implies_constructible(self):
        mats = [[[2, 2, 3], [0, 4, 0], [0, 0, 5]], [[2, 1, 2], [0, 3, 0], [0, 0, 4]]]
        assert validate_skeleton(["u", "v", "w"], mats).passed
        Skeleton(("u", "v", "w"), tuple(tuple(tuple(r) for r in m) for m in mats))

    def test_constructor_rejects_noncommuting(self):
        with pytest.raises(ValueError, match="commute"):
            skeleton("vw", [[1, 1], [0, 2]], [[1, 2], [0, 2]])

    @pytest.mark.parametrize("entry", [2.5, "3", True, np.bool_(True), None], ids=repr)
    def test_constructor_rejects_what_validation_rejects(self, entry):
        assert RULE_INTEGER in rules(validate_skeleton(["a"], [[[entry]]]))
        with pytest.raises(ValueError, match="not integers"):
            Skeleton(("a",), (((entry,),),))

    @pytest.mark.parametrize("entry", [3, np.int64(3), np.uint8(3), 3.0, np.float64(3.0)], ids=repr)
    def test_constructor_accepts_what_validation_accepts(self, entry):
        assert validate_skeleton(["a"], [[[entry]]]).passed
        skel = Skeleton(("a",), (((entry,),),))
        assert skel.matrices == (((3,),),)
        assert type(skel.matrices[0][0][0]) is int

    def test_row_and_column_sums_positive_when_valid(self):
        for skel in (EXAMPLE_1,):
            for m in skel.matrices:
                assert all(sum(row) >= 1 for row in m)
                for w in range(skel.n):
                    assert sum(m[v][w] for v in range(skel.n)) >= 1


def reference_product(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][l] * b[l][j] for l in range(n)) for j in range(n)) for i in range(n))


def int_product(a, b):
    """``_int_matmul`` on square integer tuples, in the storage a skeleton gives them, as nested tuples."""
    arrays = []
    for m in (a, b):
        flat = [x for row in m for x in row]
        fits = all(-(2**63) <= x < 2**63 for x in flat)
        arrays.append(np.array(flat, dtype=np.int64 if fits else object).reshape(len(m), len(m)))
    return tuple(map(tuple, _int_matmul(*arrays).tolist()))


class TestExactCommutation:
    # A = c M and B = d M^2 + e M are polynomials in M, so they commute;
    # entries near 2**40 put the products far beyond int64.
    M = ((1, 1, 0), (0, 1, 1), (0, 0, 1))
    C, D, E = 2**40 + 3, 2**40 + 7, 2**39 + 1

    def pair(self):
        m2 = reference_product(self.M, self.M)
        a = tuple(tuple(self.C * x for x in row) for row in self.M)
        b = tuple(tuple(self.D * x + self.E * y for x, y in zip(r2, r1)) for r2, r1 in zip(m2, self.M))
        return a, b

    def test_overflowing_commuting_pair_constructs(self):
        a, b = self.pair()
        assert max(abs(x) for row in reference_product(a, b) for x in row) >= 2**63
        skel = Skeleton(("u", "v", "w"), (a, b))
        assert validate_skeleton(skel.vertex_labels, skel.matrices).passed

    def test_off_by_one_is_rejected_at_the_right_entries(self):
        a, b = self.pair()
        b = tuple(tuple(x + ((v, w) == (0, 0)) for w, x in enumerate(row)) for v, row in enumerate(b))
        with pytest.raises(ValueError, match="commute"):
            Skeleton(("u", "v", "w"), (a, b))
        rep = validate_skeleton(("u", "v", "w"), (a, b))
        (violation,) = rep.violations
        assert violation.rule == RULE_COMMUTE and violation.where == (0, 1)
        ab, ba = reference_product(a, b), reference_product(b, a)
        bad = [(v, w) for v in range(3) for w in range(3) if ab[v][w] != ba[v][w]]
        assert bad == [(0, 1)] and violation.message.endswith(f"at entries {bad}")

    def test_int_matmul_matches_reference(self):
        rng = random.Random(11)
        for trial in range(60):
            n = rng.randint(0, 5)
            top = 2**70 if trial % 3 == 0 else 9
            a, b = (
                tuple(tuple(rng.randint(-top, top) for _ in range(n)) for _ in range(n)) for _ in range(2)
            )
            out = int_product(a, b)
            assert out == reference_product(a, b)
            assert all(type(x) is int for row in out for x in row)
        assert int_product((), ()) == ()

    @pytest.mark.parametrize("limit", [2**53, 2**62])
    @pytest.mark.parametrize("side", [-1, 1])
    def test_int_matmul_exact_on_both_sides_of_each_path_limit(self, limit, side):
        # n max|a| max|b| just below or just above the limit. Row 0 of a and
        # column 0 of b hold the odd peaks, so product entry (0, 0) is that
        # bound itself: above 2**53 it is odd and no float64, so only the
        # switch away from float64 keeps it exact.
        rng = random.Random(limit + side)
        n, peak_a = 3, 2**20 + 1
        peak_b = (limit // (n * peak_a) - 1) | 1
        if side > 0:
            peak_b += 2
        assert (n * peak_a * peak_b < limit) is (side < 0)

        def matrix(peak, fixed):
            return tuple(
                tuple(peak if fixed(v, w) else peak - 2 * rng.randrange(4) for w in range(n)) for v in range(n)
            )

        a, b = matrix(peak_a, lambda v, w: v == 0), matrix(peak_b, lambda v, w: w == 0)
        out = int_product(a, b)
        assert out == reference_product(a, b)
        assert out[0][0] == n * peak_a * peak_b
        assert all(type(x) is int for row in out for x in row)

    def test_int64_operands_whose_bound_passes_2_64(self):
        # n max|a| max|b| is about 3 * 2**80: taken in int64 it would wrap
        # round to a small value and pick the float64 path.
        a = np.full((3, 3), 2**40 + 1, dtype=np.int64)
        assert _int_matmul(a, a).tolist() == [[3 * (2**40 + 1) ** 2] * 3] * 3


class TestFloatArrays:
    def test_built_once_and_read_only(self):
        arrays = EXAMPLE_1.as_arrays()
        assert arrays is EXAMPLE_1.as_arrays()
        assert isinstance(arrays, tuple)
        for arr, m in zip(arrays, EXAMPLE_1.matrices):
            assert arr.tolist() == [list(row) for row in m]
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0

    def test_empty_skeleton(self):
        assert [a.shape for a in Skeleton((), ((), ())).as_arrays()] == [(0, 0), (0, 0)]


I2 = [[1, 0], [0, 1]]


def integer_violation(entry, where=(0, 0, 0)):
    i, v, w = where
    return (RULE_INTEGER, f"entry A_{i}({v},{w})={entry!r} is not an integer", where)


NOT_INTEGERS = "matrix 0 has entries that are not integers"

# (labels, matrices, violations as (rule, message, where) in report order,
# constructor ValueError text or None when it accepts).
SHARED_RULE_CASES = {
    **{
        name: ("ab", ([[entry, other], [1, 1]], I2), [integer_violation(entry)], NOT_INTEGERS)
        for name, entry, other in [
            ("bool", True, 2),
            ("numpy-bool", np.bool_(True), 1),
            ("string", "3", 1),
            ("none", None, 1),
            ("fraction", 2.5, 1),
        ]
    },
    "negative-then-fraction": (
        "ab",
        ([[-1, 2.5], [1, 1]], I2),
        [(RULE_NONNEGATIVE, "entry A_0(0,0)=-1 is negative", (0, 0, 0)), integer_violation(2.5, (0, 0, 1))],
        NOT_INTEGERS,
    ),
    "beyond-float": ("ab", ([[2**60 + 1, 2.0], [1, 1]], I2), [], None),
    "beyond-int64": ("ab", ([[2**64, 1.0], [1, 1]], I2), [], None),
    "non-square": ("ab", ([[1, 0], [0]], I2), [(RULE_SQUARE, "matrix 0 is not square", (0,))], "matrix 0 is not 2x2"),
    "not-a-grid": ("a", (5,), [(RULE_SQUARE, "matrix 0 is not square", (0,))], "matrix 0 is not 1x1"),
    "wrong-dimension": (
        "ab",
        (I2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
        [(RULE_DIMENSION, "matrix 1 is 3x3, expected 2x2", (1,))],
        "matrix 1 is not 2x2",
    ),
    "negative": (
        "ab",
        ([[-1, 1], [1, 1]], I2),
        [(RULE_NONNEGATIVE, "entry A_0(0,0)=-1 is negative", (0, 0, 0))],
        "matrix 0 has negative entries",
    ),
    "non-commuting": (
        "ab",
        ([[1, 1], [0, 2]], [[1, 2], [0, 2]]),
        [(RULE_COMMUTE, "A_0 A_1 != A_1 A_0 at entries [(0, 1)]", (0, 1))],
        "matrices 0 and 1 do not commute",
    ),
    "sources-and-sinks": (
        "ab",
        ([[1, 0], [0, 0]], [[0, 0], [0, 1]]),
        [
            (RULE_NO_SOURCE, "row 1 of A_0 is zero (source)", (0, 1)),
            (RULE_NO_SINK, "column 1 of A_0 is zero (sink)", (0, 1)),
            (RULE_NO_SOURCE, "row 0 of A_1 is zero (source)", (1, 0)),
            (RULE_NO_SINK, "column 0 of A_1 is zero (sink)", (1, 0)),
        ],
        None,
    ),
    "empty": ((), ((), ()), [], None),
}


class TestSharedRule:
    """``validate_skeleton`` and the constructor apply one rule to the same input."""

    @pytest.mark.parametrize("case", SHARED_RULE_CASES.values(), ids=SHARED_RULE_CASES.keys())
    def test_validation_and_constructor_agree(self, case):
        labels, matrices, violations, error = case
        report = validate_skeleton(tuple(labels), matrices)
        assert [(v.rule, v.message, v.where) for v in report.violations] == violations
        assert report.passed is not violations
        # Zero rows and columns are reported but tolerated by the constructor.
        structural = [v for v in violations if v[0] not in (RULE_NO_SOURCE, RULE_NO_SINK)]
        assert (error is None) is not structural
        if error is not None:
            with pytest.raises(ValueError) as raised:
                Skeleton(tuple(labels), matrices)
            assert str(raised.value) == error
            return
        skel = Skeleton(tuple(labels), matrices)
        want = tuple(tuple(tuple(int(x) for x in row) for row in m) for m in matrices)
        assert skel.matrices == want
        assert all(type(x) is int for m in skel.matrices for row in m for x in row)


def digest(skel):
    return hashlib.sha256(repr(skel).encode()).hexdigest()


# sha256 of each ``tests/data`` skeleton's repr.
DATA_REPR_DIGESTS = {
    "chain20-b0": "addce2d52c07b10fbc08c53fdbc05966e6cae0a633609283d31ba98e07de2ca2",
    "chain20-b3": "cb27a7c45328b79048d755a2a4a8ed3ba56409608beaadf12520d00153cfe1d2",
    "dumbbell3": "e8b22f0fbdf9409a7a4f6ac320dad225ff56db55cdb5629fbe3f569a7350e37f",
    "example1": "06f32d2f7fbbe8766fbe3c914b1cae79e5aae703d0a01c773c8fbb88a7e68927",
    "example2": "4cddced4d8dc8745f3c9259f473ad8a6c11b704dfbbbaab86985773785c3c389",
    "product": "180fc7b13e458b6072ee0acd4944c7aa1d6bdedb2f1bc0fbf644e81a98fd5255",
}

BIG_PAIR_REPR = (
    "Skeleton(vertex_labels=('u', 'v', 'w'), matrices=("
    "((1099511627779, 1099511627779, 0), (0, 1099511627779, 1099511627779), (0, 0, 1099511627779)), "
    "((1649267441672, 2748779069455, 1099511627783), (0, 1649267441672, 2748779069455), (0, 0, 1649267441672))))"
)

# Entries 2**70 and 2**65 need object storage; the rest of each matrix is small.
WIDE = Skeleton(("a", "b", "c"), ([[3, 1, 0], [0, 2**70, 0], [0, 0, 2]], [[3, 1, 0], [0, 2**70, 0], [0, 0, 2**65]]))


class TestValueSemantics:
    """Equality, hash and repr depend only on the labels and entry values."""

    def test_data_skeletons(self):
        skeletons = data_skeletons()
        assert sorted(skeletons) == sorted(DATA_REPR_DIGESTS)
        for stem, skel in skeletons.items():
            doc = parse_input((DATA / f"{stem}.json").read_text())
            assert digest(skel) == DATA_REPR_DIGESTS[stem]
            assert hash(skel) == hash((tuple(doc.vertices), doc.matrices))
            assert skel == Skeleton(doc.vertices, doc.matrices)
            assert all(skel != other for name, other in skeletons.items() if name != stem)

    def test_big_commuting_pair(self):
        a, b = TestExactCommutation().pair()
        skel = Skeleton(("u", "v", "w"), (a, b))
        assert repr(skel) == BIG_PAIR_REPR
        assert hash(skel) == hash((("u", "v", "w"), (a, b)))
        assert skel == Skeleton(("u", "v", "w"), (a, b)) != Skeleton(("u", "v", "w"), (b, a))

    def test_empty(self):
        assert repr(Skeleton((), ((), ()))) == "Skeleton(vertex_labels=(), matrices=((), ()))"
        assert hash(Skeleton((), ((), ()))) == hash(((), ((), ())))
        assert Skeleton((), ((), ())) == Skeleton((), ((), ())) != Skeleton((), ((),))

    def test_restrictions_of_wide_storage_equal_fresh_skeletons(self, monkeypatch):
        built = []
        original = Skeleton.__post_init__
        monkeypatch.setattr(Skeleton, "__post_init__", lambda self, *a: built.append(1) or original(self, *a))
        # {b} is hereditary: only b itself reaches it. Splitting the rest
        # gives the pieces {a} and {c}.
        rest = restrict(WIDE, {1})
        pieces = split_isolated(rest)
        assert built == []
        assert [p.vertex_labels for p in pieces] == [("a",), ("c",)]
        for sub in (rest, *pieces):
            assert_index_view(sub, WIDE)
            fresh = Skeleton(sub.vertex_labels, sub.matrices)
            assert repr(sub) == repr(fresh)
        assert pieces[0] == Skeleton(("a",), ([[3]], [[3]]))
        assert hash(pieces[1]) == hash((("c",), (((2,),), ((2**65,),))))


def assert_index_view(sub, root):
    """``sub``, cut from ``root``, stores its vertex indices and the root's arrays, and acts as a fresh skeleton.

    It stores no colour matrix of its own: its integer arrays are the very
    tuple that ``root`` (or the analysed twin of ``root`` that it was cut
    from) holds. Its arrays, matrices, equality and hash are those of a
    skeleton built from scratch on its vertices.
    """
    assert set(vars(sub)) == {"vertex_labels", "_ints", "_analysis", "_frame"}
    cut_from, at = sub._frame
    assert cut_from._frame is None and sub._ints is cut_from._ints is root._ints
    assert at.dtype == np.intp and at.tolist() == sorted(set(at.tolist()))
    assert sub.vertex_labels == tuple(root.vertex_labels[v] for v in at)
    fresh = Skeleton(sub.vertex_labels, [[[m[v][w] for w in at] for v in at] for m in root.matrices])
    assert len(sub._arrays) == len(fresh._arrays) == root.k
    assert all(np.array_equal(a, b) for a, b in zip(sub._arrays, fresh._arrays))
    assert sub.matrices == fresh.matrices and sub == fresh and hash(sub) == hash(fresh)


class TestStorage:
    def test_pieces_and_restrictions_are_index_views_of_their_root(self):
        # They used to hold int64 copies of their blocks: about 300 MB of a
        # chain-384 diagram.
        skel = chain(32, 0)
        diagram = phase_diagram(skel, normalize_dynamics(skel))
        cut = [p.skeleton for p in diagram.pieces if p.skeleton._frame is not None]
        assert len(cut) == len(diagram.pieces) - 1
        assert all(p.skeleton._ints is skel._ints for p in diagram.pieces)
        rest = restrict(skel, {30, 31})
        for sub in (*cut, rest, restrict(rest, {28, 29})):
            assert_index_view(sub, skel)

    def test_int64_unless_an_entry_does_not_fit(self):
        skel = Skeleton(("a", "b"), ([[2**63, 1], [1, 1]], [[2**63 - 1, 0], [0, 2**63 - 1]]))
        assert [a.dtype for a in skel._arrays] == [np.dtype(object), np.dtype(np.int64)]
        rest = restrict(WIDE, {1})
        assert [a.dtype for a in rest._arrays] == [np.dtype(object)] * 2  # inherited, although 2**65 now fits
        for arr in (*skel._arrays, *rest._arrays):
            with pytest.raises(ValueError):
                arr[0, 0] = 0

    def test_matrices_view_is_built_once(self):
        skel = skeleton("ab", [[1, 1], [0, 2]], [[1, 1], [0, 2]])
        assert skel.matrices is skel.matrices == (((1, 1), (0, 2)), ((1, 1), (0, 2)))

    def test_assignment_is_refused(self):
        with pytest.raises(FrozenInstanceError):
            EXAMPLE_1.vertex_labels = ("x", "y", "z")
