import random

import numpy as np
import pytest

from kgraphkms import Skeleton, degree_power, validate_skeleton
from kgraphkms.skeleton import (
    RULE_COMMUTE,
    RULE_DIMENSION,
    RULE_INTEGER,
    RULE_NONNEGATIVE,
    RULE_NO_SINK,
    RULE_NO_SOURCE,
    RULE_SQUARE,
    _int_product,
)

from conftest import EXAMPLE_1, skeleton


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
        assert RULE_COMMUTE in bad.rules()

    def test_shape_and_sign_reported_not_raised(self):
        rep = validate_skeleton(["a", "b"], [[[1, 0], [0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]])
        assert RULE_DIMENSION in rep.rules()
        rep = validate_skeleton(["a", "b"], [[[1, 0], [0]], [[1, 0], [0, 1]]])
        assert RULE_SQUARE in rep.rules()
        rep = validate_skeleton(["a"], [[[-1]], [[1]]])
        assert RULE_NONNEGATIVE in rep.rules()
        rep = validate_skeleton(["a"], [[[0.5]], [[1]]])
        assert RULE_INTEGER in rep.rules()

    def test_sources_and_sinks_reported(self):
        rep = validate_skeleton(["a", "b"], [[[1, 1], [0, 0]], [[1, 1], [0, 0]]])
        assert RULE_NO_SOURCE in rep.rules()
        rep = validate_skeleton(["a", "b"], [[[0, 1], [0, 1]], [[0, 1], [0, 1]]])
        assert RULE_NO_SINK in rep.rules()

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
        assert RULE_INTEGER in validate_skeleton(["a"], [[[entry]]]).rules()
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


class TestDegreePower:
    def test_zero_vector_gives_identity(self):
        out = degree_power(EXAMPLE_1, (0, 0))
        assert out == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_scalar_product(self):
        skel = skeleton("v", [[2]], [[3]])
        assert degree_power(skel, (2, 1)) == ((12,),)

    def test_order_independence_example1(self):
        a1, a2 = EXAMPLE_1.matrices
        assert _int_product(a1, a2) == _int_product(a2, a1)
        assert degree_power(EXAMPLE_1, (1, 1)) == _int_product(a1, a2)

    def test_order_independence_random_dumbbells(self):
        # Random commuting two-vertex families: powers taken colour 1 first
        # must equal powers taken colour 2 first.
        rng = random.Random(7)
        for _ in range(25):
            m1, n1, p1 = rng.randint(1, 5), rng.randint(1, 5), rng.randint(0, 4)
            delta = n1 - m1
            m2 = rng.randint(1, 5)
            n2 = m2 + delta if m2 + delta >= 1 else m2
            p2 = p1 if n2 - m2 == delta else 0
            if (n2 - m2) * p1 != (n1 - m1) * p2:
                continue
            skel = skeleton("vw", [[m1, p1], [0, n1]], [[m2, p2], [0, n2]])
            e1, e2 = rng.randint(0, 3), rng.randint(0, 3)
            forward = degree_power(skel, (e1, e2))
            swapped = skeleton("vw", skel.matrices[1], skel.matrices[0])
            assert degree_power(swapped, (e2, e1)) == forward

    def test_large_powers_exact(self):
        skel = skeleton("v", [[7]], [[11]])
        out = degree_power(skel, (30, 20))
        assert out == ((7**30 * 11**20,),)

    def test_bad_exponents(self):
        with pytest.raises(ValueError):
            degree_power(EXAMPLE_1, (1,))
        with pytest.raises(ValueError):
            degree_power(EXAMPLE_1, (1, -1))


def reference_product(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][l] * b[l][j] for l in range(n)) for j in range(n)) for i in range(n))


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

    def test_int_product_matches_reference(self):
        rng = random.Random(11)
        for trial in range(60):
            n = rng.randint(0, 5)
            top = 2**70 if trial % 3 == 0 else 9
            a, b = (
                tuple(tuple(rng.randint(-top, top) for _ in range(n)) for _ in range(n)) for _ in range(2)
            )
            out = _int_product(a, b)
            assert out == reference_product(a, b)
            assert all(type(x) is int for row in out for x in row)
        assert _int_product((), ()) == ()

    @pytest.mark.parametrize("limit", [2**53, 2**62])
    @pytest.mark.parametrize("side", [-1, 1])
    def test_int_product_exact_on_both_sides_of_each_path_limit(self, limit, side):
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
        out = _int_product(a, b)
        assert out == reference_product(a, b)
        assert out[0][0] == n * peak_a * peak_b
        assert all(type(x) is int for row in out for x in row)


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
        assert [a.shape for a in Skeleton.empty(2).as_arrays()] == [(0, 0), (0, 0)]
