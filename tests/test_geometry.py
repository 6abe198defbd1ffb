"""Projection geometry, shadow norms, and the norm-product criterion."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from cubeshadows.errors import MAX_DIMENSION, DimensionMismatch
from cubeshadows.geometry import (
    UnitVector,
    _exact_l2,
    _products_at_most,
    _pow2_scaled,
    _unit_rows,
    Vertex,
    canonical_vertex,
    criterion,
    criterion_product,
    norms,
    project,
    shadow,
    shadow_norm_closed_form,
)
from cubeshadows.measure import sample_sphere

# coordinates that survive scaling by 2^-1000 exactly (no subnormals)
scalable_lists = st.lists(
    st.floats(min_value=-10.0, max_value=10.0).filter(
        lambda x: x == 0.0 or abs(x) >= 2.0**-20
    ),
    min_size=1,
    max_size=24,
).filter(any)


@st.composite
def full_range_vectors(draw):
    """Finite doubles of every exponent, subnormals and zero included. The
    exponents spread around a common one, so both verdicts occur."""
    n = draw(st.integers(min_value=1, max_value=24))
    e0 = draw(st.integers(min_value=-1074, max_value=1024))
    spread = draw(st.sampled_from([1, 2, 64, 2100]))
    exps = st.integers(max(-1074, e0 - spread), min(1024, e0 + spread))
    mant = st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True)
    xs = draw(st.lists(st.builds(math.ldexp, mant, exps), min_size=n, max_size=n))
    assume(any(xs))
    return np.array(xs)


coord_lists = st.lists(
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    min_size=1,
    max_size=24,
).filter(lambda xs: math.fsum(x * x for x in xs) > 1e-12)


@st.composite
def direction_point_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    fl = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
    xs = draw(st.lists(fl, min_size=n, max_size=n))
    assume(math.fsum(x * x for x in xs) > 1e-12)
    ys = draw(st.lists(fl, min_size=n, max_size=n))
    return np.array(xs), np.array(ys)


def u_of(*coords):
    return UnitVector(np.array(coords, dtype=np.float64))


class TestUnitVector:
    def test_normalizes_input(self):
        u = u_of(3.0, 4.0)
        assert u.n == 2
        assert u.coords == pytest.approx([0.6, 0.8], abs=1e-15)

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError, match="zero vector"):
            u_of(0.0, 0.0)

    def test_rejects_nonfinite(self):
        # one max |v| decides both checks: nan or inf among zeros is not
        # finite, rather than a zero vector
        nan, inf = float("nan"), float("inf")
        for coords in ((1.0, nan), (1.0, inf), (0.0, nan), (-inf, 0.0), (nan, -inf)):
            with pytest.raises(ValueError, match="finite"):
                u_of(*coords)

    def test_rejects_bad_shape(self):
        with pytest.raises(DimensionMismatch):
            UnitVector(np.zeros((2, 2)))
        with pytest.raises(DimensionMismatch):
            UnitVector(np.array([]))

    def test_coords_are_read_only(self):
        u = u_of(1.0, 2.0)
        with pytest.raises(ValueError):
            u.coords[0] = 5.0

    @given(coord_lists)
    def test_always_lands_on_the_unit_sphere(self, xs):
        u = UnitVector(np.array(xs))
        sq = math.fsum(float(c) * float(c) for c in u.coords)
        assert abs(sq - 1.0) < 1e-14


    @given(scalable_lists)
    def test_power_of_two_scaling_changes_no_bit(self, xs):
        v = np.array(xs)
        ref = UnitVector(v).coords
        for k in (1000, -1000):
            assert UnitVector(2.0**k * v).coords.tobytes() == ref.tobytes()

    def test_extreme_magnitudes_neither_overflow_nor_underflow(self):
        for scale in (1e308, 1e-200, 5e-324):
            u = UnitVector(np.array([scale, scale]))
            assert u.coords == pytest.approx([math.sqrt(0.5)] * 2, abs=1e-15)
            assert criterion(u).product == pytest.approx(1.0, abs=1e-15)
            assert not criterion(u).degenerate_zero_coords

    def test_stacked_rows_are_scaled_and_normalized_one_by_one(self):
        # rows from 2^-1060 (partly subnormal) to 2^1020 times one vector in
        # one stack: a scale shared by the rows would flush the small ones
        # to zero, and none at all would overflow the squares of the large
        x = np.array([0.75, -3.0, 1.5, 2.0**-20, -0.3])
        ks = (-1060, -1000, -500, 0, 500, 1000, 1020)
        stack = np.stack([np.ldexp(x, k) for k in ks])
        rows, ref = _unit_rows(stack), UnitVector(x).coords
        decided = _products_at_most(rows)
        for k, v, row, satisfied in zip(ks, stack, rows, decided):
            u = UnitVector(v)
            assert row.tobytes() == u.coords.tobytes(), k
            assert satisfied == criterion(u).satisfied, k
            assert criterion_product(u) == norms(u).l1 * norms(u).linf
            if k >= -1000:  # no subnormal coordinate: the same direction
                assert row.tobytes() == ref.tobytes(), k


class TestVertex:
    def test_accepts_only_unit_signs(self):
        v = Vertex(np.array([1, -1, 1], dtype=np.int8))
        assert v.n == 3
        with pytest.raises(ValueError):
            Vertex(np.array([1, 0, 1], dtype=np.int8))
        with pytest.raises(ValueError):
            Vertex(np.array([2, 1], dtype=np.int8))

    def test_rejects_bad_shape(self):
        with pytest.raises(DimensionMismatch):
            Vertex(np.ones((2, 2), dtype=np.int8))
        with pytest.raises(DimensionMismatch):
            Vertex(np.array([], dtype=np.int8))

    def test_entries_are_checked_before_the_int8_cast(self):
        # an int8 cast maps 1.5 and -1.9 to signs and wraps 257 to 1, and
        # 127 * 127 wraps to 1 in int8: each is rejected, not rounded
        bad = [
            np.array([1.5, -1.0]),
            [1.0, -1.9],
            np.array([257, -1]),
            np.array([127, 1], dtype=np.int8),
            np.array([0, -1], dtype=np.int8),
            np.array([-1.0, np.nan]),
        ]
        for signs in bad:
            with pytest.raises(ValueError):
                Vertex(signs)
        for signs in ([1, -1], np.array([1.0, -1.0]), np.array([-1, 1], np.int64)):
            v = Vertex(signs)
            assert v.signs.dtype == np.int8 and v.signs.tolist() == list(signs)
            assert not v.signs.flags.writeable


class TestNorms:
    def test_frozen_values(self):
        m = norms(u_of(3.0, 4.0))
        assert m.l1 == pytest.approx(1.4, abs=1e-15)
        assert m.l2 == pytest.approx(1.0, abs=1e-15)
        assert m.linf == pytest.approx(0.8, abs=1e-15)

    @given(coord_lists, st.randoms(use_true_random=False))
    def test_bitwise_invariant_under_permutation_and_sign_flips(self, xs, rnd):
        # compensated sums make the invariance exact, not approximate
        n = len(xs)
        perm = rnd.sample(range(n), n)
        ys = [rnd.choice((-1.0, 1.0)) * xs[p] for p in perm]
        a = norms(UnitVector(np.array(xs)))
        b = norms(UnitVector(np.array(ys)))
        assert (a.l1, a.l2, a.linf) == (b.l1, b.l2, b.linf)


class TestCriterionProduct:
    @given(coord_lists)
    def test_is_the_l1_norm_times_the_sup_norm_bitwise(self, xs):
        u = UnitVector(np.array(xs))
        m = norms(u)
        assert criterion_product(u) == m.l1 * m.linf
        assert criterion(u).product == criterion_product(u)


class TestFullFloat64Range:
    # one coordinate three times each of 15 others: product 2.25, past 2
    SUBNORMAL = np.ldexp([3.0] + [1.0] * 15, -1060)
    HUGE = np.ldexp([3.0] + [1.0] * 15, 1000)

    @given(full_range_vectors())
    @example(SUBNORMAL)
    @example(HUGE)
    def test_product_lies_between_one_and_root_n(self, v):
        p = criterion_product(UnitVector(v))
        assert 1.0 - 1e-12 <= p <= math.sqrt(v.size) + 1e-12

    @given(
        full_range_vectors(),
        st.integers(min_value=-1020, max_value=1023),
        st.floats(min_value=0.5, max_value=1.0, exclude_max=True),
    )
    @example(SUBNORMAL, -40, 0.75)
    @example(HUGE, -60, 0.75)
    def test_verdict_is_invariant_under_positive_scaling(self, v, t, m):
        # c = m 2^k puts max|c v| in [2^(t-2), 2^t], normal and finite, so
        # rounding c v moves each coordinate by at most 2^-53 max|c v|
        k = t - math.frexp(float(np.max(np.abs(v))))[1]
        assume(-1073 <= k <= 1024)
        p = criterion_product(UnitVector(v))
        assume(abs(p - 2.0) > 1e-12)
        c = math.ldexp(m, k)
        assert criterion(UnitVector(c * v)).satisfied == (p <= 2.0)

    @given(full_range_vectors())
    @example(SUBNORMAL)
    @example(HUGE)
    def test_whole_array_squares_have_the_bits_of_one_at_a_time(self, v):
        # callers pass unit or power-of-two scaled vectors, so no square
        # overflows; the reference is the former coordinate-wise generator
        for w in (_pow2_scaled(v)[0], UnitVector(v).coords):
            assert _exact_l2(w) == math.sqrt(math.fsum(float(x) * float(x) for x in w))


class TestProject:
    def test_kills_the_direction_itself(self):
        u = u_of(1.0, 1.0)
        out = project(u, np.array([1.0, 1.0]))
        assert np.max(np.abs(out)) < 1e-15

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(DimensionMismatch):
            project(u_of(1.0, 0.0), np.array([1.0, 2.0, 3.0]))

    @given(direction_point_pairs())
    def test_result_is_orthogonal_to_direction(self, pair):
        raw, x = pair
        u = UnitVector(raw)
        out = project(u, x)
        tol = 1e-13 * u.n * (1.0 + float(np.linalg.norm(x)))
        assert abs(float(out @ u.coords)) <= tol

    @given(direction_point_pairs())
    def test_projecting_twice_changes_nothing(self, pair):
        raw, x = pair
        u = UnitVector(raw)
        once = project(u, x)
        twice = project(u, once)
        tol = 1e-13 * u.n * (1.0 + float(np.linalg.norm(x)))
        assert np.max(np.abs(twice - once)) <= tol


class TestShadow:
    def test_frozen_example(self):
        rep = shadow(u_of(3.0, 4.0), Vertex(np.array([1, 1], dtype=np.int8)))
        assert rep.inner_product == pytest.approx(1.4, abs=1e-15)
        assert rep.shadow == pytest.approx([0.16, -0.12], abs=1e-15)
        assert rep.inf_norm == pytest.approx(0.16, abs=1e-15)
        assert rep.inside

    def test_mismatched_vertex_rejected(self):
        with pytest.raises(DimensionMismatch):
            shadow(u_of(1.0, 0.0), Vertex(np.array([1, 1, 1], dtype=np.int8)))


class TestCanonicalVertex:
    def test_matches_coordinate_signs(self):
        v = canonical_vertex(u_of(-1.0, 2.0, -3.0, 4.0))
        assert v.signs.tolist() == [-1, 1, -1, 1]

    def test_zero_coordinates_default_to_plus(self):
        v = canonical_vertex(u_of(0.0, -1.0))
        assert v.signs.tolist() == [1, -1]

    @given(coord_lists)
    def test_sign_rule_holds_everywhere(self, xs):
        u = UnitVector(np.array(xs))
        v = canonical_vertex(u)
        for c, s in zip(u.coords, v.signs):
            assert s == (-1 if c < 0 else 1)


class TestClosedFormShadowNorm:
    def test_frozen_example(self):
        u = u_of(3.0, 4.0)
        cf = shadow_norm_closed_form(u)
        assert cf == pytest.approx(0.16, abs=1e-15)
        assert cf == shadow(u, canonical_vertex(u)).inf_norm

    def test_zero_coordinate_pins_the_norm_at_one(self):
        assert shadow_norm_closed_form(u_of(1.0, 0.0, 0.0)) == 1.0

    @given(coord_lists)
    def test_matches_direct_evaluation(self, xs):
        u = UnitVector(np.array(xs))
        cf = shadow_norm_closed_form(u)
        direct = shadow(u, canonical_vertex(u)).inf_norm
        assert abs(cf - direct) <= 1e-12 * u.n


class TestCriterion:
    def test_frozen_satisfied_example(self):
        res = criterion(u_of(3.0, 4.0))
        assert res.product == pytest.approx(1.12, abs=1e-15)
        assert res.satisfied
        assert res.witness.signs.tolist() == [1, 1]
        assert not res.degenerate_zero_coords

    def test_zero_coordinate_is_flagged(self):
        assert criterion(u_of(1.0, 0.0)).degenerate_zero_coords

    def test_margin_tightens_the_threshold(self):
        u = u_of(3.0, 4.0)
        assert criterion(u).satisfied
        # product is 1.12; a margin of 0.9 demands <= 1.1
        assert not criterion(u, criterion_tol=-0.9).satisfied

    @given(coord_lists, st.randoms(use_true_random=False))
    def test_product_bitwise_invariant_under_symmetries(self, xs, rnd):
        n = len(xs)
        perm = rnd.sample(range(n), n)
        ys = [rnd.choice((-1.0, 1.0)) * xs[p] for p in perm]
        a = criterion(UnitVector(np.array(xs)))
        b = criterion(UnitVector(np.array(ys)))
        assert a.product == b.product
        assert a.satisfied == b.satisfied

    @given(coord_lists)
    @example([4.0] + [1.0] * 8)
    def test_verdict_is_the_threshold_comparison(self, xs):
        # the exact product of the stored floats against 2; the rounded
        # product agrees wherever it is clear of the threshold
        res = criterion(UnitVector(np.array(xs)))
        a = [abs(Fraction(x)) for x in UnitVector(np.array(xs)).coords.tolist()]
        assert res.satisfied == (sum(a) * max(a) <= 2)
        if abs(res.product - 2.0) > 1e-12:
            assert res.satisfied == (res.product <= 2.0)

    @given(coord_lists)
    def test_witness_is_the_canonical_vertex(self, xs):
        u = UnitVector(np.array(xs))
        res = criterion(u)
        assert res.witness.signs.tolist() == canonical_vertex(u).signs.tolist()

    @given(coord_lists)
    def test_satisfied_directions_have_inside_witness(self, xs):
        # sufficiency at unit scale, with slack for boundary roundoff
        u = UnitVector(np.array(xs))
        res = criterion(u)
        if res.product <= 2.0 - 1e-6:
            rep = shadow(u, res.witness)
            assert res.satisfied and rep.inside
            assert rep.inf_norm <= 1.0 + 1e-12
        elif res.product >= 2.0 + 1e-6:
            rep = shadow(u, res.witness)
            assert not res.satisfied and not rep.inside
            assert rep.inf_norm >= 1.0 - 1e-12

    @given(coord_lists)
    @example([4.0] + [1.0] * 8)
    @example([1.0, 1.0, -1e-14])
    def test_verdict_is_the_witness_shadow_verdict(self, xs):
        # both are exact on the stored floats, so they agree with no slack
        u = UnitVector(np.array(xs))
        res = criterion(u)
        assert res.satisfied == shadow(u, res.witness).inside


class TestExactProduct:
    def test_the_filter_band_matches_a_fraction_brute_force(self):
        # a bound at the float product itself, or one ulp either side, puts
        # each row in the filter's band, where the exact sum decides: sphere
        # points up to n = 10^5, a subnormal coordinate, signed zeros, and
        # (4, 1 x 8), whose float product is 2 where the exact one is not
        rows = [sample_sphere(n, 3).coords for n in (3, 100, 1000, 100000)]
        for v in ((1.0, 5e-324), (1.0, 1.0, -5e-324), (-0.0, 1.0), (0.0, -0.0, 1.0)):
            rows.append(u_of(*v).coords)
        rows.append(u_of(4.0, *[1.0] * 8).coords)
        seen = set()
        for row in rows:
            a = [abs(Fraction(x)) for x in row.tolist()]
            exact = sum(a) * max(a)
            p = float(np.abs(row).sum() * np.abs(row).max())
            for bound in (np.nextafter(p, 0.0), p, np.nextafter(p, 4.0), 2.0):
                got = bool(_products_at_most(row[None], bound)[0])
                assert got == (exact <= bound), (row.size, bound)
                seen.add(got)
        assert seen == {False, True}

    def test_the_band_is_decided_quickly_at_the_dimension_cap(self):
        # the exact sum adds integers per exponent, not one Fraction per
        # coordinate, which took 9.2 s here
        u = sample_sphere(MAX_DIMENSION, 3)
        a = np.abs(u.coords)
        p = float(a.sum() * a.max())
        start = time.perf_counter()
        _products_at_most(u.coords[None], p)
        assert time.perf_counter() - start < 2.0
