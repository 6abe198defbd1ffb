"""Closed-form sphere maximum and its numerical confirmation."""

import math

import numpy as np
import pytest

from cubeshadows import errors, extremal
from cubeshadows.errors import InvalidDimension, NonConvergence
from cubeshadows.extremal import (
    closed_form_max,
    criterion_product,
    maximizer,
    numerical_max,
    stationarity_residual,
    summarize,
    threshold_dimension,
)
from cubeshadows.geometry import UnitVector


class TestClosedForm:
    def test_frozen_values(self):
        assert closed_form_max(1) == 1.0
        assert closed_form_max(2) == pytest.approx(1.2071067811865475, abs=0)
        assert closed_form_max(4) == 1.5
        assert closed_form_max(9) == 2.0
        assert closed_form_max(16) == 2.5
        assert closed_form_max(25) == 3.0
        assert closed_form_max(100) == 5.5

    def test_rejects_nonpositive_dimension(self):
        with pytest.raises(InvalidDimension):
            closed_form_max(0)
        with pytest.raises(InvalidDimension):
            maximizer(-3)

    def test_rejects_dimensions_above_the_cap(self, monkeypatch):
        # a lowered cap, so that a missing check costs nothing to run
        monkeypatch.setattr(errors, "MAX_DIMENSION", 8)
        for f in (closed_form_max, maximizer, summarize, numerical_max):
            with pytest.raises(InvalidDimension, match="n <= 8, got n=9"):
                f(9)
        assert summarize(8).n == 8

    def test_strictly_increasing_in_dimension(self):
        vals = [closed_form_max(n) for n in range(1, 40)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestMaximizer:
    def test_one_dimension_is_trivial(self):
        assert maximizer(1).coords.tolist() == [1.0]

    def test_four_dimensions_frozen_coordinates(self):
        m = maximizer(4)
        assert m.coords[0] == pytest.approx(0.8660254037844386, abs=1e-15)
        assert m.coords[1:] == pytest.approx([0.28867513459481287] * 3, abs=1e-15)

    def test_attains_the_closed_form(self):
        for n in range(1, 65):
            m = maximizer(n)
            assert abs(criterion_product(m) - closed_form_max(n)) <= 1e-12
            sq = math.fsum(float(c) * float(c) for c in m.coords)
            assert abs(sq - 1.0) <= 1e-14

    def test_is_a_stationary_point(self):
        for n in (2, 5, 10, 25, 64):
            assert stationarity_residual(maximizer(n)) <= 1e-10

    def test_one_heavy_coordinate_rest_equal(self):
        m = maximizer(12)
        assert m.coords[0] > m.coords[1]
        assert np.all(m.coords[1:] == m.coords[1])


class TestSurrogateGradient:
    def test_matches_central_finite_differences(self):
        for n, tag in ((2, 1), (10, 2)):
            rng = np.random.Generator(
                np.random.Philox(key=np.array([55, tag], dtype=np.uint64))
            )
            w = np.abs(rng.standard_normal(n))
            w[0] += 1.0
            w /= np.linalg.norm(w)
            j = int(np.argmax(w))

            grad = np.full(n, w[j])
            grad[j] += math.fsum(w)
            rg = grad - float(grad @ w) * w
            assert stationarity_residual(UnitVector(w)) == pytest.approx(
                float(np.linalg.norm(rg)), abs=1e-14
            )

            t = rng.standard_normal(n)
            t -= float(t @ w) * w
            t /= np.linalg.norm(t)

            def h(v):
                v = v / np.linalg.norm(v)
                return float(v[j] * np.sum(v))

            d = 1e-6
            fd = (h(w + d * t) - h(w - d * t)) / (2.0 * d)
            exact = float(rg @ t)
            assert fd == pytest.approx(exact, abs=1e-4 * max(1.0, abs(exact)))


class TestNumericalMax:
    def test_confirms_the_closed_form(self):
        for n in (2, 9, 10):
            res = numerical_max(n, restarts=8, seed=0)
            gap = closed_form_max(n) - res.value
            assert -1e-9 <= gap <= 1e-7
            assert res.grad_norm <= 1e-10
            assert res.restarts_converged == 8
            assert stationarity_residual(res.point) <= 1e-10

    def test_value_never_exceeds_the_closed_form_meaningfully(self):
        res = numerical_max(25, restarts=4, seed=3)
        assert res.value <= closed_form_max(25) + 1e-9

    def test_nonconvergence_carries_the_best_point(self, monkeypatch):
        monkeypatch.setattr(extremal, "MAX_ITERS", 2)
        with pytest.raises(NonConvergence) as exc:
            numerical_max(6, restarts=2, seed=0)
        assert exc.value.best_point is not None
        assert 1.0 <= exc.value.best_value <= closed_form_max(6) + 1e-9

    def test_rejects_nonpositive_dimension(self):
        with pytest.raises(InvalidDimension):
            numerical_max(0)

    def test_rejects_zero_restarts(self):
        with pytest.raises(ValueError, match="restarts"):
            numerical_max(5, restarts=0)


class TestUpperBoundProperty:
    def test_random_directions_never_beat_the_maximum(self):
        # vectorized over raw Gaussians; the product is scale invariant
        for n in (2, 5, 9, 10, 50):
            rng = np.random.Generator(
                np.random.Philox(key=np.array([13, n], dtype=np.uint64))
            )
            g = rng.standard_normal((100_000, n))
            a = np.abs(g)
            products = a.sum(axis=1) * a.max(axis=1) / np.einsum("ij,ij->i", g, g)
            assert float(products.max()) <= closed_form_max(n) + 1e-9
            assert float(products.min()) >= 1.0 - 1e-12


class TestThresholdDimension:
    def test_default_threshold(self):
        assert threshold_dimension() == 9


class TestSummarize:
    def test_fields_are_coherent(self):
        for n in range(1, 13):
            s = summarize(n)
            assert s.n == n
            assert s.max_value == closed_form_max(n)
            assert abs(s.achieved_value - s.max_value) <= 1e-12
            assert s.threshold_ok == (n <= 9)
