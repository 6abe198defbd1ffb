"""Random-direction sampling and criterion-product statistics."""

import math
import sys
import threading

import numpy as np
import pytest

from cubeshadows import errors, measure
from cubeshadows.errors import DegenerateSample, InvalidDimension
from cubeshadows.extremal import closed_form_max
from cubeshadows.geometry import UnitVector, _unit_rows, criterion
from cubeshadows.measure import (
    criterion_product_raw,
    estimate,
    growth_scan,
    sample_sphere,
)


def philox(n, seed, index, retry):
    """Draw number retry of stream (seed, index) from a new generator keyed
    (seed, index) at counter (retry, 0, 0, 0): the bits every draw must have."""
    key = np.array([seed, index], dtype=np.uint64)
    counter = np.array([retry, 0, 0, 0], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key, counter=counter))
    return gen.standard_normal(n)


def fail_first(monkeypatch, fails):
    """Make draw r of stream index degenerate for r < fails(index), so the
    first usable draw of that stream is number fails(index)."""
    draw = measure._gaussian

    def flaky(n, seed, index, retry, gen):
        if retry < fails(index):
            return np.zeros(n)
        return draw(n, seed, index, retry, gen)

    monkeypatch.setattr(measure, "_gaussian", flaky)


class TestSampleSphere:
    def test_deterministic_per_stream(self):
        a = sample_sphere(7, seed=42, index=9)
        b = sample_sphere(7, seed=42, index=9)
        assert np.array_equal(a.coords, b.coords)

    def test_streams_are_distinct(self):
        a = sample_sphere(7, seed=42, index=0)
        b = sample_sphere(7, seed=42, index=1)
        c = sample_sphere(7, seed=43, index=0)
        assert not np.array_equal(a.coords, b.coords)
        assert not np.array_equal(a.coords, c.coords)

    def test_unit_norm(self):
        for i in range(20):
            u = sample_sphere(11, seed=5, index=i)
            sq = math.fsum(float(c) * float(c) for c in u.coords)
            assert abs(sq - 1.0) < 1e-14

    def test_rejects_nonpositive_dimension(self):
        with pytest.raises(InvalidDimension):
            sample_sphere(0, seed=1)

    def test_gives_up_on_degenerate_streams(self, monkeypatch):
        monkeypatch.setattr(
            "cubeshadows.measure._gaussian",
            lambda n, seed, index, retry, gen=None: np.zeros(n),
        )
        with pytest.raises(DegenerateSample):
            sample_sphere(3, seed=1)

    def test_a_rekeyed_generator_draws_the_bits_of_a_new_one(self, monkeypatch):
        # every draw, of _draws and of sample_sphere, goes through one
        # re-keyed generator, across lengths, keys and retries
        first = [0]  # the first usable draw of each stream
        fail_first(monkeypatch, lambda index: first[0])
        for n in (1, 3, 10, 101, 10**4):
            for seed in (0, 2**63 - 1, 2**63, 2**64 - 1):
                for retry in (0, 1, 7):
                    first[0] = retry
                    fresh = philox(n, seed, 5, retry)
                    [drawn] = measure._draws(n, seed, [5])
                    assert drawn.tobytes() == fresh.tobytes(), (n, seed, retry)
                    sampled = sample_sphere(n, seed, 5).coords
                    assert sampled.tobytes() == UnitVector(fresh).coords.tobytes()

    def test_coordinate_moments_in_three_dimensions(self):
        # a coordinate of a uniform point on the 3-sphere is uniform on
        # [-1, 1]: mean 0, mean square 1/3, mean absolute value 1/2
        count = 40_000
        first = np.empty(count)
        for i in range(count):
            first[i] = sample_sphere(3, seed=88, index=i).coords[0]
        scale = 1.0 / math.sqrt(count)
        assert abs(float(np.mean(first))) <= 4.0 * math.sqrt(1 / 3) * scale
        assert abs(float(np.mean(first**2)) - 1 / 3) <= 4.0 * math.sqrt(4 / 45) * scale
        assert abs(float(np.mean(np.abs(first))) - 0.5) <= 4.0 * math.sqrt(1 / 12) * scale


class TestBatchedDraws:
    """The draw loop that estimate and agreement_sweep share: one re-keyed
    generator, rows normalized as a stack."""

    @staticmethod
    def rows(n, seed, trials):
        return _unit_rows(np.stack(list(measure._draws(n, seed, range(trials)))))

    def test_rows_have_the_bits_of_sample_sphere(self):
        for n in range(1, 15):
            for seed in (0, 3, 2**63 + 5, 2**64 - 1):
                for t, row in enumerate(self.rows(n, seed, 9)):
                    expected = sample_sphere(n, seed, index=t).coords
                    assert row.tobytes() == expected.tobytes(), (n, seed, t)

    def test_retries_draw_the_next_counter_of_the_same_stream(self, monkeypatch):
        # index 1 fails its first draw and index 4 its first two; each row is
        # then the first usable draw of its own stream, as in sample_sphere
        fails = {1: 1, 4: 2}
        fail_first(monkeypatch, lambda index: fails.get(index, 0))
        for n in (1, 5, 12):
            for seed in (3, 2**64 - 1):
                for t, row in enumerate(self.rows(n, seed, 6)):
                    retried = philox(n, seed, t, fails.get(t, 0))
                    assert row.tobytes() == UnitVector(retried).coords.tobytes()
                    again = sample_sphere(n, seed, index=t).coords
                    assert row.tobytes() == again.tobytes(), (n, seed, t)

    def test_threads_interleave_streams_with_the_bits_of_new_generators(self):
        # each thread alternates two streams of its own; with a switch
        # interval of 1 us, threads also take turns between a re-key and its
        # draw, which one generator shared by the threads would not survive
        n, count, got = 3, 300, {}

        def draw(seed):
            pair = (measure._draws(n, s, range(count)) for s in (seed, seed + 1))
            got[seed] = [row for rows in zip(*pair) for row in rows]

        threads = [threading.Thread(target=draw, args=(2 * t,)) for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(got) == [0, 2, 4, 6]
        for seed, rows in got.items():
            want = [philox(n, s, i, 0) for i in range(count) for s in (seed, seed + 1)]
            assert b"".join(r.tobytes() for r in rows) == b"".join(
                w.tobytes() for w in want
            ), seed

    def test_gives_up_after_every_retry_of_one_stream(self, monkeypatch):
        retries = []

        def degenerate(n, seed, index, retry, gen=None):
            retries.append((index, retry))
            return np.zeros(n)

        monkeypatch.setattr(measure, "_gaussian", degenerate)
        with pytest.raises(DegenerateSample, match="index=0"):
            list(measure._draws(3, 1, range(4)))
        assert retries == [(0, r) for r in range(measure.MAX_RETRIES)]


class TestRawProduct:
    def test_matches_the_normalized_criterion(self):
        rng = np.random.Generator(
            np.random.Philox(key=np.array([3, 1], dtype=np.uint64))
        )
        for n in (2, 5, 17, 50):
            for _ in range(25):
                g = rng.standard_normal(n)
                raw = criterion_product_raw(g)
                via_unit = criterion(UnitVector(g)).product
                assert abs(raw - via_unit) <= 1e-12

    def test_single_dimension_is_exactly_one(self):
        assert criterion_product_raw(np.array([-2.7])) == 1.0


class TestEstimate:
    def test_deterministic(self):
        assert estimate(6, 500, seed=4) == estimate(6, 500, seed=4)

    def test_quantiles_are_ordered_and_bounded(self):
        e = estimate(6, 3000, seed=10)
        assert 1.0 - 1e-12 <= e.q05 <= e.median_product <= e.q95
        assert e.q95 <= closed_form_max(6) + 1e-9
        assert e.q05 <= e.mean_product <= e.q95

    def test_every_direction_satisfies_in_low_dimension(self):
        for n in (5, 9):
            assert estimate(n, 2000, seed=21).frac_satisfying == 1.0

    def test_satisfaction_decays_and_median_grows(self):
        ests = [estimate(n, 3000, seed=31) for n in (10, 100, 1000)]
        fracs = [e.frac_satisfying for e in ests]
        medians = [e.median_product for e in ests]
        assert fracs[0] > fracs[1] > fracs[2]
        assert medians[0] < medians[1] < medians[2]

    def test_growth_ratio_needs_at_least_three_dimensions(self):
        assert estimate(2, 200, seed=1).growth_ratio is None
        e = estimate(10, 200, seed=1)
        assert e.growth_ratio == pytest.approx(
            e.median_product / math.sqrt(math.log(10)), abs=0
        )

    def test_one_dimensional_products_are_all_exactly_one(self):
        e = estimate(1, 300, seed=2)
        assert e.frac_satisfying == 1.0
        assert e.mean_product == 1.0
        assert e.median_product == 1.0
        assert e.q05 == 1.0 and e.q95 == 1.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidDimension):
            estimate(0, 10, seed=1)
        with pytest.raises(ValueError):
            estimate(3, 0, seed=1)

    def test_rejects_dimensions_and_sample_counts_above_the_caps(self, monkeypatch):
        # lowered caps, so that a missing check costs nothing to run
        monkeypatch.setattr(errors, "MAX_DIMENSION", 8)
        monkeypatch.setattr(measure, "MAX_SAMPLES", 4)
        for call in (
            lambda: sample_sphere(9, seed=1),
            lambda: estimate(9, 4, seed=1),
            lambda: growth_scan([3, 9], 4, seed=1),
        ):
            with pytest.raises(InvalidDimension, match="n <= 8, got n=9"):
                call()
        with pytest.raises(ValueError, match="samples <= 4"):
            estimate(3, 5, seed=1)
        assert estimate(8, 4, seed=1).samples == 4

    def test_seeds_and_indexes_are_ints_in_the_key_range(self):
        # Philox keys are two unsigned 64-bit words: a fractional seed must
        # not draw with its truncation, nor an out-of-range one overflow
        from cubeshadows.extremal import numerical_max
        from cubeshadows.oracle import agreement_sweep

        for bad in (1.9, 1.5, 1.0, -1, 2**64, "1", None):
            for call in (
                lambda: sample_sphere(5, bad),
                lambda: sample_sphere(5, 1, bad),
                lambda: estimate(5, 4, bad),
                lambda: growth_scan([3], 4, bad),
                lambda: agreement_sweep(12, 50, bad),
                lambda: numerical_max(4, restarts=2, seed=bad),
            ):
                with pytest.raises(ValueError, match=r"ints in \[0, 2\^64\)"):
                    call()
        # any int type in the range keys the same stream
        top = sample_sphere(5, np.uint64(2**64 - 1), np.int64(3))
        assert top.coords.tobytes() == sample_sphere(5, 2**64 - 1, 3).coords.tobytes()
        assert sample_sphere(5, 0, 2**64 - 1).n == 5


class TestGrowthScan:
    def test_orders_results_by_request(self):
        rows = growth_scan([3, 7], 200, seed=5)
        assert [r.n for r in rows] == [3, 7]
        assert rows[0] == estimate(3, 200, seed=5)

    def test_rejects_dimensions_without_meaningful_normalization(self):
        with pytest.raises(InvalidDimension):
            growth_scan([2, 10], 100, seed=1)


class TestNearOrthogonalRarity:
    def test_a_million_gaussian_directions_miss_every_vertex_span(self):
        # directions orthogonal to a vertex form a measure-zero set; a
        # bulk draw from the same Gaussian family should never land
        # within 1e-9 of it (frozen stream, so this never flakes)
        n = 8
        signs = np.array(
            [[1 - 2 * ((v >> k) & 1) for k in range(n)] for v in range(128)],
            dtype=np.float64,
        )
        rng = np.random.Generator(
            np.random.Philox(key=np.array([0, 0], dtype=np.uint64))
        )
        hits = 0
        for _ in range(50):
            g = rng.standard_normal((20_000, n))
            mins = np.abs(g @ signs.T).min(axis=1) / np.linalg.norm(g, axis=1)
            hits += int(np.count_nonzero(mins < 1e-9))
        assert hits == 0
