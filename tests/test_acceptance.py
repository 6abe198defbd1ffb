"""Acceptance gates, one test per criterion.

Run with -v to get a pass or fail line for each criterion. Every
tolerance and time budget is asserted here; nothing is advisory except
the printed speed ratio in criterion 7.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

import cubeshadows as cs
from cubeshadows import oracle
from cubeshadows.geometry import (
    _unit_rows,
    canonical_vertex,
    shadow,
    shadow_norm_closed_form,
)
from cubeshadows.measure import _draws
from cubeshadows.oracle import enumerate_shadows, enumerate_shadows_naive

GROWTH_DIMS = (10, 100, 1000, 10_000)


def test_criterion_1_matches_exhaustive_enumeration_in_2_to_14_dims():
    """2000 seeded directions per dimension, zero disagreements, < 60s.

    Directions orthogonal to some vertex (min |<vertex, u>| = 0 on the
    snapped direction) are skipped: the criterion promises nothing on that
    measure-zero set.
    """
    t0 = time.perf_counter()
    for n in range(2, 15):
        stats = cs.agreement_sweep(n, 2000, seed=101)
        assert stats.disagreements == 0, f"n={n}: {stats}"
        assert stats.agreements + stats.skips == 2000
    assert time.perf_counter() - t0 < 60.0


def test_criterion_1_directions_match_the_naive_enumeration():
    """Criterion 1's directions, checked by the naive reference rather than
    by the sign lemma that settles most of them in agreement_sweep: at each
    n, a seeded 64 of the 2000 trials, plus at n >= 11 every trial whose
    sign-matched norm is 1 or more, which the sweep searches (the sweep's
    stacked draws have the bits of sample_sphere)."""
    checked = 0
    for n in range(2, 15):
        rng = np.random.Generator(np.random.Philox(key=np.array([101, n], np.uint64)))
        trials = set(rng.choice(2000, 64, replace=False).tolist())
        if n >= 11:
            uq = oracle._snap(_unit_rows(np.stack(list(_draws(n, 101, range(2000))))))
            rows = enumerate(uq.tolist())
            trials.update(t for t, row in rows if oracle._sign_matched(row) >= 1.0)
        for t in sorted(trials):
            u = cs.sample_sphere(n, 101, index=t)
            got, ref = enumerate_shadows(u), enumerate_shadows_naive(u, 14)
            for field in ("exists_inside", "best_inf_norm", "vertices_checked"):
                assert getattr(got, field) == getattr(ref, field), (n, t, field)
            assert got.orthogonal_vertex_found == ref.orthogonal_vertex_found
            assert got.min_abs_inner_product == ref.min_abs_inner_product, (n, t)
            assert got.best_vertex.signs.tolist() == ref.best_vertex.signs.tolist()
            if ref.min_abs_inner_product > 0.0:
                assert cs.criterion(u).satisfied == ref.exists_inside, (n, t)
                checked += 1
    assert checked > 13 * 60


def test_criterion_2_threshold_dimension_is_nine():
    for n in range(1, 13):
        assert cs.summarize(n).threshold_ok == (n <= 9)
    assert cs.closed_form_max(9) == 2.0
    assert cs.threshold_dimension() == 9


def test_criterion_3_ten_dims_attain_the_maximum_yet_miss_every_vertex():
    m = cs.maximizer(10)
    expected = (math.sqrt(10.0) + 1.0) / 2.0
    assert abs(cs.criterion_product(m) - expected) <= 1e-12
    verdict = enumerate_shadows(m)
    assert verdict.vertices_checked == 1024
    assert verdict.exists_inside is False


def test_criterion_4_gradient_ascent_reproduces_the_closed_form():
    """Eight restarts per dimension, stationary to 1e-10, < 30s."""
    t0 = time.perf_counter()
    for n in (2, 3, 4, 9, 10, 25, 64):
        res = cs.numerical_max(n, restarts=8, seed=0)
        gap = cs.closed_form_max(n) - res.value
        assert gap <= 1e-7, f"n={n}: ascent fell short by {gap}"
        assert gap >= -1e-9, f"n={n}: ascent exceeded the maximum by {-gap}"
        assert cs.stationarity_residual(res.point) <= 1e-10
    assert time.perf_counter() - t0 < 30.0


def test_criterion_5_closed_form_shadow_norm_matches_direct_projection():
    """10000 random directions per dimension, agreement to 1e-12 * n, < 10s."""
    t0 = time.perf_counter()
    for n in (2, 5, 10, 50):
        rng = np.random.Generator(
            np.random.Philox(key=np.array([77, n], dtype=np.uint64))
        )
        for _ in range(10_000):
            u = cs.UnitVector(rng.standard_normal(n))
            while not u.coords.all():
                u = cs.UnitVector(rng.standard_normal(n))
            cf = shadow_norm_closed_form(u)
            direct = shadow(u, canonical_vertex(u)).inf_norm
            assert abs(cf - direct) <= 1e-12 * n
    assert time.perf_counter() - t0 < 10.0


def test_criterion_6a_all_sampled_directions_satisfy_below_the_threshold():
    for n in (5, 9):
        assert cs.estimate(n, 10_000, seed=7).frac_satisfying == 1.0


@pytest.fixture(scope="module")
def growth_rows():
    t0 = time.perf_counter()
    rows = cs.growth_scan(GROWTH_DIMS, 10_000, seed=7)
    return rows, time.perf_counter() - t0


def test_criterion_6b_satisfaction_becomes_rare_as_dimension_grows(growth_rows):
    rows, _ = growth_rows
    medians = [r.median_product for r in rows]
    assert all(a < b for a, b in zip(medians, medians[1:]))
    assert rows[-1].frac_satisfying < 0.01


def test_criterion_6c_median_tracks_the_root_log_growth_law(growth_rows):
    rows, elapsed = growth_rows
    for r in rows:
        assert 0.8 <= r.growth_ratio <= 2.5, f"n={r.n}: ratio {r.growth_ratio}"
    assert elapsed < 120.0


def test_criterion_7_full_enumeration_is_fast_enough():
    """24 dims under 120s is the gate, for a seeded direction and for the
    maximizer, whose criterion fails and whose best vertices tie by the
    thousands (each half table keeps one row per class of equal rows); the
    n=20 speed ratio is printed for information only."""
    u = cs.sample_sphere(24, seed=5)
    t0 = time.perf_counter()
    verdict = enumerate_shadows(u)
    mitm_24 = time.perf_counter() - t0
    assert verdict.vertices_checked == 1 << 24
    assert mitm_24 < 120.0

    m = cs.maximizer(24)
    t0 = time.perf_counter()
    verdict = enumerate_shadows(m)
    mitm_24_max = time.perf_counter() - t0
    assert verdict.vertices_checked == 1 << 24
    assert mitm_24_max < 120.0

    u20 = cs.sample_sphere(20, seed=5)
    t0 = time.perf_counter()
    a = enumerate_shadows(u20)
    mitm_20 = time.perf_counter() - t0
    t0 = time.perf_counter()
    b = enumerate_shadows_naive(u20)
    naive_20 = time.perf_counter() - t0
    assert a.best_inf_norm == b.best_inf_norm
    print(
        f"\nn=24 full enumeration: {mitm_24:.2f}s, maximizer {mitm_24_max:.2f}s; "
        f"n=20 meet-in-the-middle {mitm_20:.2f}s vs naive {naive_20:.2f}s "
        f"({naive_20 / max(mitm_20, 1e-9):.1f}x)"
    )


def test_criterion_8_cli_reruns_are_byte_identical(tmp_path):
    """Same arguments, same bytes; wall-clock timing is the one field
    allowed to differ between runs."""
    out = tmp_path / "rows.csv"
    args = [
        sys.executable, "-m", "cubeshadows", "measure",
        "--dims", "4,7,12", "--samples", "500", "--seed", "11",
        "--out", str(out),
    ]
    first = subprocess.run(args, capture_output=True, text=True)
    assert first.returncode == 0, first.stderr
    csv_first = out.read_bytes()
    second = subprocess.run(args, capture_output=True, text=True)
    assert second.returncode == 0, second.stderr
    csv_second = out.read_bytes()
    assert csv_first == csv_second

    rec_a = json.loads(first.stdout)
    rec_b = json.loads(second.stdout)
    rec_a.pop("elapsed_ms")
    rec_b.pop("elapsed_ms")
    assert rec_a == rec_b
