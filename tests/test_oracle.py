"""Exhaustive enumeration against the closed-form criterion."""

import bisect
import hashlib
import inspect
import math
import tracemalloc
from collections import Counter
from dataclasses import astuple
from fractions import Fraction
from itertools import permutations
from itertools import product as sign_patterns

import numpy as np
import pytest

from cubeshadows import measure, oracle
from cubeshadows.errors import MAX_DIMENSION, DimensionTooLarge, InvalidDimension
from cubeshadows.extremal import maximizer
from cubeshadows.geometry import (
    UnitVector,
    Vertex,
    _products_at_most,
    canonical_vertex,
    criterion,
    shadow,
    shadow_norm_closed_form,
)
from cubeshadows.measure import sample_sphere
from cubeshadows.oracle import (
    AgreementStats,
    _snap,
    agreement_sweep,
    any_vertex_inside,
    enumerate_shadows,
    enumerate_shadows_naive,
    is_orthogonal_to_some_vertex,
    min_abs_inner_product,
)


def u_of(*coords):
    return UnitVector(np.array(coords, dtype=np.float64))


def random_direction(n, tag):
    rng = np.random.Generator(
        np.random.Philox(key=np.array([97, tag], dtype=np.uint64))
    )
    return UnitVector(rng.standard_normal(n))


def verdicts_equal(a, b):
    return (
        a.exists_inside == b.exists_inside
        and a.best_inf_norm == b.best_inf_norm
        and a.best_vertex.signs.tolist() == b.best_vertex.signs.tolist()
        and a.vertices_checked == b.vertices_checked
        and a.orthogonal_vertex_found == b.orthogonal_vertex_found
        and a.min_abs_inner_product == b.min_abs_inner_product
    )


class TestEnumerationKernels:
    def test_gray_walk_matches_naive_reference_bitwise(self):
        for tag in range(40):
            n = 1 + tag % 12
            u = random_direction(n, tag)
            assert verdicts_equal(
                enumerate_shadows(u), enumerate_shadows_naive(u)
            ), f"kernels disagree for n={n}, tag={tag}"

    def test_verdict_independent_of_block_split(self, monkeypatch):
        # maximizer(12) and maximizer(16) have many exactly tied best
        # vertices, spread over different blocks at every split (and, at
        # n = 16, over the reference's chunks), so the tie rule is exercised
        for u in (random_direction(14, 999), maximizer(12), maximizer(16)):
            ref = enumerate_shadows_naive(u)
            for bits in (3, 8, 16):
                monkeypatch.setattr(oracle, "BLOCK_BITS", bits)
                assert verdicts_equal(enumerate_shadows(u), ref), (u.n, bits)
                assert any_vertex_inside(u) == ref.exists_inside
                assert min_abs_inner_product(u) == ref.min_abs_inner_product

    def test_chunk_split_keeps_the_tie_rule(self, monkeypatch):
        # coordinates in {1, 2, 3} give many exactly tied best vertices and
        # vertices on the hyperplane; at 2^3 or 2^8 pairs a chunk is asked
        # to be smaller than one row of 2^(n - n//2) pairs
        rng = np.random.Generator(
            np.random.Philox(key=np.array([97, 4000], dtype=np.uint64))
        )
        orthogonal = 0
        for n in range(9, 15):
            u = UnitVector(rng.integers(1, 4, size=n).astype(np.float64))
            ref = enumerate_shadows_naive(u)
            orthogonal += ref.min_abs_inner_product == 0.0
            for bits in (3, 8, 14):
                monkeypatch.setattr(oracle, "BLOCK_BITS", bits)
                assert verdicts_equal(enumerate_shadows(u), ref), (n, bits)
                assert any_vertex_inside(u) == ref.exists_inside
                assert min_abs_inner_product(u) == ref.min_abs_inner_product
        assert orthogonal > 0

    def test_opposite_directions_give_identical_verdicts(self):
        # u and -u define the same hyperplane, hence the same shadows
        for tag in range(8):
            n = 2 + tag
            u = random_direction(n, 500 + tag)
            v = UnitVector(-u.coords)
            assert verdicts_equal(enumerate_shadows(u), enumerate_shadows(v))

    def test_minimum_inner_product_matches_exact_rational_sums(self):
        # dyadic snapping makes the float enumeration exact, so a
        # Fraction-based brute force must agree to the last bit
        for tag in range(8):
            n = 2 + tag % 7
            u = random_direction(n, 300 + tag)
            parts = [Fraction(float(c)) for c in _snap(u.coords)]
            exact = min(
                abs(sum(s * p for s, p in zip(signs, parts)))
                for signs in sign_patterns((1, -1), repeat=n)
            )
            assert min_abs_inner_product(u) == float(exact)


def pruned_kernel_cases():
    """Directions whose verdicts stress the window filter: random ones,
    integer ratios in {-3..3} (tied and orthogonal vertices), a zero and a
    subnormal coordinate (both snap to t = 0), maximizer(n) (many tied best
    vertices), and n = 1, 2 (an A half of zero or one coordinate)."""
    rng = np.random.Generator(
        np.random.Philox(key=np.array([97, 5000], dtype=np.uint64))
    )
    cases = [u_of(1.0), u_of(-0.3), u_of(1.0, 0.0), u_of(0.6, -0.8), u_of(2.0, 2.0)]
    for n in range(1, 15):
        cases.append(random_direction(n, 5000 + n))
        cases.append(maximizer(n))
        v = rng.integers(-3, 4, size=n).astype(np.float64)
        v[0] = 3.0
        cases.append(UnitVector(v))
        for tiny in (0.0, 5e-324):
            v = rng.standard_normal(n)
            v[n // 2] = tiny
            if n > 1:
                cases.append(UnitVector(v))
    return cases


def distinct_row_cases():
    """Directions whose halves repeat magnitudes in ways the random and
    integer cases of pruned_kernel_cases() do not: equal magnitudes of
    mixed sign, several zero coordinates, and maximizer(n) with its large
    coordinate moved to the middle or the end or with some coordinates
    negated; and halves that are one class, alternate the sign of one
    magnitude in either order, or hold several zeros and -0.0."""
    rng = np.random.Generator(
        np.random.Philox(key=np.array([97, 6000], dtype=np.uint64))
    )
    cases = [
        u_of(*[1.0] * 8),
        u_of(*[-2.0] * 7),
        u_of(*[1.0, -1.0] * 4),
        u_of(*[-1.0, 1.0] * 4),
        u_of(*[1.0, -1.0] * 3, *[-1.0, 1.0] * 3),
        u_of(2.0, -2.0, 2.0, 1.0, -1.0, -2.0, 1.0, 2.0, -1.0),
        u_of(1.0, 0.0, 0.0, -1.0, 0.0, 3.0, 0.0, 0.0, 0.0, 1.0),
        u_of(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0),
        u_of(1.0, -0.0, 1.0, -1.0, -0.0, 0.0, -1.0, -0.0),
        u_of(-0.0, 2.0, -0.0, -2.0),
    ]
    for n in range(2, 15):
        cases.append(UnitVector(np.resize([3.0, -3.0, 3.0, -3.0, 1.0], n)))
        v = rng.choice([-2.0, -1.0, 1.0, 2.0], size=n)
        v[0] = 2.0
        cases.append(UnitVector(v))
        v = rng.standard_normal(n)
        v[rng.permutation(n)[: n // 2]] = 0.0
        cases.append(UnitVector(v))
        m = maximizer(n).coords
        cases.append(UnitVector(np.roll(m, n // 2)))
        cases.append(UnitVector(np.roll(m, -1)))
        cases.append(UnitVector(m * rng.choice([-1.0, 1.0], size=n)))
    return cases


def integer_fuzz_cases():
    """Integer directions, n = 2..10 and coordinates in [-4, 4], scaled by
    3, 1/3, 1e200 and 1e-200 before they are normalized: ties, zeros and
    vertices orthogonal to u, on floats that are not the integers' ratios
    bit for bit."""
    rng = np.random.Generator(
        np.random.Philox(key=np.array([97, 9000], dtype=np.uint64))
    )
    cases = []
    for n in range(2, 11):
        for _ in range(16):
            v = rng.integers(-4, 5, size=n).astype(np.float64)
            if v.any():
                cases += [UnitVector(v * c) for c in (3.0, 1 / 3, 1e200, 1e-200)]
    return cases


def reference_t(uq):
    """t = eps u of each half of snapped directions uq, shape (T, n), as
    arrays of shape (size, T, 2^size) from an explicit sign matrix: row a
    of a half of size k sets coordinate j to -1 when bit (k-1-j) of a is
    set."""
    halves = []
    for half in np.split(uq, [uq.shape[1] // 2], axis=1):
        k = half.shape[1]
        bits = (np.arange(1 << k) >> np.arange(k - 1, -1, -1)[:, None]) & 1
        halves.append((1.0 - 2.0 * bits)[:, None] * half.T[:, :, None])
    return halves


def reference_tables(uq):
    """(s, t_max, t_min) of each half, reduced one coordinate at a time."""
    return [
        (t.sum(axis=0), t.max(axis=0, initial=-np.inf), t.min(axis=0, initial=np.inf))
        for t in reference_t(uq)
    ]


def full_tables(uq):
    """The full (s, t_max, t_min) tables of each half of snapped directions
    uq, shape (T, n), by the oracle's quarter build (_table) of each
    direction, stacked into shape (T, rows)."""
    h = uq.shape[1] // 2
    return [
        [np.stack(x) for x in zip(*(oracle._table(u) for u in half))]
        for half in (uq[:, :h], uq[:, h:])
    ]


def pair_norms(tables, rows=slice(None)):
    """The shadow sup-norm of every pair of the A-rows rows with every
    B-row of one direction's half tables, shape (A-rows, B-rows), by the
    kernel's formula: a dense pass over all pairs."""
    (sa, hia, loa, *_), (sb, hib, lob, *_) = tables
    s = sa[rows, None] + sb
    hi, lo = np.maximum.outer(hia[rows], hib), np.minimum.outer(loa[rows], lob)
    return np.maximum(np.abs(1.0 - s * hi), np.abs(1.0 - s * lo))


class TestHalfTables:
    def test_tables_have_the_bytes_of_the_sign_matrix(self):
        # n = 1 has an empty A half; halves of 10 and 11 coordinates sit on
        # either side of the leaf width of the t tables, and halves of 12
        # and 13 on either side of the widest one-matmul sums; the -0.0 and
        # zero coordinates make +-0 in t, and bytes tell +0 from -0, also in
        # halves of one coordinate, whose leading-sign half is the one row
        # t = u (sums start from +0, as numpy's do, so no sum is -0)
        rng = np.random.Generator(
            np.random.Philox(key=np.array([97, 8000], dtype=np.uint64))
        )
        signed_zeros = (u_of(-0.0, 1.0), u_of(1.0, -0.0), u_of(-0.0, 1.0, -2.0))
        cases = [_snap(u.coords[None]) for u in signed_zeros]
        for n in [1, *range(14, 29), 32, 36]:
            v = rng.integers(-3, 4, size=n).astype(np.float64)
            v[-1] = -0.0
            v[0] = 3.0
            us = (maximizer(n), sample_sphere(n, 7), UnitVector(v))
            cases += [_snap(u.coords[None]) for u in us]
        for n in range(1, 15):  # the sweep's batches
            v = rng.integers(-3, 4, size=((1 << 14) >> n, n)).astype(np.float64)
            v[::2] = rng.standard_normal(v[::2].shape)
            cases.append(_snap(v))
        for uq in cases:
            want = reference_tables(uq)
            for half, s, ref in zip(full_tables(uq), oracle._sums(uq), want):
                for x, y in zip(half, ref):
                    assert x.shape == y.shape and x.tobytes() == y.tobytes(), uq.shape
                # _sums holds the rows whose leading sign is +1, the first
                # half, and the rest are their negations in reverse order
                k = ref[0].shape[1].bit_length() - 1
                lead, rest = np.split(ref[0], [max(1 << k >> 1, 1)], axis=1)
                assert s.shape == lead.shape and s.tobytes() == lead.tobytes(), uq.shape
                assert np.array_equal(rest, -lead[:, ::-1]) or k == 0, uq.shape

    def test_the_ceiling_fits_in_a_few_tables(self):
        # the three tables of a half of 18 coordinates take 6 MiB, where
        # its array of t = eps u alone would take 36 MiB; sample_sphere(36,
        # 7) is decided by its sign-matched vertex and (36, 1), with that
        # vertex's norm at 1.23, by the search, whose norms are computed in
        # place in the tables they read, for one neighbour of each -a (30.3
        # MiB; 36.0 MiB with both neighbours, 44.0 MiB with new arrays)
        for u in (maximizer(36), sample_sphere(36, 7), sample_sphere(36, 1)):
            tracemalloc.start()
            try:
                enumerate_shadows(u, oracle.MAX_LIMIT)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 << 20, (u.coords[:2], peak)
        assert peak <= 32 << 20, peak  # sample_sphere(36, 1), the search

    def test_min_abs_at_the_ceiling_sorts_only_the_leading_sign_halves(self):
        # sample_sphere(36, 7) is decided by its sign-matched vertex, so its
        # peak is min |<eps, u>|'s: 2^17 sums per half and their 2^18 keys,
        # 6.0 MiB; the full halves' 2^19 keys and sums took 12.5 MiB
        u = sample_sphere(36, 7)
        tracemalloc.start()
        try:
            enumerate_shadows(u, oracle.MAX_LIMIT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 << 20, peak


class TestPrunedKernel:
    def test_pruned_entry_points_match_the_naive_reference_bitwise(self, monkeypatch):
        cases = pruned_kernel_cases() + distinct_row_cases() + integer_fuzz_cases()
        refs = [enumerate_shadows_naive(u) for u in cases]
        assert sum(r.min_abs_inner_product == 0.0 for r in refs) > 0  # orthogonal
        outside = sum(not r.exists_inside for r in refs)
        assert 0 < outside < len(refs) - outside
        for u, ref in zip(cases, refs):  # min |s| and the bound of the search
            uq = _snap(u.coords[None])
            matched = oracle._sign_matched(uq[0].tolist())
            if matched >= 1.0:
                tables = oracle._distinct_tables(uq)
                min_abs, bound = oracle._bound(tables, matched)
                assert min_abs == ref.min_abs_inner_product, u.coords
                assert ref.best_inf_norm <= bound <= matched, u.coords
        for bits in (3, 8, 14):
            monkeypatch.setattr(oracle, "BLOCK_BITS", bits)
            for u, ref in zip(cases, refs):
                assert verdicts_equal(enumerate_shadows(u), ref), (u.coords, bits)
                assert any_vertex_inside(u) == ref.exists_inside, (u.coords, bits)
                assert min_abs_inner_product(u) == ref.min_abs_inner_product

    def test_pruning_leaves_the_dense_pass_unused(self, monkeypatch):
        # the inside-only question evaluates no pair at all: not on the
        # maximizer at n = 20, which has no inside vertex, nor where the
        # sign-matched vertex is inside, nor where a vertex orthogonal to u
        # is (6, 2 x 6, 1 x 4: product 2.0625); enumerate_shadows of a
        # criterion-holding direction evaluates none, and of a failing one,
        # with 2^20 multisets of t, a finite bound and a small share of the
        # pairs of its half tables, where a dense pass would take them all
        blocks, least, pairs, dense = oracle._blocks, oracle._least, [], []

        def pruned_only(tables, beta):
            assert beta < np.inf
            (sa, *_), (sb, *_) = tables
            dense.append(sa.size * sb.size)
            yield from blocks(tables, beta)

        def counted(s, hi, lo, codes):
            pairs.append(len(codes))
            return least(s, hi, lo, codes)

        def searched(*_):
            raise AssertionError("search")

        u, v = sample_sphere(20, 5), sample_sphere(20, 1)
        assert criterion(u).satisfied and not criterion(v).satisfied
        refs = [enumerate_shadows_naive(x) for x in (u, v)]
        monkeypatch.setattr(oracle, "_blocks", searched)
        assert not any_vertex_inside(maximizer(20))
        assert any_vertex_inside(u) and any_vertex_inside(u_of(6, *[2] * 6, *[1] * 4))
        monkeypatch.setattr(oracle, "_blocks", pruned_only)
        monkeypatch.setattr(oracle, "_least", counted)
        assert verdicts_equal(enumerate_shadows(u), refs[0])
        assert pairs == []
        assert verdicts_equal(enumerate_shadows(v), refs[1])
        assert dense == [1 << 20]
        assert 0 < sum(pairs) < dense[0] // 64

    def test_the_search_sees_only_its_domain(self, monkeypatch):
        # _windows may take beta >= 1 and n >= 2 as given: every call that
        # enumerate_shadows makes has such a beta and finite t_max and t_min
        # in both halves, and n = 1 never searches, its sign-matched norm
        # being 0
        windows, betas = oracle._windows, []

        def checked(tables, beta):
            assert beta >= 1.0
            for _, hi, lo, _ in tables:
                assert np.isfinite(hi).all() and np.isfinite(lo).all()
            betas.append(beta)
            return windows(tables, beta)

        monkeypatch.setattr(oracle, "_windows", checked)
        cases = pruned_kernel_cases() + distinct_row_cases()
        for bits in (3, 8, 14):
            monkeypatch.setattr(oracle, "BLOCK_BITS", bits)
            for u in cases:
                enumerate_shadows(u)
        assert betas and min(betas) == 1.0
        for u in cases:
            if u.n == 1:
                assert oracle._sign_matched(_snap(u.coords).tolist()) == 0.0

    def test_windows_hold_every_pair_at_or_below_the_bound(self):
        # bounds equal to pair norms put pairs exactly on a window's edge;
        # n = 1, whose A half is empty, is outside the search's domain, but
        # betas below 1 stay covered, and one just below 1 can round the
        # widened bound to exactly 1, where a zero t divides 0 by 0: hence
        # _windows ignores invalid as well as divide
        for u in pruned_kernel_cases() + distinct_row_cases():
            if u.n == 1:
                continue
            uq = _snap(u.coords[None])
            tables = oracle._distinct_tables(uq)
            infs = pair_norms(tables)
            norms = np.unique(infs)
            for beta in norms[:: max(1, len(norms) // 16)]:
                start, stop = oracle._windows(tables, float(beta))
                b = np.arange(infs.shape[1])
                inside = (start[:, None] <= b) & (b < stop[:, None])
                assert inside[infs <= beta].all(), (u.coords, beta)

    def test_searched_min_abs_matches_the_sorted_keys_beyond_the_reference(self):
        # the naive reference stops at n = 20; at n = 30, 32 and 36 these
        # directions fail the criterion and search, so min |<eps, u>| comes
        # from the nearest pairs of the half tables in order of s, and the
        # odd-gap sort of the leading-sign half sums is a second coding of it
        for n in (30, 32, 36):
            for seed in (1, 5):
                u = sample_sphere(n, seed)
                uq = _snap(u.coords[None])
                assert oracle._sign_matched(uq[0].tolist()) >= 1.0, (n, seed)
                want = oracle._min_abs_sums(*oracle._sums(uq))[0]
                v = enumerate_shadows(u, oracle.MAX_LIMIT)
                assert v.min_abs_inner_product == want, (n, seed)

    def test_least_takes_the_smallest_code_at_the_least_norm(self):
        # rows 0, 2 and 3 tie at the least norm, 0, with their codes out of
        # order; row 1 has the smaller code 1 at norm 1, and row 4 the code 0
        # at norm 8; in any row order, _least gives the code 4, as Python
        # numbers, then on random tables with many ties the least (norm,
        # code) of a brute force over the rows
        table = (
            np.array([2.0, 0.0, 2.0, 2.0, 1.0]),
            np.array([0.5, 0.3, 0.5, 0.5, 9.0]),
            np.array([0.5, -0.3, 0.5, 0.5, 9.0]),
            np.array([9, 1, 4, 7, 0]),
        )
        for order in permutations(range(5)):
            norm, code = oracle._least(*(x[list(order)] for x in table))
            assert (norm, code) == (0.0, 4) and type(norm) is float
            assert type(code) is int
        rng = np.random.default_rng(12)
        for _ in range(200):
            s = rng.integers(-4, 5, 64) / 2.0
            hi, lo = np.sort(rng.integers(-2, 3, (2, 64)) / 2.0, axis=0)[::-1]
            codes = rng.permutation(64)
            want = min(
                (max(abs(1.0 - x * t_hi), abs(1.0 - x * t_lo)), int(c))
                for x, t_hi, t_lo, c in zip(s, hi, lo, codes)
            )
            assert oracle._least(s, hi.copy(), lo.copy(), codes) == want

    def test_runs_cover_every_row_within_the_cap(self):
        rng = np.random.default_rng(11)
        cases = ((0, 1), (1, 1), (5, 4), (64, 16), (300, 1 << 10), (1000, 1 << 14))
        for m, cap in cases:
            start = np.sort(rng.integers(0, 2000, m))
            stop = start + rng.integers(1, 300, m) * (rng.random(m) < 0.9) + 1
            runs = oracle._runs(start, stop, cap)
            if m == 0:
                assert runs == []
                continue
            assert [i for i, *_ in runs] == [0] + [j for _, j, *_ in runs[:-1]]
            assert runs[-1][1] == m
            for i, j, c0, c1 in runs:
                assert (c0, c1) == (start[i], stop[i:j].max())
                assert j - i == 1 or (j - i) * (c1 - c0) <= cap
                assert i % (j - i) == 0 or j == m  # aligned


class TestDistinctRows:
    def test_kept_rows_are_the_smallest_of_each_multiset(self):
        # a brute-force dict over every row of each half: the first row of
        # each sorted tuple of t, and that row's (s, t_max, t_min) for
        # every row of the class (+-0 compare equal, as in |1 - s t|); the
        # class build keeps exactly those first rows, with that triple
        for u in pruned_kernel_cases() + distinct_row_cases():
            uq = _snap(u.coords[None])
            a, b = oracle._distinct_tables(uq)
            kept = (a[3] >> (u.n - u.n // 2), b[3])
            assert (np.diff(a[0]) >= 0).all() and (np.diff(b[0]) >= 0).all()
            halves = zip(reference_t(uq), reference_tables(uq), kept, (a[:3], b[:3]))
            for t, ref, rows, table in halves:
                first = {}
                for row in range(t.shape[2]):
                    rep = first.setdefault(tuple(sorted(t[:, 0, row])), row)
                    triple = [x[0, row] for x in ref]
                    assert triple == [x[0, rep] for x in ref], (u.coords, row)
                assert sorted(rows.tolist()) == sorted(first.values()), u.coords
                for i, row in enumerate(rows.tolist()):
                    triple = [x[i] for x in table]
                    assert triple == [x[0, row] for x in ref], (u.coords, row)

    def test_a_pair_of_codes_is_the_vertex_of_the_pair(self):
        # A's codes are its rows shifted by |B| bits, so the pair of an
        # A-row and a B-row has the code a + b of a vertex whose own t = eps
        # u has that pair's (s, t_max, t_min), up to the sign of a zero,
        # which no norm or sum sees
        for u in distinct_row_cases():  # n = 2..14
            n = u.n
            uq = _snap(u.coords[None])
            a, b = oracle._distinct_tables(uq)
            paired = oracle._pair(a, b)
            assert (paired[3] == np.add.outer(a[3], b[3]).ravel()).all()
            for k, code in enumerate(paired[3].tolist()):
                t = oracle._vertex_from_code(code, n).signs * uq[0]
                want = np.array([t.sum(), t.max(), t.min()]) + 0.0
                got = np.array([x[k] for x in paired[:3]]) + 0.0
                assert want.tobytes() == got.tobytes(), (u.coords, code)

    def test_tables_that_fit_one_chunk_run_no_search(self, monkeypatch):
        # half tables whose pairs fit in one chunk have no more multisets of
        # t than that, so the whole-direction table decides: no half table,
        # no pair and no neighbour search, and min |s| is that table's
        def searched(*_):
            raise AssertionError("search")

        cases = distinct_row_cases() + [maximizer(n) for n in range(2, 21)]
        refs = [enumerate_shadows_naive(u) for u in cases]
        for u in cases:
            uq = _snap(u.coords[None])
            a, b = oracle._distinct_tables(uq)
            assert a[0].size * b[0].size <= 1 << oracle.BLOCK_BITS, u.coords
            _, multisets = oracle._classes(uq[0].tolist())
            assert multisets <= a[0].size * b[0].size, u.coords
        names = ("_distinct_tables", "_blocks", "_bound", "_windows", "_runs")
        for name in names + ("_nearest",):
            monkeypatch.setattr(oracle, name, searched)
        for u, ref in zip(cases, refs):
            assert verdicts_equal(enumerate_shadows(u), ref), u.coords
            assert any_vertex_inside(u) == ref.exists_inside, u.coords
            assert min_abs_inner_product(u) == ref.min_abs_inner_product, u.coords

    def test_the_maximizer_at_the_ceiling_builds_no_full_table(self):
        # 36 A-rows and 19 B-rows, where a full half table has 2^18 rows
        tracemalloc.start()
        try:
            enumerate_shadows(maximizer(36), oracle.MAX_LIMIT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    def test_the_maximizer_evaluates_one_pair_per_class_pair(self, monkeypatch):
        # 2n sign classes: the large coordinate's 2 rows, each paired with
        # the n rows of the n - 1 equal ones in one whole-direction table,
        # against the 2^24 vertices the verdict covers
        table, rows = oracle._class_table, []

        def counted(u, classes):
            out = table(u, classes)
            sizes = sorted(len(pos) + len(neg) for pos, neg in classes.values())
            rows.append((len(u), sizes, out[0].size))
            return out

        def searched(*_):
            raise AssertionError("search")

        monkeypatch.setattr(oracle, "_class_table", counted)
        monkeypatch.setattr(oracle, "_blocks", searched)
        v = enumerate_shadows(maximizer(24))
        assert v.vertices_checked == 1 << 24
        assert rows == [(24, [1, 23], 48)]

    def test_the_maximizer_up_to_the_ceiling_matches_its_sign_classes(self):
        # a vertex of maximizer(n) is the sign e of the large coordinate and
        # the count p of +1 among the n - 1 equal ones: S exact in integer
        # units of 2^-48, the norm by the kernel's float formula, and the
        # smallest code of a class is e then p leading +1s; a class is
        # inside when 0 <= S T <= 2^97 for each of its integer T. At n = 16,
        # 25 and 36 the two weights have the ratios 5, 6 and 7, so some
        # vertex is orthogonal to u in reals, but no snapped sum is 0
        one = 1 << 2 * oracle.QUANT_BITS
        for n in (16, 25, 28, 32, 36):
            u = maximizer(n)
            uq = _snap(u.coords)
            a, b = (int(x) for x in np.ldexp(uq[:2], oracle.QUANT_BITS))
            assert (uq[1:] == uq[1]).all()
            best, min_abs, inside = (math.inf, 0), math.inf, False
            for e in (1, -1):
                for p in range(n):
                    big = e * a + (2 * p - (n - 1)) * b
                    s = math.ldexp(big, -oracle.QUANT_BITS)
                    ts = [e * uq[0]] + [uq[1]] * (p > 0) + [-uq[1]] * (p < n - 1)
                    norm = max(abs(1.0 - s * t) for t in (max(ts), min(ts)))
                    code = (e < 0) << (n - 1) | ((1 << (n - 1 - p)) - 1)
                    best = min(best, (norm, code))
                    min_abs = min(min_abs, abs(s))
                    units = [e * a] + [b] * (p > 0) + [-b] * (p < n - 1)
                    inside = inside or all(0 <= big * t <= 2 * one for t in units)
            assert not inside and 0.0 < min_abs, n
            assert (min_abs < 1e-14) == (math.isqrt(n) ** 2 == n), n
            v = enumerate_shadows(u, n_limit=oracle.MAX_LIMIT)
            assert v.best_inf_norm == best[0], n
            assert v.best_vertex.signs.tolist() == (
                oracle._vertex_from_code(best[1], n).signs.tolist()
            )
            assert v.min_abs_inner_product == min_abs
            assert abs(shadow(u, v.best_vertex).inf_norm - v.best_inf_norm) <= 1e-11
            assert not v.exists_inside and not v.orthogonal_vertex_found, n
            if n <= oracle.DEFAULT_LIMIT:
                assert not any_vertex_inside(u), n


class TestWholeDirectionTable:
    def test_routes_on_either_side_of_the_multiset_threshold(self, monkeypatch):
        # at BLOCK_BITS 3: classes of 3 and 1 equal magnitudes make 4 x 2 = 8
        # multisets of t, the whole-direction table; of 2 and 2, 3 x 3 = 9,
        # the half tables and the windowed search. A zero is one more class
        # of one row, and leaves the sign-matched norm at 1, so the search
        # runs; without zeros these 4-vectors are settled by the sign lemma
        routes = {
            (3.0, 3.0, 3.0, 1.0): None,
            (3.0, 3.0, 1.0, 1.0): None,
            (3.0, 0.0, 3.0, 3.0, 1.0): "whole",
            (-3.0, 3.0, 0.0, 3.0, -1.0, -0.0): "whole",
            (0.0, 3.0, 3.0, 1.0, 1.0): "halves",
            (3.0, -1.0, 0.0, 1.0, -3.0, 0.0): "halves",
        }
        table, distinct, taken = oracle._class_table, oracle._distinct_tables, []

        def whole(u, classes):
            if len(u) == taken[-1][0]:
                taken[-1][1].add("whole")
            return table(u, classes)

        def halves(uq):
            taken[-1][1].add("halves")
            return distinct(uq)

        monkeypatch.setattr(oracle, "_class_table", whole)
        monkeypatch.setattr(oracle, "_distinct_tables", halves)
        for v, route in routes.items():
            u = u_of(*v)
            ref = enumerate_shadows_naive(u)
            for bits in (3, 8, 14):
                monkeypatch.setattr(oracle, "BLOCK_BITS", bits)
                taken.append((u.n, set()))
                assert verdicts_equal(enumerate_shadows(u), ref), (v, bits)
                assert any_vertex_inside(u) == ref.exists_inside, (v, bits)
                assert min_abs_inner_product(u) == ref.min_abs_inner_product
                want = {"whole"} if route and bits > 3 else {route} - {None}
                assert taken[-1][1] == want, (v, bits)

    def test_class_sums_are_the_sums_of_the_class_rows(self):
        # any_vertex_inside reads min |s| from _class_sums alone: the sums
        # of the rows of the whole-direction table, one per multiset, whose
        # least |s| is that of every vertex
        for u in pruned_kernel_cases() + distinct_row_cases():
            uq = _snap(u.coords)
            classes, multisets = oracle._classes(uq.tolist())
            s = oracle._class_table(uq, classes)[0]
            sums = oracle._class_sums(classes)
            assert sums.size == s.size == multisets, u.coords
            assert np.sort(sums, axis=None).tolist() == np.sort(s).tolist(), u.coords
            assert np.abs(sums).min() == min_abs_inner_product(u), u.coords

    def test_the_maximizer_builds_no_half_table_up_to_the_ceiling(self, monkeypatch):
        # 2n multisets of t: enumerate_shadows builds no half table and runs
        # no pair, and any_vertex_inside takes min |s| from the sums of the
        # multisets (n >= 10; below, the sign-matched vertex is inside)
        def searched(*_):
            raise AssertionError("half tables")

        for name in ("_distinct_tables", "_blocks"):
            monkeypatch.setattr(oracle, name, searched)
        for n in range(2, 37):
            v = enumerate_shadows(maximizer(n), oracle.MAX_LIMIT)
            assert v.vertices_checked == 1 << n, n
            assert v.exists_inside == (n < 10), n
        monkeypatch.setattr(oracle, "_sums", searched)
        for n in range(1, 29):
            assert any_vertex_inside(maximizer(n)) is (n < 10), n


def boundary_family_cases():
    """Directions (a, 1, ..., 1) with m ones and a^2 - m a + 2 m = 0, whose
    criterion product is 2: (4, 1 x 8), (3, 1 x 9) and (6, 1 x 9), with a
    scaled by 1 + k 1e-13 for k = -20..20, in both coordinate orders. Their
    sign-matched norms cross 1, where the oracle's strict bound below 1
    meets the vertices of norm near 1."""
    cases = []
    for a, m in ((4.0, 8), (3.0, 9), (6.0, 9)):
        for k in range(-20, 21):
            v = np.array([a * (1.0 + k * 1e-13)] + [1.0] * m)
            cases += [UnitVector(v), UnitVector(v[::-1].copy())]
    return cases


class TestSignLemma:
    def test_only_the_sign_matched_vertex_falls_below_one(self):
        # a vertex whose t has a zero or both signs has some t with
        # fl(s t) <= 0, so |1 - s t| >= 1: below 1 the best vertex is
        # sign(u) or its negation, which tie, and the tie rule takes the one
        # that starts with +1
        below = 0
        for u in pruned_kernel_cases() + distinct_row_cases():
            uq = _snap(u.coords)
            tables = [oracle._table(half) for half in np.split(uq, [u.n // 2])]
            (_, hia, loa), (_, hib, lob) = tables
            hi, lo = np.maximum.outer(hia, hib), np.minimum.outer(loa, lob)
            mixed = (lo <= 0.0) & (hi >= 0.0)
            assert (pair_norms(tables)[mixed] >= 1.0).all(), u.coords
            norm = oracle._sign_matched(uq.tolist())
            if norm < 1.0:
                below += 1
                ref = enumerate_shadows_naive(u)
                assert norm == ref.best_inf_norm, u.coords
                matched = np.sign(uq) * np.sign(uq[0])
                assert ref.best_vertex.signs.tolist() == matched.tolist(), u.coords
        assert below > 0

    def test_a_criterion_holding_direction_runs_no_search(self, monkeypatch):
        # a sign-matched norm below 1 is the verdict: no t_max or t_min
        # table is built, no step of the search runs, and min |s| comes
        # from one sort of the half sums' keys, with no binary search
        def tabled(*_):
            raise AssertionError("t_max and t_min tables")

        def searched(*_):
            raise AssertionError("search")

        u = sample_sphere(20, 5)
        assert criterion(u).satisfied
        ref = enumerate_shadows_naive(u)
        monkeypatch.setattr(oracle, "_table", tabled)
        for name in (
            "_distinct_tables", "_bound", "_windows", "_blocks", "_nearest"
        ):
            monkeypatch.setattr(oracle, name, searched)
        assert verdicts_equal(enumerate_shadows(u), ref)
        assert min_abs_inner_product(u) == ref.min_abs_inner_product

    def test_the_closed_form_matches_the_dense_pass_beyond_the_reference(self):
        # the naive reference stops at n = 20; here a dense pass over all
        # 2^n pairs, 256 A-rows at a time, gives the best norm and its
        # smallest tied code, and the merged sort of the half sums min |s|
        for n in (22, 24):
            for seed in (0, 2, 3):
                u = sample_sphere(n, seed)
                uq = _snap(u.coords[None])
                assert oracle._sign_matched(uq[0].tolist()) < 1.0, (n, seed)
                tables = oracle._distinct_tables(uq)
                (*_, ca), (*_, cb) = tables
                abs_ip = float(oracle._min_abs_sums(*oracle._sums(uq))[0])
                best_inf, best_code = np.inf, None
                for i in range(0, len(ca), 256):
                    infs = pair_norms(tables, slice(i, i + 256))
                    low = infs.min()
                    if low <= best_inf:
                        r, c = np.nonzero(infs == low)
                        code = int((ca[i:][r] + cb[c]).min())
                        if low < best_inf or code < best_code:
                            best_inf, best_code = float(low), code
                v = enumerate_shadows(u)
                assert v.best_inf_norm == best_inf, (n, seed)
                want = oracle._vertex_from_code(best_code, n).signs
                assert v.best_vertex.signs.tolist() == want.tolist(), (n, seed)
                assert v.exists_inside and v.vertices_checked == 1 << n
                assert v.min_abs_inner_product == abs_ip == min_abs_inner_product(u)

    def test_the_boundary_family_at_product_two_matches_the_naive_reference(self):
        cases, below = boundary_family_cases(), 0
        for u in cases:
            ref = enumerate_shadows_naive(u)
            below += ref.best_inf_norm < 1.0
            assert verdicts_equal(enumerate_shadows(u), ref), u.coords
            assert any_vertex_inside(u) == ref.exists_inside, u.coords
            assert min_abs_inner_product(u) == ref.min_abs_inner_product, u.coords
        assert 0 < below < len(cases)


def golden_corpus():
    """The golden digest's directions: two sample_sphere seeds at n = 1..24,
    integer vectors in [-3, 3]^n, criterion-failing ones with a coordinate
    times 4 (the half-table search), maximizer(1..36) and the boundary
    family."""
    rng = np.random.Generator(
        np.random.Philox(key=np.array([97, 9900], dtype=np.uint64))
    )
    for n in range(1, 25):
        for seed in (0, 2**63 + 5):
            yield from (sample_sphere(n, seed, i) for i in range(8))
        for _ in range(2):
            v = rng.integers(-3, 4, size=n).astype(np.float64)
            v[0] = 3.0
            yield UnitVector(v)
    for n in range(12, 25):
        for i in range(3):
            v = sample_sphere(n, 1, i).coords.copy()
            v[i] *= 4.0
            yield UnitVector(v)
    yield from (maximizer(n) for n in range(1, 37))
    yield from boundary_family_cases()


class TestGoldenDigest:
    # sha256 of every OracleVerdict field, any_vertex_inside and
    # min_abs_inner_product on golden_corpus(), and of agreement_sweep's
    # tallies at n = 1..14, one line per input. Verdicts do not depend on
    # BLOCK_BITS, so each split gives the one digest. A change that moves a
    # verdict updates DIGEST and lists the inputs whose lines changed
    DIGEST = "73340781e4bbb4cdfb88abe1950ef63119b36c78cfc19322f75440c7069aa2fa"

    @staticmethod
    def lines():
        for u in golden_corpus():
            v = enumerate_shadows(u, oracle.MAX_LIMIT)
            signs = "".join("+" if x > 0 else "-" for x in v.best_vertex.signs.tolist())
            fields = [
                v.exists_inside, signs, v.best_inf_norm.hex(), v.vertices_checked,
                v.orthogonal_vertex_found, v.min_abs_inner_product.hex(),
            ]
            if u.n <= oracle.DEFAULT_LIMIT:
                fields += [any_vertex_inside(u), min_abs_inner_product(u).hex()]
            yield " ".join(map(str, fields))
        for n in range(1, 15):
            for seed in (0, 7):
                yield " ".join(map(str, astuple(agreement_sweep(n, 40, seed))))

    def test_verdicts_match_the_committed_digest(self, monkeypatch):
        for bits in (14, 3, 8):
            monkeypatch.setattr(oracle, "BLOCK_BITS", bits)
            lines = list(self.lines())
            assert len(lines) == 753 + 28
            digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
            assert digest == self.DIGEST, bits


def integer_inside(u):
    """Whether some vertex of the snapped direction is exactly inside, by
    Python ints over every vertex: |eps_k 2^96 - S U_k| <= 2^96 for every k,
    where U is the snapped coordinates times 2^48 and S = <eps, U>."""
    units = [int(c) for c in np.ldexp(_snap(u.coords), oracle.QUANT_BITS)]
    one = 1 << 2 * oracle.QUANT_BITS
    for eps in sign_patterns((1, -1), repeat=u.n):
        big = sum(e * c for e, c in zip(eps, units))
        if all(abs(e * one - big * c) <= one for e, c in zip(eps, units)):
            return True
    return False


class TestExactInsideRule:
    def test_every_inside_verdict_matches_an_integer_brute_force(self, monkeypatch):
        # the boundary family, whose snapped products straddle 2; the
        # maximizers, whose products reach 2 at n = 9; integer ratios in
        # {-3..3}, with vertices orthogonal to u or nearly so; seeded sphere
        # points; and (6, 2 x 6, 1 x 4), of norm 8, so exactly orthogonal to
        # a vertex, at the product 2.0625. Each direction is also the one
        # draw of a one-trial sweep
        rng = np.random.Generator(
            np.random.Philox(key=np.array([97, 9500], dtype=np.uint64))
        )
        vectors = [u.coords for u in boundary_family_cases()]
        vectors.append(np.array([6.0] + [2.0] * 6 + [1.0] * 4))
        for n in range(1, 13):
            vectors.append(maximizer(n).coords)
            vectors += [sample_sphere(n, 23, i).coords for i in range(3)]
            for _ in range(5):
                v = rng.integers(-3, 4, size=n).astype(np.float64)
                v[0] = 3.0
                vectors.append(v)
        fed, seen = [], Counter()
        monkeypatch.setattr(measure, "_gaussian", lambda *_: fed[-1])
        for v in vectors:
            u = UnitVector(v)
            want = integer_inside(u)
            got = enumerate_shadows(u)
            assert got.exists_inside == want, v
            assert enumerate_shadows_naive(u).exists_inside == want, v
            assert any_vertex_inside(u) == want, v
            fed.append(v)
            stats = agreement_sweep(u.n, 1, 0)
            satisfied = criterion(u).satisfied
            if got.min_abs_inner_product == 0.0:
                assert want and stats.skips == 1, v
            else:
                assert stats.satisfied_count == satisfied, v
                assert stats.agreements == (satisfied == want), v
            seen[want, satisfied, got.min_abs_inner_product == 0.0] += 1
        # inside and not, and the criterion on the other side of 2 from the
        # snapped direction both ways; inside with the criterion failing by
        # an orthogonal vertex too
        assert {(True, True, False), (False, False, False)} <= set(seen)
        assert {(True, False, True), (False, True, False)} <= set(seen)
        assert (True, False, False) in seen


def fraction_inside(xs, eps):
    """Whether the vertex eps projects inside the section along the stored
    floats xs, in Fractions, by the definition: |eps_k - S x_k| <= 1 for
    every k, with S = <eps, x>."""
    s = sum(e * x for e, x in zip(eps, xs))
    return all(abs(e - s * x) <= 1 for e, x in zip(eps, xs))


class TestExactDecisionsOnTheStoredFloats:
    def test_geometry_matches_a_fraction_brute_force(self):
        # geometry decides on the stored floats, not on the snapped ones:
        # satisfied, the witness, degenerate_zero_coords and shadow's inside,
        # for the witness, its negation, every one-sign flip of it and the
        # oracle's best vertex, against Fractions. maximizer(9) has the float
        # product 2.0 and the exact product 2 + 1.9e-16, and -1e-14 is a
        # coordinate, not a zero
        cases = boundary_family_cases()
        cases += [maximizer(n) for n in (9, 16, 25)]
        cases += [u_of(1.0, 1.0, -1e-14), u_of(1.0, 5e-324), u_of(1.0, 1.0, -5e-324)]
        cases += [u_of(-0.0, 1.0), u_of(0.0, -0.0, 1.0), u_of(4.0, *[1.0] * 8)]
        seen = Counter()
        for u in cases:
            xs = [Fraction(x) for x in u.coords.tolist()]
            satisfied = sum(map(abs, xs)) * max(map(abs, xs)) <= 2
            witness = [-1 if x < 0 else 1 for x in xs]
            res = criterion(u)
            assert res.satisfied == satisfied, u.coords
            assert res.witness.signs.tolist() == witness, u.coords
            assert res.degenerate_zero_coords == (0 in xs), u.coords
            flips = [witness[:k] + [-witness[k]] + witness[k + 1 :] for k in range(u.n)]
            best = enumerate_shadows(u).best_vertex.signs.tolist()
            for eps in [witness, [-e for e in witness], best, *flips]:
                want = fraction_inside(xs, eps)
                got = shadow(u, Vertex(np.array(eps, dtype=np.int8))).inside
                assert got == want, (u.coords, eps)
                seen[want, eps == witness] += 1
            assert shadow(u, res.witness).inside == satisfied, u.coords
        # both verdicts for the witness, and inside vertices other than it:
        # (4, 1 x 8) is orthogonal to (-1, 1 x 8) as stored
        assert {(True, True), (False, True), (True, False)} <= set(seen)
        # S = 2^-1074 exactly, and each S t_k = -2^-1076 rounds to -0.0: the
        # signs of t and S decide, not their rounded products
        u = u_of(*[1.0] * 16, 2.0**-1072)
        eps = [1, -1] * 8 + [1]
        assert u.coords[-1] == 5e-324
        assert not fraction_inside([Fraction(x) for x in u.coords.tolist()], eps)
        assert not shadow(u, Vertex(np.array(eps, dtype=np.int8))).inside
        assert criterion(maximizer(9)).product == 2.0
        assert not criterion(maximizer(9)).satisfied


def stacks_by_dimension(cases):
    """The snapped coordinates of cases, stacked by dimension: (T, n)."""
    rows = {}
    for u in cases:
        rows.setdefault(u.n, []).append(_snap(u.coords))
    return [np.stack(r) for r in rows.values()]


def closure(s):
    """The sums s of each row and their negations: (T, 2 m) from (T, m)."""
    return np.concatenate((s, -s), axis=-1)


class TestStackedRows:
    def test_merged_sums_give_each_row_its_exact_minimum(self):
        # _min_abs_sums(sa, sb) is min |a + b| over the +- closures of the
        # leading-sign halves, which are the full halves' sums
        # n = 1 has an empty A half (the one sum 0); zeros, -0.0 and integer
        # ratios give sums of exactly 0, as does (1, 1, 2) with (1, 1, -1)
        # (10, 1, 1) puts -a below and above every sum of B, so _nearest's
        # searches run off both ends and the clip keeps the end rows
        zeros = 0
        heavy = u_of(10.0, 1.0, 1.0)
        cases = pruned_kernel_cases() + distinct_row_cases() + [heavy]
        cases += [sample_sphere(n, 17, i) for n in range(1, 15) for i in range(6)]
        for uq in stacks_by_dimension(cases):
            sa, sb = oracle._sums(uq)
            got = oracle._min_abs_sums(sa, sb)
            fa, fb = closure(sa), closure(sb)
            nearest = []
            for a, b in zip(fa, np.sort(fb)):
                nearest.append(float(np.abs(a + b[oracle._nearest(a, b)]).min()))
            brute = np.abs(fa[:, :, None] + fb[:, None]).min((1, 2))
            assert got.tolist() == nearest == brute.tolist(), uq
            assert not np.signbit(got).any()
            zeros += int((got == 0.0).sum())
        assert zeros > 0
        sa, sb = (closure(s) for s in oracle._sums(_snap(heavy.coords[None])))
        sb = np.sort(sb[0])
        found = np.searchsorted(sb, -sa[0])
        assert found.min() == 0 and found.max() == len(sb)
        sa, sb = oracle._sums(_snap(u_of(1.0, 1.0, 2.0).coords[None]))
        assert oracle._min_abs_sums(sa, sb).tolist() == [0.0]

    def test_whole_direction_minimum_matches_the_halves(self, monkeypatch):
        # up to _WIDTH coordinates, where a stack's leading-sign sums fit in
        # one chunk, _min_abs takes the least |s| of the whole direction's
        # sums, one matmul, else the halves' sort: every sum is exact, so
        # both give D 2^-48, and |.| makes each zero +0. Gaussian stacks of
        # 512 rows pass one chunk from n = 7 on; the signed zeros and the
        # integer ratios (1, 2, 3) and (1, 1, 1, 1, 2, 2) have min |s| = 0
        rng = np.random.Generator(
            np.random.Philox(key=np.array([97, 3000], dtype=np.uint64))
        )
        cases = pruned_kernel_cases() + distinct_row_cases()
        cases += [sample_sphere(n, 17, i) for n in range(1, 15) for i in range(6)]
        stacks = stacks_by_dimension(cases)
        for t in (1, 8, 64, 512):
            for n in range(1, 15):
                g = rng.standard_normal((t, n))
                stacks.append(_snap(g / np.linalg.norm(g, axis=1, keepdims=True)))
        exact_zeros = (
            u_of(-0.0, 1.0),
            u_of(1.0, -0.0),
            u_of(-0.0, 1.0, -2.0),
            u_of(0.0, -0.0, 1.0),
            u_of(1.0, 2.0, 3.0),
            u_of(1.0, 1.0, 1.0, 1.0, 2.0, 2.0),
        )
        stacks += [_snap(u.coords[None]) for u in exact_zeros]
        sums, halves = oracle._sums, []

        def counted(uq):
            halves.append(uq.shape)
            return sums(uq)

        monkeypatch.setattr(oracle, "_sums", counted)
        for bits in (14, 3, 8):
            monkeypatch.setattr(oracle, "BLOCK_BITS", bits)
            taken, zeros = set(), 0
            for uq in stacks:
                before = len(halves)
                got = oracle._min_abs(uq)
                want = oracle._min_abs_sums(*sums(uq))
                assert got.shape == want.shape, (bits, uq.shape)
                assert got.tobytes() == want.tobytes(), (bits, uq)
                assert not np.signbit(got).any(), (bits, uq)
                taken.add(len(halves) > before)
                zeros += int((got == 0.0).sum())
            assert taken == {True, False}, bits
            assert zeros >= len(exact_zeros), bits

    def test_packed_keys_are_exact_at_their_edges(self):
        # the largest key, |s| 2^50 + 1 with |s| at most sqrt(n) + n 2^-49,
        # is an integer below 2^53 up to the ceiling: float64 holds it, so
        # the keys sort exactly as float64, their int64 conversion is exact,
        # and they are far below the 2^62 that the odd-gap rule needs
        top = math.sqrt(oracle.MAX_LIMIT) + oracle.MAX_LIMIT * 2.0**-49
        assert top * 2.0 ** (oracle.QUANT_BITS + 2) + 1 < 2**53
        unit = 2.0**-oracle.QUANT_BITS
        # an empty A half (n = 1), n = 2, an exact tie -a == b, and two
        # snapped coordinates one unit of 2^-48 apart
        one_unit = u_of(1.0, 1.0 + 8 * 2.0**-52)
        assert integer_min_abs_sum(one_unit) == 1
        for u in (u_of(0.6), u_of(0.6, -0.8), u_of(1.0, 1.0, 2.0), one_unit):
            sa, sb = oracle._sums(_snap(u.coords[None]))
            exact = math.ldexp(integer_min_abs_sum(u), -oracle.QUANT_BITS)
            fa, fb = closure(sa), closure(sb)
            brute = float(np.abs(fa[:, :, None] + fb[:, None]).min())
            assert oracle._min_abs_sums(sa, sb).tolist() == [brute] == [exact]
        assert min_abs_inner_product(one_unit) == unit
        # every dimension up to the sweep's, odd ones included
        for n in range(1, 15):
            ramp = UnitVector(np.arange(1.0, n + 1))  # integer ratios: often 0
            for u in (sample_sphere(n, 31), maximizer(n), ramp):
                exact = math.ldexp(integer_min_abs_sum(u), -oracle.QUANT_BITS)
                assert min_abs_inner_product(u) == exact, u.coords
        # the all-equal direction at the ceiling: |s| reaches 6, min |s| = 0
        uq = _snap(np.full((1, oracle.MAX_LIMIT), oracle.MAX_LIMIT**-0.5))
        sa, sb = oracle._sums(uq)
        assert np.abs(sa).max() + np.abs(sb).max() >= 6.0 - oracle.MAX_LIMIT * unit
        a, b = closure(sa[0]), np.sort(closure(sb[0]))
        nearest = float(np.abs(a + b[oracle._nearest(a, b)]).min())
        assert oracle._min_abs_sums(sa, sb).tolist() == [nearest] == [0.0]
        # sums of both signs up to +-6 whose nearest pairs lie 0 to 2 units
        # apart, |b| above or below |a|, and rows of the extreme sums alone
        rng = np.random.default_rng(29)
        edge = 6 << oracle.QUANT_BITS
        ia = rng.integers(-edge, edge + 1, (40, 9))
        ib = np.clip(rng.integers(-2, 3, (40, 9)) - np.roll(ia, 1, axis=1), -edge, edge)
        ia[:4] = np.array([edge, -edge, edge - 1, -edge])[:, None]
        ib[:4] = np.array([1 - edge, edge, -edge, edge - 3])[:, None]
        # min over the +- closures of both rows: |-a - b| = |a + b|
        want = [min(abs(a + b) for a in x for b in (*y, *-y)) for x, y in zip(ia, ib)]
        assert want[:4] == [1, 0, 1, 3] and {0, 1} <= set(want[4:])
        sums = (np.ldexp(x.astype(np.float64), -oracle.QUANT_BITS) for x in (ia, ib))
        got = oracle._min_abs_sums(*sums)
        assert got.tolist() == [math.ldexp(int(w), -oracle.QUANT_BITS) for w in want]

    def test_keys_at_the_ceiling_match_an_integer_brute_force(self):
        # the keys |s| 2^50 (+ 1) are sorted as float64 and must be exact
        # integers: at n = 36 the all-equal direction has the largest |s|,
        # 6, and min |s| = 0, as does (3, 3, 2, 2, 1, 1) repeated, whose
        # equal pairs cancel; maximizer(36) has min |s| > 0. Each half's
        # sums are built in Python ints, as sets, over its sign patterns
        def half_sums(units):
            sums = {0}
            for c in units:
                sums = {x + c for x in sums} | {x - c for x in sums}
            return sums

        tiled = np.tile([3.0, 3.0, 2.0, 2.0, 1.0, 1.0], 6)
        cases = [np.full(36, 1.0), maximizer(36).coords, tiled]
        tops = []
        for v in cases:
            uq = _snap(UnitVector(v).coords[None])
            units = [int(c) for c in np.ldexp(uq[0], oracle.QUANT_BITS)]
            a, b = half_sums(units[:18]), sorted(half_sums(units[18:]))
            top = max(a) + b[-1]
            assert top * 4 + 1 < 2**53, v  # each key, |s| 2^50 (+ 1), below 2^53
            brute = min(
                abs(x + b[j])
                for x in a
                for i in [bisect.bisect_left(b, -x)]
                for j in (max(i - 1, 0), min(i, len(b) - 1))
            )
            got = oracle._min_abs_sums(*oracle._sums(uq))
            assert got.tolist() == [math.ldexp(brute, -oracle.QUANT_BITS)], v
            assert (brute == 0) == (v is not cases[1]), v
            tops.append(top)
        # the all-equal |s| is 6 within the snap's 36 half units of 2^-48
        assert abs(tops[0] - (6 << oracle.QUANT_BITS)) <= 18 and max(tops) == tops[0]

    def test_only_gaps_between_the_halves_count(self):
        # each half repeats a sum, as the maximizer's halves do, so sorted
        # keys of one half lie 0 apart while min |<eps, u>| > 0; then gaps of
        # one unit at the top of the key range, B sorting first (|b| = |a| -
        # 1) and A first (|b| = |a| + 1), and a tie there among repeats
        edge = 6 << oracle.QUANT_BITS
        ia, ib = np.array([
            [[edge, edge, -edge, 7], [edge - 3, 2, -2, 2]],
            [[5, -5, 5, 5], [9, 9, -9, 12]],
            [[edge, -edge, 1, 1], [edge - 1, 1 - edge, 3, -3]],
            [[edge - 1, 1 - edge, 1, -1], [edge, edge, -edge, 3]],
            [[edge, edge, 0, 0], [-edge, 3, 3, 3]],
        ]).transpose(1, 0, 2)
        want = [min(abs(a + b) for a in x for b in (*y, *-y)) for x, y in zip(ia, ib)]
        assert want == [3, 4, 1, 1, 0]
        for half in (ia, ib):
            assert all(len(set(np.abs(row).tolist())) < len(row) for row in half)
        sums = (np.ldexp(x.astype(np.float64), -oracle.QUANT_BITS) for x in (ia, ib))
        got = oracle._min_abs_sums(*sums)
        assert got.tolist() == [math.ldexp(int(w), -oracle.QUANT_BITS) for w in want]
        # the maximizer's B half, of three or more equal coordinates, repeats
        # sums, and min |<eps, u>| > 0
        for n in range(6, 15):
            sa, sb = oracle._sums(_snap(maximizer(n).coords[None]))
            assert len(np.unique(np.abs(sb))) < sb.size, n
            fa, fb = closure(sa), closure(sb)
            brute = np.abs(fa[:, :, None] + fb[:, None]).min((1, 2))
            assert oracle._min_abs_sums(sa, sb).tolist() == brute.tolist(), n
            assert brute[0] > 0.0, n

    def test_stacked_sign_matched_norms_are_each_rows_norm(self):
        # the sum of |u| is exact in any order, so the kernel's formula
        # (_norms) on a stack has each row's bits, and _sign_matched, that
        # formula on the Python floats of one row, has them too
        cases = pruned_kernel_cases() + distinct_row_cases() + boundary_family_cases()
        for uq in stacks_by_dimension(cases + [maximizer(n) for n in range(1, 37)]):
            want = []
            for t in np.abs(uq):
                total = float(t.sum())
                want.append(max(abs(1.0 - total * float(x)) for x in (t.max(), t.min())))
            t = np.abs(uq)
            stacked = oracle._norms(t.sum(axis=1), t.max(axis=1), t.min(axis=1))
            assert stacked.tolist() == want, uq
            assert [oracle._sign_matched(row) for row in uq.tolist()] == want, uq


class TestVerdictContents:
    def test_axis_direction_boundary_shadows(self):
        v = enumerate_shadows(u_of(1.0, 0.0))
        assert v.exists_inside
        assert v.best_inf_norm == 1.0
        assert v.best_vertex.signs.tolist() == [1, 1]
        assert v.vertices_checked == 4
        assert not v.orthogonal_vertex_found
        assert v.min_abs_inner_product == 1.0

    def test_diagonal_direction_hits_an_orthogonal_vertex(self):
        v = enumerate_shadows(u_of(1.0, 1.0))
        assert v.orthogonal_vertex_found
        assert v.min_abs_inner_product == 0.0
        assert v.exists_inside

    def test_single_dimension_projects_everything_to_the_origin(self):
        v = enumerate_shadows(u_of(1.0))
        assert v.exists_inside
        assert v.best_inf_norm == 0.0
        assert v.best_vertex.signs.tolist() == [1]
        assert v.vertices_checked == 2
        assert v.min_abs_inner_product == 1.0

    def test_sign_matched_vertex_wins_when_comfortably_satisfied(self):
        found = 0
        for tag in range(60):
            n = 2 + tag % 9
            u = random_direction(n, 700 + tag)
            crit = criterion(u)
            if crit.product > 1.9 or crit.degenerate_zero_coords:
                continue
            v = enumerate_shadows(u)
            if v.min_abs_inner_product < 1e-6:
                continue
            found += 1
            canon = canonical_vertex(u).signs
            best = v.best_vertex.signs
            assert (
                best.tolist() == canon.tolist()
                or best.tolist() == (-canon).tolist()
            )
            assert best[0] == 1  # ties between a vertex and its opposite
            assert abs(v.best_inf_norm - shadow_norm_closed_form(u)) <= 1e-9
        assert found >= 30

    def test_extremal_direction_in_ten_dimensions_misses_every_vertex(self):
        v = enumerate_shadows(maximizer(10))
        assert v.vertices_checked == 1024
        assert not v.exists_inside
        assert v.best_inf_norm > 1.0


class TestOrthogonalityQueries:
    def test_integer_ratio_direction_is_orthogonal_to_a_vertex(self):
        u = u_of(1.0, 1.0, 2.0)
        assert is_orthogonal_to_some_vertex(u)
        assert min_abs_inner_product(u) == 0.0

    def test_nearby_irrational_ratio_is_not(self):
        u = u_of(1.0, 1.0, math.sqrt(2.0))
        assert not is_orthogonal_to_some_vertex(u)
        expected = (2.0 - math.sqrt(2.0)) / 2.0
        assert min_abs_inner_product(u) == pytest.approx(expected, abs=1e-12)


class TestInvariance:
    def test_verdicts_ignore_order_signs_and_power_of_two_scale(self):
        # permuting or negating input coordinates permutes or negates every
        # vertex's t, and UnitVector drops a power-of-two scale bit for bit,
        # so the norms and sums over all vertices are the same numbers
        rng = np.random.Generator(
            np.random.Philox(key=np.array([97, 9000], dtype=np.uint64))
        )
        for n in range(2, 25):
            ints = rng.integers(-3, 4, size=n).astype(np.float64)
            ints[0] = 3.0
            for v in (rng.standard_normal(n), ints, maximizer(n).coords):
                ref = enumerate_shadows(UnitVector(v))
                for w in (
                    v[rng.permutation(n)],
                    v * rng.choice([-1.0, 1.0], size=n),
                    np.ldexp(v, int(rng.integers(-40, 41))),
                ):
                    u = UnitVector(w)
                    got = enumerate_shadows(u)
                    assert got.best_inf_norm == ref.best_inf_norm, w
                    assert got.exists_inside == ref.exists_inside, w
                    assert got.min_abs_inner_product == ref.min_abs_inner_product
                    assert min_abs_inner_product(u) == ref.min_abs_inner_product
                    assert any_vertex_inside(u) == ref.exists_inside, w


class TestDimensionCaps:
    def test_enumeration_cap_is_enforced(self):
        with pytest.raises(DimensionTooLarge) as exc:
            enumerate_shadows(maximizer(29))
        assert exc.value.n == 29
        assert exc.value.limit == 28
        with pytest.raises(DimensionTooLarge):
            enumerate_shadows(maximizer(7), n_limit=6)

    def test_the_inside_query_is_capped_before_its_rule(self):
        # a heavy first coordinate: the sign-matched vertex is inside, which
        # the O(n) rule would say above the cap too
        for n in (oracle.DEFAULT_LIMIT + 1, 40):
            with pytest.raises(DimensionTooLarge) as exc:
                any_vertex_inside(u_of(1.0, *[1e-3] * (n - 1)))
            assert (exc.value.n, exc.value.limit) == (n, oracle.DEFAULT_LIMIT)
        assert any_vertex_inside(u_of(1.0, *[1e-3] * (oracle.DEFAULT_LIMIT - 1)))

    def test_limits_above_the_ceiling_are_rejected(self):
        # every public entry point that takes n_limit, so a new one cannot
        # skip the ceiling
        entries = [
            f
            for name, f in vars(oracle).items()
            if callable(f)
            and not name.startswith("_")
            and getattr(f, "__module__", None) == oracle.__name__
            and "n_limit" in inspect.signature(f).parameters
        ]
        assert {f.__name__ for f in entries} >= {
            "enumerate_shadows",
            "enumerate_shadows_naive",
        }
        for f in entries:
            with pytest.raises(ValueError, match=str(oracle.MAX_LIMIT)):
                f(u_of(1.0, 2.0), n_limit=oracle.MAX_LIMIT + 1)
            assert f(u_of(1.0, 2.0), n_limit=oracle.MAX_LIMIT).exists_inside, f

    def test_the_cap_is_checked_before_anything_is_allocated(self):
        # snapping 2^20 coordinates alone would take 8 MiB
        u = UnitVector(np.random.default_rng(28).standard_normal(1 << 20))
        calls = [
            (DimensionTooLarge, lambda: enumerate_shadows(u)),
            (DimensionTooLarge, lambda: min_abs_inner_product(u)),
            (DimensionTooLarge, lambda: any_vertex_inside(u)),
            (ValueError, lambda: enumerate_shadows(u, n_limit=oracle.MAX_LIMIT + 1)),
            (ValueError, lambda: enumerate_shadows_naive(u, n_limit=oracle.MAX_LIMIT + 1)),
        ]
        for kind, call in calls:
            tracemalloc.start()
            try:
                with pytest.raises(kind) as exc:
                    call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 << 10, (exc.value, peak)
            if kind is ValueError:  # n_limit's check comes first
                assert "ceiling" in str(exc.value)

    def test_naive_cap_is_lower(self):
        with pytest.raises(DimensionTooLarge):
            enumerate_shadows_naive(maximizer(21))


def integer_min_abs_sum(u):
    """min |<eps, u>| on the snapped direction in integer units of 2^-48,
    from sorted half sums split unlike the oracle's halves."""
    units = [int(c) for c in np.ldexp(_snap(u.coords), oracle.QUANT_BITS)]

    def half_sums(part):
        patterns = sign_patterns((1, -1), repeat=len(part))
        return sorted({sum(s * c for s, c in zip(signs, part)) for signs in patterns})

    k = u.n // 2 - 1
    left, right = half_sums(units[:k]), half_sums(units[k:])
    best = None
    for a in left:
        i = bisect.bisect_left(right, -a)
        for b in right[max(i - 1, 0) : i + 1]:
            if best is None or abs(a + b) < best:
                best = abs(a + b)
    return best


class TestEnumerationCap:
    def test_snapped_sums_are_exact_at_the_cap(self):
        n = oracle.DEFAULT_LIMIT
        for u in (random_direction(n, 2800), maximizer(n)):
            exact = integer_min_abs_sum(u)
            assert min_abs_inner_product(u) == math.ldexp(exact, -oracle.QUANT_BITS)

    def test_full_enumeration_at_the_cap(self):
        n = oracle.DEFAULT_LIMIT
        u = maximizer(n)
        v = enumerate_shadows(u)
        assert v.vertices_checked == 1 << n
        assert not v.exists_inside
        assert abs(v.best_inf_norm - shadow(u, v.best_vertex).inf_norm) <= 1e-11
        assert v.min_abs_inner_product == math.ldexp(
            integer_min_abs_sum(u), -oracle.QUANT_BITS
        )


def partitions(n, top=None):
    """Every partition of n into parts of at most top, largest first."""
    top = n if top is None else top
    if n == 0:
        yield ()
    for c in range(min(n, top), 0, -1):
        yield from ((c, *rest) for rest in partitions(n - c, c))


def few_multiset_cases():
    """(multisets, u) at n = 10..16 for directions of one heavy coordinate
    and n - 1 light ones in classes of equal magnitudes, whose 2 prod(c + 1)
    multisets of t are the two counts closest to 2^(n - n//2), the bound of
    any_vertex_inside's class route, at or under it and the two just over
    it. The light magnitudes are the integers 1, 2, ... under a heavy 3 +
    n//4, some orthogonal to a vertex, or 1 + j/64 under sqrt(n), as the
    maximizer's, none orthogonal; signs and order are random."""
    rng = np.random.Generator(
        np.random.Philox(key=np.array([97, 3100], dtype=np.uint64))
    )
    cases = []
    for n in range(10, 17):
        bound = 1 << (n - n // 2)
        parts = sorted((2 * math.prod(c + 1 for c in p), p) for p in partitions(n - 1))
        under = [x for x in parts if x[0] <= bound][-2:]
        over = [x for x in parts if x[0] > bound][:2]
        for multisets, sizes in under + over:
            for heavy, step in ((3.0 + n // 4, 1.0), (math.sqrt(n), 1 / 64)):
                light = [np.full(c, 1.0 + j * step) for j, c in enumerate(sizes)]
                v = rng.permutation(np.concatenate([[heavy], *light]))
                cases.append((multisets, UnitVector(v * rng.choice((-1.0, 1.0), n))))
    return cases


def failing_sphere_points(dims, seed):
    """The criterion-failing sample_sphere(n, seed, i), i < 12, at each n."""
    return [
        u
        for n in dims
        for u in (sample_sphere(n, seed, i) for i in range(12))
        if not criterion(u).satisfied
    ]


class TestBooleanShortcut:
    def test_matches_full_verdict(self):
        for tag in range(20):
            n = 2 + tag % 11
            u = random_direction(n, 1200 + tag)
            assert any_vertex_inside(u) == enumerate_shadows(u).exists_inside

    def test_the_rule_builds_no_class_table_and_runs_no_search(self, monkeypatch):
        # the maximizers (no vertex inside), the distinct-row cases and
        # criterion-failing sphere points at n = 20..28: the sign-matched
        # test, else min |s| over the sums of the multisets of t where they
        # are few, as for the maximizers, or one sort of the leading-sign
        # half sums
        failing = failing_sphere_points(range(20, 29), 0)
        assert {u.n for u in failing} == set(range(20, 29))
        cases = [maximizer(n) for n in range(1, 29)] + distinct_row_cases() + failing
        cases += failing_sphere_points(range(12, 17), 3)
        cases += [u for _, u in few_multiset_cases()]
        refs = [enumerate_shadows(u).exists_inside for u in cases]
        assert 0 < sum(refs) < len(refs)

        def searched(*_):
            raise AssertionError("search")

        for name in ("_class_table", "_distinct_tables", "_blocks", "_nearest"):
            monkeypatch.setattr(oracle, name, searched)
        for u, ref in zip(cases, refs):
            assert any_vertex_inside(u) is ref, u.coords

    def test_the_queries_agree_on_either_side_of_the_class_bound(self):
        # criterion-failing sphere points, whose distinct magnitudes make
        # 2^n multisets, and directions whose multisets straddle the bound:
        # any_vertex_inside, min_abs_inner_product and the verdict agree,
        # and, up to n = 14, the naive reference gives the same bits
        failing = failing_sphere_points(range(12, 17), 3)
        assert {u.n for u in failing} == set(range(12, 17))
        few = [u for _, u in few_multiset_cases()]
        inside = []
        for u in failing + few:
            v = enumerate_shadows(u)
            inside.append(any_vertex_inside(u))
            assert inside[-1] is v.exists_inside, u.coords
            assert min_abs_inner_product(u) == v.min_abs_inner_product, u.coords
            assert v.exists_inside or not v.orthogonal_vertex_found, u.coords
            if u.n <= 14:
                assert verdicts_equal(v, enumerate_shadows_naive(u)), u.coords
        assert not any(inside[: len(failing)])
        assert 0 < sum(inside[len(failing) :]) < len(few)

    def test_the_class_route_gives_min_abs_bytes_at_any_block_bits(self, monkeypatch):
        # under the bound, the least |s| over the multisets' sums is
        # _min_abs's, byte for byte; any_vertex_inside takes the sums there
        # and _min_abs above it, whatever BLOCK_BITS, the chunk size of a
        # search it never runs
        cases, sums, taken = few_multiset_cases(), oracle._class_sums, []

        def class_sums(classes):
            taken.append(True)
            return sums(classes)

        routes = set()
        for multisets, u in cases:
            uq = _snap(u.coords[None])
            classes, counted = oracle._classes(uq[0].tolist())
            assert counted == multisets, u.coords
            if multisets <= 1 << (u.n - u.n // 2):
                least = np.abs(sums(classes)).min()
                assert least.tobytes() == oracle._min_abs(uq)[0].tobytes(), u.coords
        monkeypatch.setattr(oracle, "_class_sums", class_sums)
        for bits in (3, 8, 14):
            monkeypatch.setattr(oracle, "BLOCK_BITS", bits)
            for multisets, u in cases:
                taken.clear()
                decided = oracle._front(u, oracle.DEFAULT_LIMIT)[3]
                any_vertex_inside(u)
                under = multisets <= 1 << (u.n - u.n // 2)
                assert len(taken) == (under and not decided), (u.coords, bits)
                routes.add((under, decided))
        assert routes == {(True, False), (False, False), (False, True)}


class TestAgreementSweep:
    def test_no_disagreements_in_low_dimension(self):
        st = agreement_sweep(5, 300, seed=2024)
        assert st.disagreements == 0
        assert st.agreements + st.skips == 300
        assert st.satisfied_count == st.agreements  # every direction satisfies

    def test_no_disagreements_near_the_threshold_dimension(self):
        st = agreement_sweep(12, 300, seed=2025)
        assert st.disagreements == 0
        assert st.agreements + st.skips == 300
        assert 0 < st.satisfied_count <= st.agreements

    def test_trivial_dimension_always_agrees(self):
        st = agreement_sweep(1, 50, seed=1)
        assert st.agreements == 50
        assert st.satisfied_count == 50

    @staticmethod
    def reference(n, trials, seed):
        """The sweep one trial at a time, through the public entry points."""
        tally = Counter()
        for t in range(trials):
            u = sample_sphere(n, seed, index=t)
            verdict = enumerate_shadows(u)
            if verdict.min_abs_inner_product == 0.0:
                tally["skips"] += 1
                continue
            satisfied = criterion(u).satisfied
            tally["satisfied_count"] += satisfied
            agree = satisfied == verdict.exists_inside
            tally["agreements" if agree else "disagreements"] += 1
        return AgreementStats(
            n=n,
            trials=trials,
            seed=seed,
            agreements=tally["agreements"],
            skips=tally["skips"],
            disagreements=tally["disagreements"],
            satisfied_count=tally["satisfied_count"],
        )

    def test_batches_match_one_trial_at_a_time(self, monkeypatch):
        # 7, 9 and 33 trials leave a partial last group at most chunk sizes
        cases = [
            (n, trials, seed)
            for n in range(1, 15)
            for trials in (0, 1, 7, 8, 9, 33)
            for seed in (3, 2**63 + 5)
        ]
        refs = [self.reference(*case) for case in cases]
        assert sum(r.satisfied_count < r.agreements for r in refs) > 0  # both verdicts
        open_trials = 0  # kept trials whose sign-matched norm is 1 or more
        for n, trials, seed in cases:
            for t in range(trials):
                u = sample_sphere(n, seed, index=t)
                open_trials += bool(
                    oracle._sign_matched(_snap(u.coords).tolist()) >= 1.0
                    and min_abs_inner_product(u) > 0.0
                )
        blocks, searched = oracle._blocks, []

        def counted(tables, *args):
            searched.append(tables)
            return blocks(tables, *args)

        monkeypatch.setattr(oracle, "_blocks", counted)
        for bits in (3, 8, 14):
            monkeypatch.setattr(oracle, "BLOCK_BITS", bits)
            for case, ref in zip(cases, refs):
                assert agreement_sweep(*case) == ref, (bits, case)
        # the exact rule decides every kept trial with no search, those that
        # the sign lemma leaves open (a sign-matched norm of 1 or more) too
        kept = sum(r.agreements + r.disagreements for r in refs)
        assert 0 < open_trials < kept
        assert searched == []

    def test_skips_match_one_trial_at_a_time(self, monkeypatch):
        # every third draw has integer ratios in {-3..3}, its last one 1, 2
        # or 3: some snap to a direction with a vertex sum of exactly 0, which
        # is skipped, and others to a min |s| below 1e-14 but not 0, which is
        # kept and decided by the exact rule, as every trial is, with no search
        draw = measure._gaussian

        def integer_ratios(n, seed, index, retry, gen=None):
            g = draw(n, seed, index, retry, gen)
            if index % 3:
                return g
            v = np.floor(g * 2.0).clip(-3, 3)
            v[-1] = float(index % 9 // 3 + 1)
            return v

        monkeypatch.setattr(measure, "_gaussian", integer_ratios)
        refs = {n: self.reference(n, 40, 11) for n in range(2, 15)}
        near = sum(
            0.0 < min_abs_inner_product(sample_sphere(n, 11, t)) < 1e-14
            for n in refs
            for t in range(0, 40, 3)
        )
        assert near > 0 and 0 < sum(r.skips for r in refs.values()) < 13 * 14

        def searched(*_):
            raise AssertionError("search")

        monkeypatch.setattr(oracle, "_blocks", searched)
        for bits in (3, 14):
            monkeypatch.setattr(oracle, "BLOCK_BITS", bits)
            for n, ref in refs.items():
                assert agreement_sweep(n, 40, 11) == ref, (bits, n)

    def test_the_sign_lemma_settles_every_trial_below_the_threshold(self, monkeypatch):
        # up to n = 9 every criterion product is at most 2, and in these
        # draws up to n = 10 every sign-matched norm is below 1, so the
        # sweep decides every trial with no search
        seeds = (0, 1, 2, 3, 2**63 + 5)
        refs = {(n, s): self.reference(n, 8, s) for n in range(2, 11) for s in seeds}

        def searched(*_):
            raise AssertionError("search")

        monkeypatch.setattr(oracle, "_blocks", searched)
        for (n, s), ref in refs.items():
            assert agreement_sweep(n, 8, s) == ref, (n, s)

    def test_small_directions_sort_no_half_sums(self, monkeypatch):
        # up to _WIDTH = 12 coordinates, a group of 8 trials and one
        # direction have their leading-sign sums in one chunk: min |<eps,
        # u>| is one matmul of them (_min_abs), and no half sum is sorted.
        # At n = 13 and 14 the sweep, and min_abs_inner_product up to the
        # cap, take one sort of the halves' sums per call
        halves = oracle._min_abs_sums

        def sorted_halves(*_):
            raise AssertionError("half sums sorted")

        monkeypatch.setattr(oracle, "_min_abs_sums", sorted_halves)
        for n in range(1, 13):
            for s in (0, 7, 12345):
                assert agreement_sweep(n, 8, s).trials == 8, (n, s)
                min_abs_inner_product(sample_sphere(n, s))
        calls = []  # the n of each sort, read when the sort is called

        def counted(*sums):
            calls.append(n)
            return halves(*sums)

        monkeypatch.setattr(oracle, "_min_abs_sums", counted)
        for n in (13, 14):
            agreement_sweep(n, 8, 5)
        for n in range(13, oracle.DEFAULT_LIMIT + 1):
            min_abs_inner_product(sample_sphere(n, 5))
        assert calls == [13, 14, *range(13, oracle.DEFAULT_LIMIT + 1)]

    def test_retried_draws_match_one_trial_at_a_time(self, monkeypatch):
        # trials 2 and 5 fail their first draw; the batched sweep and the
        # per-trial reference draw the same second one
        draw = measure._gaussian

        def flaky(n, seed, index, retry, gen=None):
            if index in (2, 5) and retry == 0:
                return np.zeros(n)
            return draw(n, seed, index, retry, gen)

        monkeypatch.setattr(measure, "_gaussian", flaky)
        for n in (3, 9, 13):
            assert agreement_sweep(n, 7, 21) == self.reference(n, 7, 21), n

    def test_stored_and_snapped_products_split_within_one_group(self, monkeypatch):
        # trials 0 and 2 are maximizer(9), whose stored product is just above
        # 2 and whose snapped product is just below it; at BLOCK_BITS 14 the
        # five trials are one group, whose stored and snapped rows go through
        # one product call, so halves out of line would move the tallies
        draw, m = measure._gaussian, maximizer(9).coords

        def planted(n, seed, index, retry, gen=None):
            return m.copy() if index in (0, 2) else draw(n, seed, index, retry, gen)

        monkeypatch.setattr(measure, "_gaussian", planted)
        stored = UnitVector(m).coords[None]
        assert _products_at_most(stored)[0] != _products_at_most(_snap(stored))[0]
        ref = self.reference(9, 5, 3)
        for bits in (3, 14):
            monkeypatch.setattr(oracle, "BLOCK_BITS", bits)
            got = agreement_sweep(9, 5, 3)
            assert got == ref, bits
            assert got.disagreements > 0, bits

    def test_tallies_are_python_ints(self, monkeypatch):
        # numpy counts would print and hash as ints do, but each would be an
        # object of its own where small ints are shared
        for bits in (3, 14):
            monkeypatch.setattr(oracle, "BLOCK_BITS", bits)
            for n in (1, 8, 14):
                for trials in (0, 1, 300):
                    fields = astuple(agreement_sweep(n, trials, 4))
                    assert [type(x) for x in fields] == [int] * 7, (bits, n, trials)

    def test_dimension_is_checked_before_anything_is_drawn(self):
        for n in (0, -4):
            with pytest.raises(InvalidDimension):
                agreement_sweep(n, 1, 5)
        tracemalloc.start()
        try:
            with pytest.raises(InvalidDimension):
                agreement_sweep(MAX_DIMENSION + 1, 1, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # one row would take 8 MiB
        for n in (0, MAX_DIMENSION + 1):  # with no trials too
            with pytest.raises(InvalidDimension):
                agreement_sweep(n, 0, 5)

    def test_negative_trials_are_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            agreement_sweep(3, -2, 0)

    def test_seed_is_checked_even_with_no_trials(self):
        for seed in (1.5, -1, 1 << 64):
            with pytest.raises(ValueError, match="seed"):
                agreement_sweep(5, 0, seed)

    def test_cap_applies_with_or_without_trials(self, monkeypatch):
        # as at every entry point, before any draw; range errors come first
        def drawn(*_):
            raise AssertionError("draw")

        monkeypatch.setattr(measure, "_gaussian", drawn)
        for trials in (1, 0):
            with pytest.raises(DimensionTooLarge):
                agreement_sweep(29, trials, 0)
        with pytest.raises(InvalidDimension):
            agreement_sweep(MAX_DIMENSION + 1, 0, 0)
