"""Exhaustive ground truth over all 2^n cube vertices.

The direction is first snapped to a dyadic grid with 48 fractional bits,
which moves each coordinate by at most 2^-49. Every signed sum <eps, u>
is then a multiple of 2^-48 of size at most sqrt(n) + n 2^-49, below 2^3
for n <= 28, so it is exact in float64 in any summation order. (Sums stay
exact while that size is below 2^5, up to n = 1023: DEFAULT_LIMIT bounds
running time, not exactness.) Every split and the naive reference
therefore give bit-identical verdicts.

The enumeration meets in the middle (Horowitz and Sahni, JACM 1974). With
t_k = eps_k u_k and s = sum t_k, |eps_k - s u_k| = |1 - s t_k|, and
t -> fl(1 - fl(s t)) is monotone, so the shadow sup-norm is attained at
max t_k or min t_k, bit for bit. Each half, A = u[:n//2] and B =
u[n//2:], tabulates (s, t_max, t_min) over its sign patterns. A vertex is
a pair of rows, combined with O(1) work, and min |<eps, u>| is a sorted
merge of the two sum tables. Rows are in lexicographic order (+1 before
-1), so pair (a, b) has rank a 2^|B| + b and a row-major scan meets tied
vertices in tie-rule order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooLarge
from .geometry import INSIDE_TOL, UnitVector, Vertex, criterion
from .measure import sample_sphere

QUANT_BITS = 48
DEFAULT_LIMIT = 28
BLOCK_BITS = 14
ORTHO_TOL = 1e-12
SKIP_TOL = 1e-9
_NEIGHBOURS = np.array([1, 0])


@dataclass(frozen=True, eq=False)
class OracleVerdict:
    """Result of checking every vertex of the cube against the section."""

    exists_inside: bool
    best_vertex: Vertex
    best_inf_norm: float
    vertices_checked: int
    orthogonal_vertex_found: bool
    min_abs_inner_product: float


@dataclass(frozen=True)
class AgreementStats:
    """Tally of criterion-vs-enumeration comparisons on random directions."""

    n: int
    trials: int
    seed: int
    agreements: int
    skips: int
    disagreements: int
    satisfied_count: int


def _snap(coords: np.ndarray) -> np.ndarray:
    q = np.ldexp(np.rint(np.ldexp(coords, QUANT_BITS)), -QUANT_BITS)
    q.flags.writeable = False
    return q


def _vertex_from_code(code: int, n: int) -> Vertex:
    bits = (code >> np.arange(n - 1, -1, -1, dtype=np.int64)) & 1
    return Vertex((1 - 2 * bits).astype(np.int8))


def _tables(u: UnitVector, n_limit: int):
    """(s, t_max, t_min) for every sign pattern of each half of the snapped
    direction. Row a of a half of size h sets its coordinate k to -1 when
    bit (h-1-k) of a is set; an empty half is the row (0, -inf, +inf)."""
    n = u.n
    if n > n_limit:
        raise DimensionTooLarge(n, n_limit)
    uq = _snap(u.coords)
    h, w = n // 2, n - n // 2
    bits = (np.arange(1 << w)[:, None] >> np.arange(w - 1, -1, -1)) & 1
    signs = 1.0 - 2.0 * bits  # half A's patterns: first 2^h rows, last h columns
    halves = (signs[: 1 << h, w - h :] * uq[:h], signs * uq[h:])
    return [
        (t.sum(axis=1), t.max(axis=1, initial=-np.inf), t.min(axis=1, initial=np.inf))
        for t in halves
    ]


def _min_abs_sum(sa: np.ndarray, sb: np.ndarray) -> float:
    """min |a + b| over a in sa, b in sb, exactly: each a meets the two
    neighbours of -a in sb, sorted and padded with -inf and +inf."""
    sb = np.sort(np.append(sb, (-np.inf, np.inf)))
    j = np.searchsorted(sb, -sa)[:, None] - _NEIGHBOURS
    return float(np.abs(sa[:, None] + sb[j]).min())


def _blocks(tables):
    """Yields (first A-row, shadow sup-norms of its pairs) for chunks of
    at least one A-row and about 2^BLOCK_BITS pairs. Every shadow
    reduction runs over this one loop."""
    (sa, hia, loa), (sb, hib, lob) = tables
    rows = max(1, (1 << BLOCK_BITS) // sb.size)
    for a0 in range(0, sa.size, rows):
        r = slice(a0, a0 + rows)
        s = sa[r, None] + sb
        hi = np.maximum(hia[r, None], hib)
        lo = np.minimum(loa[r, None], lob)
        for t in (hi, lo):  # |1 - s t| in place
            np.abs(np.subtract(1.0, np.multiply(s, t, out=t), out=t), out=t)
        yield a0, np.maximum(hi, lo, out=hi)


def enumerate_shadows(u: UnitVector, n_limit: int = DEFAULT_LIMIT) -> OracleVerdict:
    """Check all 2^n vertices and report the best shadow found.

    Ties in the minimal sup-norm are broken by the lexicographically
    smallest sign pattern (+1 sorts before -1): chunks come in that order
    and argmin keeps the first of equal values, so the verdict is
    identical for any chunk size.
    """
    (sa, _, _), (sb, _, _) = tables = _tables(u, n_limit)
    best_inf = np.inf
    best_code = None
    for a0, infs in _blocks(tables):
        i = int(np.argmin(infs))
        if infs.flat[i] < best_inf:
            best_inf, best_code = float(infs.flat[i]), a0 * sb.size + i
    min_abs_ip = _min_abs_sum(sa, sb)

    return OracleVerdict(
        exists_inside=bool(best_inf <= 1.0 + INSIDE_TOL),
        best_vertex=_vertex_from_code(best_code, u.n),
        best_inf_norm=best_inf,
        vertices_checked=1 << u.n,
        orthogonal_vertex_found=bool(min_abs_ip <= ORTHO_TOL),
        min_abs_inner_product=min_abs_ip,
    )


def enumerate_shadows_naive(u: UnitVector, n_limit: int = 20) -> OracleVerdict:
    """Reference enumeration: fresh O(n) work per vertex, plain loops.

    Kept deliberately dumb so it can cross-check enumerate_shadows; on
    snapped coordinates the two are bit-identical. Unusable beyond small
    n, hence the lower default cap.
    """
    n = u.n
    if n > n_limit:
        raise DimensionTooLarge(n, n_limit)
    uq = _snap(u.coords).tolist()
    ks = range(n)

    best_inf = np.inf
    best_code = None
    min_abs_ip = np.inf
    for i in range(1 << n):
        g = i ^ (i >> 1)
        signs = [1.0 - 2.0 * ((g >> k) & 1) for k in ks]
        s = sum(signs[k] * uq[k] for k in ks)
        inf_norm = max(abs(signs[k] - s * uq[k]) for k in ks)
        code = sum(((g >> k) & 1) << (n - 1 - k) for k in ks)
        if inf_norm < best_inf or (inf_norm == best_inf and code < best_code):
            best_inf, best_code = inf_norm, code
        min_abs_ip = min(min_abs_ip, abs(s))

    return OracleVerdict(
        exists_inside=bool(best_inf <= 1.0 + INSIDE_TOL),
        best_vertex=_vertex_from_code(best_code, n),
        best_inf_norm=best_inf,
        vertices_checked=1 << n,
        orthogonal_vertex_found=bool(min_abs_ip <= ORTHO_TOL),
        min_abs_inner_product=min_abs_ip,
    )


def any_vertex_inside(u: UnitVector, n_limit: int = DEFAULT_LIMIT) -> bool:
    """Boolean-only query with early exit once an inside vertex appears."""
    blocks = _blocks(_tables(u, n_limit))
    return any(float(infs.min()) <= 1.0 + INSIDE_TOL for _, infs in blocks)


def min_abs_inner_product(u: UnitVector, n_limit: int = DEFAULT_LIMIT) -> float:
    """Smallest |<eps, u>| over all sign vectors eps, computed exactly
    on the snapped direction by a sorted merge of the half sums."""
    (sa, _, _), (sb, _, _) = _tables(u, n_limit)
    return _min_abs_sum(sa, sb)


def is_orthogonal_to_some_vertex(
    u: UnitVector, tol: float = ORTHO_TOL, n_limit: int = DEFAULT_LIMIT
) -> bool:
    """Whether u is (numerically) orthogonal to some cube vertex.

    These directions form a measure-zero union of 2^(n-1) lower
    dimensional spheres; on them the criterion's guarantee is void, so
    callers use this to flag results rather than trust them.
    """
    return min_abs_inner_product(u, n_limit) <= tol


def agreement_sweep(
    n: int,
    trials: int,
    seed: int,
    skip_tol: float = SKIP_TOL,
    n_limit: int = DEFAULT_LIMIT,
) -> AgreementStats:
    """Compare the criterion against full enumeration on random directions.

    Samples uniform points on the sphere, skips those whose smallest
    |<eps, u>| falls below skip_tol (the criterion promises nothing
    there), and counts agreements between the product test and the
    exhaustive inside-vertex search. Disagreements are counted, not
    raised; the test suite asserts the count is zero.
    """
    agreements = skips = disagreements = satisfied_count = 0
    for t in range(trials):
        u = sample_sphere(n, seed, index=t)
        verdict = enumerate_shadows(u, n_limit=n_limit)
        if verdict.min_abs_inner_product < skip_tol:
            skips += 1
            continue
        crit = criterion(u)
        satisfied_count += int(crit.satisfied)
        if crit.satisfied == verdict.exists_inside:
            agreements += 1
        else:
            disagreements += 1
    return AgreementStats(
        n=n,
        trials=trials,
        seed=seed,
        agreements=agreements,
        skips=skips,
        disagreements=disagreements,
        satisfied_count=satisfied_count,
    )
