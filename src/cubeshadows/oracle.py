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

The tables carry a leading batch axis of T directions, and _blocks cuts
the vertices of the batch into chunks of about 2^BLOCK_BITS: as many whole
directions as fit, else one direction and at least one A-row. The public
entry points are the case T = 1. agreement_sweep draws its trials in
groups that fill one chunk and reduces it to each direction's minimal
sup-norm and minimal |s|, the same bits as one direction at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooLarge
from .geometry import CRITERION_TOL, INSIDE_TOL, UnitVector, Vertex
from .geometry import criterion, criterion_product  # perfbench wraps oracle.criterion
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


def _tables(uq: np.ndarray, n_limit: int):
    """(s, t_max, t_min), each of shape (T, 2^size), for every sign pattern
    of each half of T snapped directions uq of shape (T, n). Row a of a half
    of size h sets its coordinate k to -1 when bit (h-1-k) of a is set; an
    empty half is the row (0, -inf, +inf)."""
    n = uq.shape[1]
    if n > n_limit:
        raise DimensionTooLarge(n, n_limit)
    h, w = n // 2, n - n // 2
    bits = (np.arange(1 << w) >> np.arange(w - 1, -1, -1)[:, None]) & 1
    signs = (1.0 - 2.0 * bits)[:, None]  # half A's: last h rows, first 2^h columns
    uq = np.ascontiguousarray(uq.T)[:, :, None]
    # coordinate axis first: reducing over it runs on contiguous rows
    halves = (signs[w - h :, :, : 1 << h] * uq[:h], signs * uq[h:])
    return [
        (t.sum(axis=0), t.max(axis=0, initial=-np.inf), t.min(axis=0, initial=np.inf))
        for t in halves
    ]


def _min_abs_sum(sa: np.ndarray, sb: np.ndarray) -> float:
    """min |a + b| over a in sa, b in sb, exactly: each a meets the two
    neighbours of -a in sb, sorted and padded with -inf and +inf."""
    sb = np.sort(np.append(sb, (-np.inf, np.inf)))
    j = np.searchsorted(sb, -sa)[:, None] - _NEIGHBOURS
    return float(np.abs(sa[:, None] + sb[j]).min())


def _blocks(tables):
    """Yields (first direction, first A-row, sums, shadow sup-norms), the
    last two of shape (directions, A-rows, 2^|B|), for chunks of about
    2^BLOCK_BITS vertices: whole directions while they fit, else one
    direction and at least one A-row. Every shadow reduction runs over
    this one loop."""
    (sa, hia, loa), (sb, hib, lob) = tables
    dirs = max(1, (1 << BLOCK_BITS) // (sa.shape[1] * sb.shape[1]))
    rows = max(1, (1 << BLOCK_BITS) // (dirs * sb.shape[1]))
    for d0 in range(0, len(sa), dirs):
        for a0 in range(0, sa.shape[1], rows):
            d, r = slice(d0, d0 + dirs), slice(a0, a0 + rows)
            s = sa[d, r, None] + sb[d, None]
            hi = np.maximum(hia[d, r, None], hib[d, None])
            lo = np.minimum(loa[d, r, None], lob[d, None])
            for t in (hi, lo):  # |1 - s t| in place
                np.abs(np.subtract(1.0, np.multiply(s, t, out=t), out=t), out=t)
            yield d0, a0, s, np.maximum(hi, lo, out=hi)


def enumerate_shadows(u: UnitVector, n_limit: int = DEFAULT_LIMIT) -> OracleVerdict:
    """Check all 2^n vertices and report the best shadow found.

    Ties in the minimal sup-norm are broken by the lexicographically
    smallest sign pattern (+1 sorts before -1): chunks come in that order
    and argmin keeps the first of equal values, so the verdict is
    identical for any chunk size.
    """
    ((sa,), _, _), ((sb,), _, _) = tables = _tables(_snap(u.coords[None]), n_limit)
    best_inf = np.inf
    best_code = None
    for _, a0, _, infs in _blocks(tables):
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
    """Reference enumeration: fresh O(n) work per vertex, nothing shared.

    Kept deliberately dumb so it can cross-check enumerate_shadows; on
    snapped coordinates the two are bit-identical. Each chunk is an
    explicit matrix of sign vectors in lexicographic order, projected in
    full; the first minimum wins, so ties go to the smallest code.
    Unusable beyond small n, hence the lower default cap.
    """
    n = u.n
    if n > n_limit:
        raise DimensionTooLarge(n, n_limit)
    uq = _snap(u.coords)
    shifts = np.arange(n - 1, -1, -1)
    rows = 1 << 14

    best_inf = np.inf
    best_code = None
    min_abs_ip = np.inf
    for c0 in range(0, 1 << n, rows):
        codes = np.arange(c0, min(c0 + rows, 1 << n))
        signs = 1.0 - 2.0 * ((codes[:, None] >> shifts) & 1)
        s = (signs * uq).sum(axis=1)
        infs = np.abs(signs - s[:, None] * uq).max(axis=1)
        i = int(np.argmin(infs))
        if infs[i] < best_inf:
            best_inf, best_code = float(infs[i]), c0 + i
        min_abs_ip = min(min_abs_ip, float(np.abs(s).min()))

    return OracleVerdict(
        exists_inside=bool(best_inf <= 1.0 + INSIDE_TOL),
        best_vertex=_vertex_from_code(best_code, n),
        best_inf_norm=best_inf,
        vertices_checked=1 << n,
        orthogonal_vertex_found=bool(min_abs_ip <= ORTHO_TOL),
        min_abs_inner_product=min_abs_ip,
    )


def any_vertex_inside(u: UnitVector) -> bool:
    """Boolean-only query with early exit once an inside vertex appears."""
    blocks = _blocks(_tables(_snap(u.coords[None]), DEFAULT_LIMIT))
    return any(float(infs.min()) <= 1.0 + INSIDE_TOL for *_, infs in blocks)


def min_abs_inner_product(u: UnitVector) -> float:
    """Smallest |<eps, u>| over all sign vectors eps, computed exactly
    on the snapped direction by a sorted merge of the half sums."""
    ((sa,), _, _), ((sb,), _, _) = _tables(_snap(u.coords[None]), DEFAULT_LIMIT)
    return _min_abs_sum(sa, sb)


def is_orthogonal_to_some_vertex(u: UnitVector) -> bool:
    """Whether some cube vertex has |<eps, u>| <= ORTHO_TOL.

    These directions form a measure-zero union of 2^(n-1) lower
    dimensional spheres; on them the criterion's guarantee is void, so
    callers use this to flag results rather than trust them.
    """
    return min_abs_inner_product(u) <= ORTHO_TOL


def agreement_sweep(n: int, trials: int, seed: int) -> AgreementStats:
    """Compare the criterion against full enumeration on random directions.

    Samples uniform points on the sphere, skips those whose smallest
    |<eps, u>| falls below SKIP_TOL (the criterion promises nothing
    there), and counts agreements between the product test and the
    exhaustive inside-vertex search. Disagreements are counted, not
    raised; the test suite asserts the count is zero. Trials pass through
    the kernel in groups that fill one chunk of _blocks.
    """
    agreements = skips = disagreements = satisfied_count = 0
    group = max(1, (1 << BLOCK_BITS) >> max(n, 0))  # n < 1: sample_sphere rejects it
    for t0 in range(0, trials, group):
        ts = range(t0, min(t0 + group, trials))
        us = [sample_sphere(n, seed, index=t) for t in ts]
        tables = _tables(_snap(np.stack([u.coords for u in us])), DEFAULT_LIMIT)
        inf_norm, abs_ip = np.full((2, len(us)), np.inf)
        for d0, _, s, infs in _blocks(tables):
            d = slice(d0, d0 + len(s))
            np.minimum(inf_norm[d], infs.min(axis=(1, 2)), out=inf_norm[d])
            np.minimum(abs_ip[d], np.abs(s).min(axis=(1, 2)), out=abs_ip[d])
        for u, norm, ip in zip(us, inf_norm.tolist(), abs_ip.tolist()):
            if ip < SKIP_TOL:
                skips += 1
                continue
            satisfied = criterion_product(u) <= 2.0 + CRITERION_TOL
            satisfied_count += int(satisfied)
            if satisfied == (norm <= 1.0 + INSIDE_TOL):
                agreements += 1
            else:
                disagreements += 1
    return AgreementStats(
        n, trials, seed, agreements, skips, disagreements, satisfied_count
    )
