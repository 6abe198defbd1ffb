"""Exhaustive ground truth over all 2^n cube vertices.

The enumeration walks sign vectors in Gray-code order, so the signed sum
<eps, u> changes by a single +-2 u_k per step. To make that walk immune
to accumulation drift, the direction is first snapped to a dyadic grid
with 48 fractional bits: every signed sum of snapped coordinates is then
an integer multiple of 2^-48 well below 2^53 and therefore exact in
float64. Every enumeration order, block split, and the naive reference
consequently produce bit-identical verdicts. The snap moves each
coordinate by at most 2^-49, which is orders of magnitude below every
tolerance used here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooLarge
from .geometry import INSIDE_TOL, UnitVector, Vertex, criterion
from .measure import sample_sphere

QUANT_BITS = 48
DEFAULT_LIMIT = 28
BLOCK_BITS = 16
ORTHO_TOL = 1e-12
SKIP_TOL = 1e-9


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


def _signs_from_gray(g: np.ndarray, n: int) -> np.ndarray:
    # bit k of the Gray code set means coordinate k is -1
    bits = (g[:, None] >> np.arange(n, dtype=np.int64)) & 1
    return 1.0 - 2.0 * bits.astype(np.float64)


def _lex_codes(g: np.ndarray, n: int) -> np.ndarray:
    # rank of the sign pattern in lexicographic order with +1 before -1;
    # coordinate 0 is the most significant position
    bits = (g[:, None] >> np.arange(n, dtype=np.int64)) & 1
    weights = np.left_shift(1, np.arange(n - 1, -1, -1, dtype=np.int64))
    return bits @ weights

def _vertex_from_code(code: int, n: int) -> Vertex:
    bits = (code >> np.arange(n - 1, -1, -1, dtype=np.int64)) & 1
    return Vertex((1 - 2 * bits).astype(np.int8))


def _block_inner_products(uq: np.ndarray, i0: int, i1: int, n: int):
    """Gray codes and signed sums for vertex indices [i0, i1).

    The block head is summed from scratch; each later entry applies one
    +-2 u_k update, accumulated with cumsum. On snapped coordinates all
    of it is exact, so the result does not depend on the block split.
    """
    idx = np.arange(i0, i1, dtype=np.int64)
    g = idx ^ (idx >> 1)
    e = _signs_from_gray(g, n)
    s = np.empty(i1 - i0, dtype=np.float64)
    s[0] = float(e[0] @ uq)
    if i1 - i0 > 1:
        steps = idx[1:]
        low = steps & -steps
        k = np.frexp(low.astype(np.float64))[1] - 1  # trailing zeros, exact
        flipped_to = (g[1:] >> k) & 1
        deltas = 2.0 * uq[k] * (1.0 - 2.0 * flipped_to.astype(np.float64))
        s[1:] = s[0] + np.cumsum(deltas)
    return g, e, s


def _blocks(u: UnitVector, n_limit: int, shadows: bool = True):
    """Walk all 2^n vertices of the snapped direction, BLOCK_BITS at a time.

    Yields (gray codes, signed sums <eps, u>, shadow sup-norms) for each
    block; the sup-norms are None when shadows is false. Every oracle
    reduction runs over this one walk.
    """
    n = u.n
    if n > n_limit:
        raise DimensionTooLarge(n, n_limit)
    uq = _snap(u.coords)
    total = 1 << n
    block = 1 << min(BLOCK_BITS, n)
    for i0 in range(0, total, block):
        g, e, s = _block_inner_products(uq, i0, min(i0 + block, total), n)
        infs = None
        if shadows:
            infs = np.max(np.abs(e - s[:, None] * uq[None, :]), axis=1)
        yield g, s, infs


def enumerate_shadows(u: UnitVector, n_limit: int = DEFAULT_LIMIT) -> OracleVerdict:
    """Check all 2^n vertices and report the best shadow found.

    Ties in the minimal sup-norm are broken by the lexicographically
    smallest sign pattern (+1 sorts before -1). The verdict is a pure
    reduction over vertices, so it is identical for any block size.
    """
    n = u.n
    best_inf = np.inf
    best_code = None
    min_abs_ip = np.inf
    for g, s, infs in _blocks(u, n_limit):
        bmin = float(infs.min())
        if bmin <= best_inf:
            code = int(_lex_codes(g[infs == bmin], n).min())
            if bmin < best_inf:
                best_inf, best_code = bmin, code
            elif code < best_code:
                best_code = code
        min_abs_ip = min(min_abs_ip, float(np.min(np.abs(s))))

    return OracleVerdict(
        exists_inside=bool(best_inf <= 1.0 + INSIDE_TOL),
        best_vertex=_vertex_from_code(best_code, n),
        best_inf_norm=best_inf,
        vertices_checked=1 << n,
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
    return any(
        float(infs.min()) <= 1.0 + INSIDE_TOL for _, _, infs in _blocks(u, n_limit)
    )


def min_abs_inner_product(u: UnitVector, n_limit: int = DEFAULT_LIMIT) -> float:
    """Smallest |<eps, u>| over all sign vectors eps, computed exactly
    on the snapped direction. Skips the per-vertex shadow work."""
    return min(
        float(np.min(np.abs(s))) for _, s, _ in _blocks(u, n_limit, shadows=False)
    )


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
