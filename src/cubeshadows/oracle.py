"""Exhaustive ground truth over all 2^n cube vertices.

Exactness: the direction is first snapped to a dyadic grid with 48
fractional bits, which moves each coordinate by at most 2^-49. Every
signed sum <eps, u> is then a multiple of 2^-48 of size at most sqrt(n) +
n 2^-49, below 6.0001 up to MAX_LIMIT, exact in float64 in any summation
order. (Sums stay exact up to n = 1023, and the keys of min |<eps, u>|,
|s| 2^50 (+ 1), are integers below 2^53, exact in float64, while |s| < 8,
up to n = 63: DEFAULT_LIMIT bounds running time and MAX_LIMIT the size of
the half tables, not exactness.) Every split and the naive reference
therefore give bit-identical verdicts.

Tables: the enumeration meets in the middle (Horowitz and Sahni, JACM
1974). With t_k = eps_k u_k and s = sum t_k, |eps_k - s u_k| = |1 - s t_k|,
and t -> fl(1 - fl(s t)) is monotone, so the shadow sup-norm is attained
at max t_k or min t_k, bit for bit. Each half, A = u[:n//2] and B =
u[n//2:], tabulates (s, t_max, t_min) over its sign patterns as the same
pairing of its two quarters (_table), and a vertex is a pair of rows,
combined with O(1) work. A table of one direction is 1-D, one entry per
row. _pair pairs along the last axis, so the sweep's sums (_row_sums)
stack T directions on a leading axis through the same function. Partial
sums are exact, and max and min return an operand, numpy's the second on
a tie of +0 and -0, so the tables have the bits of one sign matrix per
half, zeros' signs included. Rows are in lexicographic order (+1 before
-1), so pair (a, b) has code a 2^|B| + b, the tie rule's order. A table
may carry its rows' codes as a fourth entry, A's shifted by |B| bits,
which _pair sums into the pair's code; its best vertex is its least norm
by the kernel's formula and the smallest code at that norm (_least).

Halving: row 2^k - 1 - a of a half negates row a and its sum, so the sums
of A and of B are closed under negation, and min |<eps, u>|, min |a + b|
over their pairs, is min ||a| - |b|| over the sums of the rows whose
leading sign is +1 (_sums), as min(|a + b|, |a - b|) = ||a| - |b||. The
callers that do not search take min |<eps, u>| so (_min_abs_sums), unless
a stack of T directions has n <= _WIDTH coordinates and T 2^(n-1) <=
2^BLOCK_BITS: then one matmul gives the whole direction's 2^(n-1)
leading-sign sums, which hold every vertex sum up to sign, and their
least |s| is min |<eps, u>| (_min_abs), with the bits of the sort's D
2^-48, as each sum is exact, and a zero +0 on both paths. The search
takes it from its nearest pairs (Search). The sums of up to _WIDTH
coordinates are one matmul with the signs, exact in any order, FMA
included, so only an exact zero's sign could change, which |.| drops.
Their keys, |a| 2^50 and |b| 2^50 + 1, are 0 and 1 mod 4, as each |s| is a
multiple of 2^-48; they are sorted as float64, which holds them exactly
(Exactness), then cast to int64. After one sort (_min_abs_sums), the
nearest A-B pair is adjacent, or has an adjacent A-B pair between them
whose gap is no larger. Adjacent keys of one half differ by a multiple of
4, and of opposite halves by d = 4 D + 1, A first (a tie |a| == |b| sorts
A first), or 4 D - 1, B first, for D = ||a| - |b|| in units of 2^-48: the
odd gaps are the A-B pairs', and (d + 1) >> 2 = D either way. Subtracting
2^62 from each odd gap puts them below every even gap in their own order,
so one plain min finds the nearest pair.

Sign lemma: only the sign-matched vertex eps = sign(u), and its negation,
which ties it bit for bit, can have a sup-norm below 1. Any other vertex
has a t that is zero, or t of both signs, so some t has fl(s t) <= 0, and
|1 - s t| >= 1 bit for bit. Where that vertex's norm is below 1
(roughly, the criterion product below 2), it is the best norm, and every
verdict takes that vertex, +1 first, with no search. _sign_matched gives
the norm by the kernel's formula on the coordinates as Python floats,
which round as numpy does, at a quarter of the cost of numpy calls on one
row; the vertex is built from its sign bits, as a code's is (_vertex).
enumerate_shadows and any_vertex_inside share one front end (_front): it
checks the caps, snaps, reads the floats, takes that norm and decides the
exact rule's sign-matched half. It stops before the classes are counted,
so a direction that vertex settles never counts them.

Search: otherwise, unless the whole direction has few multisets of t
(Classes), both half tables are put in order of s. Each A-row is paired
with the B-row just above -a (_nearest): as both tables are closed under
negation, and the pair (-a, -b) has the norm of (a, b) bit for bit, the
row just below -a pairs with a as the row just above a pairs with -a. So
these pairs give min |<eps, u>| exactly and, by the kernel's formula
(_norms), a bound beta at or above the best norm (_bound). Its domain: a
searched direction has a sign-matched norm of 1 or more, so by the sign
lemma beta >= 1, and n >= 2, as the one coordinate +-1 of n = 1 has the
norm 0, so neither half is empty. The kernel, _blocks, evaluates with
the same formula only the pairs that can reach a sup-norm <= beta
(_windows), so the minimum and all its ties survive. Each chunk, a run
of A-rows paired with a slice of B, yields its _least, and the least
(norm, code) of the chunks wins, so any chunk size gives the same
verdict. No pass is dense:
half tables whose pairs fit in one chunk make no more multisets than
that, which the whole table takes.

Classes: tables have only one row per distinct multiset of t
(_class_table). Exact sums give equal multisets bit-identical (s, t_max,
t_min), up to the sign of a zero that no norm or sum sees; each row
carries the smallest row of the full table with its multiset. Where the
whole direction has at most 2^BLOCK_BITS multisets, the product of c + 1
over its classes of c equal nonzero magnitudes (_classes, one dict lookup
per coordinate of the floats that _sign_matched reads), one table over
all n coordinates is the search: a row's smallest row is its vertex code,
the best vertex the table's _least, and min |<eps, u>| the least |s|.
maximizer(n) has 2n rows: the large
coordinate's 2 with the n rows of the n - 1 equal ones. Otherwise the
search builds each half table so, and as a code is a 2^|B| + b, the
smallest code among tied class pairs is that of their smallest rows: the
tie rule holds. any_vertex_inside needs only min |<eps, u>|: it takes the
least |s| of the rows' sums alone (_class_sums) where they number at most
2^(n - n//2), never more sums than the B half whose keys _min_abs sorts,
and _min_abs otherwise. Its bound is not 2^BLOCK_BITS, the chunk size of
a search it never runs: up to that size the sums cost more than _min_abs
on criterion-failing Gaussian directions.

Exact rule: some vertex has an exact shadow sup-norm <= 1 exactly when
min |<eps, uq>| = 0 or ||uq||_1 ||uq||_inf <= 2. Proof: if s = 0, the
shadow of eps is eps, of norm 1. If s > 0 (else negate eps), |1 - s t_k|
<= 1 means 0 <= s t_k <= 2, so no t_k is negative: eps is sign(u) off the
zero coordinates, s = ||uq||_1, and the norm is <= 1 exactly when s max
|uq_k| <= 2. The sign-matched norm decides that off 1, as rounding is
monotone: below 1 every fl(s t_k) < 2, so s t_k < 2, and above 1 some s
t_k > 2. At a norm of exactly 1, geometry._products_at_most decides it
exactly, as it does for geometry.shadow on the stored floats. _front
decides that half of the rule, and each query adds min |<eps, uq>| = 0.
No tolerance decides a flag, and no flag needs a search. best_inf_norm,
the kernel's float, is below 1 only if some vertex is inside and above 1
only if none is, but may round to 1 either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, islice

import numpy as np

from .errors import DimensionTooLarge
from .geometry import UnitVector, Vertex
from .geometry import _products_at_most, _unit_rows
from .geometry import criterion  # perfbench wraps oracle.criterion
from .measure import _draws
from .measure import sample_sphere  # perfbench wraps oracle.sample_sphere

QUANT_BITS = 48
DEFAULT_LIMIT = 28
MAX_LIMIT = 36  # half tables of 2^18 rows: oracle --vec 57,1,2,...,35 peaks at 76 MB
BLOCK_BITS = 14
_SLACK = 2.0**-50  # 8 unit roundoffs of float64
_LEAF = 10  # a table of at most this many coordinates reads _SIGNS
_WIDTH = 12  # and its sums alone, by one matmul, up to this many
_SIGNS = 1.0 - 2.0 * ((np.arange(1 << _WIDTH) >> np.arange(_WIDTH)[::-1, None]) & 1)


@dataclass(frozen=True, eq=False, slots=True)
class OracleVerdict:
    """Result of checking every vertex of the cube against the section."""

    exists_inside: bool
    best_vertex: Vertex
    best_inf_norm: float
    vertices_checked: int
    orthogonal_vertex_found: bool
    min_abs_inner_product: float


@dataclass(frozen=True, slots=True)
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
    # a power-of-two scale is exact, as ldexp's: nothing over- or underflows
    q = np.rint(coords * 2.0**QUANT_BITS) * 2.0**-QUANT_BITS
    q.flags.writeable = False
    return q


def _vertex(negated: np.ndarray) -> Vertex:
    """The vertex from its sign bits, bool or 0/1: -1 where set, else +1."""
    return Vertex(np.where(negated, -1, 1))


def _vertex_from_code(code: int, n: int) -> Vertex:
    """The vertex of a code, the tie rule's order: coordinate j is -1 when
    bit n-1-j of code is set, as in _table."""
    data = np.frombuffer(code.to_bytes((n + 7) // 8, "big"), np.uint8)
    return _vertex(np.unpackbits(data)[-n:])


def _table(u: np.ndarray):
    """(s, t_max, t_min), each of 2^k rows, over the sign patterns of the k
    coordinates u: row a sets coordinate j to -1 when bit (k-1-j) of a is
    set."""
    k = len(u)
    if k <= _LEAF:
        t = _SIGNS[_WIDTH - k :, : 1 << k] * u[:, None]
        return t.sum(0), t.max(0, initial=-np.inf), t.min(0, initial=np.inf)
    return _pair(_table(u[: k // 2]), _table(u[k // 2 :]))


def _row_sums(u: np.ndarray, lead: bool) -> np.ndarray:
    """The sums s of _table for each row of u, T directions of k
    coordinates, shape (T, 2^k), by one matmul with the signs up to _WIDTH
    coordinates, else as a pair of two halves; with lead, only those of its
    first half of rows, whose leading sign is +1, shape (T, 2^(k-1)), or
    the one sum 0 if k = 0."""
    k = u.shape[1]
    if k <= _WIDTH:
        return u @ _SIGNS[_WIDTH - k :, : max(1 << k >> lead, 1)]
    return _pair((_row_sums(u[:, : k // 2], lead),), (_row_sums(u[:, k // 2 :], False),))[0]


def _pair(lead, trail):
    """The table of every row of lead, the high bits, with every row of
    trail, along their last axis, so stacks of T directions pair row by
    row: outer sums of s, maxima of t_max and minima of t_min, and sums of
    the codes that a fourth entry may carry (the module's Tables)."""
    return tuple(
        op(x[..., :, None], y[..., None, :]).reshape(*x.shape[:-1], -1)
        for op, x, y in zip((np.add, np.maximum, np.minimum, np.add), lead, trail)
    )


def _check_limit(n: int, n_limit: int) -> None:
    """The caps, checked before anything of n coordinates is allocated."""
    if n_limit > MAX_LIMIT:
        raise ValueError(f"n_limit={n_limit} exceeds the ceiling of {MAX_LIMIT}")
    if n > n_limit:
        raise DimensionTooLarge(n, n_limit)


def _sums(uq: np.ndarray):
    """The leading-sign sums (_row_sums) of A = uq[:, :n//2] and of B, for
    T snapped directions uq, shape (T, n). An empty half is the one sum 0."""
    h = uq.shape[1] // 2
    return _row_sums(uq[:, :h], True), _row_sums(uq[:, h:], True)


def _classes(xs: list):
    """The classes of the k coordinates xs, floats, of a half or of the whole
    of one snapped direction: for each magnitude |x|, the bits of P, its
    coordinates with x > 0, and of N, those with x < 0, in coordinate order,
    coordinate j having bit k-1-j as in _table; and the number of distinct
    multisets of t = eps u, the rows of _class_table: the c + 1 counts of
    positive t in a class of c coordinates, and one row for the zeros."""
    bit, classes = 1 << len(xs), {}
    for x in xs:
        bit >>= 1
        # setdefault alone would build two lists for every coordinate
        signs = classes.get(abs(x)) or classes.setdefault(abs(x), ([], []))
        if x:  # zeros stay a class of no signs: one row, t = +-0, no bit set
            signs[x < 0].append(bit)
    return classes, math.prod(len(pos) + len(neg) + 1 for pos, neg in classes.values())


def _class_table(u: np.ndarray, classes: dict):
    """(s, t_max, t_min, row), each 1-D, for the coordinates u of a
    half or of the whole of one snapped direction, and their classes
    (_classes): one row per distinct multiset of t = eps u, and row the
    smallest row of the full table (_table) with that multiset, which for
    the whole direction is the smallest vertex code.

    The c coordinates of one magnitude m > 0 form a class: P and N. Its
    multisets are the counts p = 0..c of positive t: s = (2p - c) m, exact,
    t_max = m (-m if p = 0), t_min = -m (m if p = c), and the smallest row
    negates the last |P| - p of P if p <= |P|, else the last p - |P| of N.
    Zeros together are one row, t = 0. Classes have disjoint bits and pair
    like quarters (_pair); nonzero, distinct magnitudes are the plain build."""
    if len(classes) == len(u) and 0.0 not in classes:
        return (*_table(u), np.arange(1 << len(u)))
    tables = []
    for m, (pos, neg) in classes.items():
        c = len(pos) + len(neg)
        s = [(2 * p - c) * m for p in range(c + 1)]
        # bits of P[p:] for p <= |P|, then of the last 1, 2, ... of N
        rows = [*accumulate(reversed(pos), initial=0)][::-1]
        rows += accumulate(reversed(neg))
        table = np.array([s, [-m] + [m] * c, [-m] * c + [m]])
        tables.append((*table, np.array(rows)))
    return reduce(_pair, tables)


def _class_sums(classes: dict) -> np.ndarray:
    """The sums s of the rows of _class_table, in no particular order:
    (2p - c) m for p = 0..c in each class, added over the classes."""
    sizes = ((m, len(pos) + len(neg)) for m, (pos, neg) in classes.items())
    return reduce(np.add.outer, [np.arange(-c, c + 1, 2) * m for m, c in sizes])


def _distinct_tables(uq: np.ndarray):
    """The tables (s, t_max, t_min, code) of the halves of one snapped
    direction uq, shape (1, n), one row per distinct multiset of t
    (_class_table), 1-D, in order of s, and coded (the module's Tables)."""
    h = uq.shape[1] // 2
    halves = []
    for v, w in ((uq[0, :h], uq.shape[1] - h), (uq[0, h:], 0)):
        *table, rows = _class_table(v, _classes(v.tolist())[0])
        order = np.argsort(table[0])
        halves.append((*(x[order] for x in table), rows[order] << w))
    return halves


def _min_abs_sums(sa: np.ndarray, sb: np.ndarray) -> np.ndarray:
    """min ||a| - |b|| over sa[i] x sb[i] for each row i of two stacks of
    sums, exactly, from one sort of their keys and one min of their odd
    gaps (the module's Halving): min |<eps, u>| for _sums' halves. The keys
    are sorted as float64, which holds them exactly and sorts them faster
    than int64, and only then become integers for their gaps' parity."""
    keys = np.concatenate((sa, sb), axis=1)
    np.multiply(np.abs(keys, out=keys), 2.0 ** (QUANT_BITS + 2), out=keys)
    keys[:, sa.shape[1] :] += 1.0
    keys.sort(axis=1)
    keys = keys.astype(np.int64)
    gaps = keys[:, 1:] - keys[:, :-1]
    # the spent keys take the parity: a new array would pass 8 MiB at n = 36
    odd = np.bitwise_and(gaps, 1, out=keys[:, 1:])
    odd <<= 62
    gaps -= odd
    return ((gaps.min(1) + (1 << 62 | 1)) >> 2) * 2.0**-QUANT_BITS


def _min_abs(uq: np.ndarray) -> np.ndarray:
    """min |<eps, u>| for T snapped directions uq, shape (T, n), exactly:
    from one matmul of the whole direction's leading-sign sums where they
    fit in one chunk, else from one sort of the halves' (the module's
    Halving)."""
    t, n = uq.shape
    if n <= _WIDTH and t << (n - 1) <= 1 << BLOCK_BITS:
        return np.abs(_row_sums(uq, True)).min(1)
    return _min_abs_sums(*_sums(uq))


def _nearest(sa: np.ndarray, sb: np.ndarray) -> np.ndarray:
    """The index j of the row of the sorted sb just above each -a, a in sa,
    clipped to sb. Both tables are closed under negation, and the pair (-a,
    -b) has the norm of (a, b) bit for bit, so the row below -a, paired with
    a, is the row above a, paired with -a: these pairs hold the least |a + b|
    and the least norm of either. With A in order of s, the keys -a are
    sorted, and numpy starts each search from the last."""
    return np.clip(np.searchsorted(sb, -sa), 0, len(sb) - 1)


def _norms(s: np.ndarray, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """The kernel's formula, max(|1 - s hi|, |1 - s lo|): the sup-norms of
    vertices with sums s and extreme t hi and lo (the module's Tables), in
    place in hi and lo, which the caller owns: new arrays made the search
    15% slower at n = 20..24 and the n = 36 search peak 8 MiB higher. On
    one row its seven calls cost more than the work, so _sign_matched
    applies the formula to Python floats, with the same bits."""
    for t in (hi, lo):
        np.abs(np.subtract(1.0, np.multiply(s, t, out=t), out=t), out=t)
    return np.maximum(hi, lo, out=hi)


def _least(s, hi, lo, codes):
    """(norm, code) of the best vertex of a coded table, by the tie rule:
    its least norm (_norms, in place) and the smallest code at it."""
    norms = _norms(s, hi, lo)
    low = norms.min()
    return float(low), int(codes[norms == low].min())


def _sign_matched(xs: list) -> float:
    """The shadow sup-norm of the sign-matched vertex eps = sign(u) of one
    snapped direction, its coordinates xs as floats: t = |u|, and s their
    sum, exact in any order, in _norms' formula on Python floats, whose
    operations round as numpy's do, at a quarter of their cost on one row."""
    t = [abs(x) for x in xs]
    s = sum(t)
    return max(abs(1.0 - s * max(t)), abs(1.0 - s * min(t)))


def _bound(tables, matched: float):
    """(min |<eps, u>|, beta) of one direction whose sign-matched vertex
    has the norm matched, from each A-row paired with the B-row just above
    -a (_nearest): their least |s|, exactly, and beta the smallest norm
    (_norms) of them and of that vertex, each the norm of a vertex, so an
    upper bound at or above the best norm."""
    (sa, hia, loa, _), (sb, hib, lob, _) = tables
    j = _nearest(sa, sb)
    s = sa + sb[j]
    norms = _norms(s, np.maximum(hia, hib[j]), np.minimum(loa, lob[j]))
    return np.abs(s).min(), min(matched, float(norms.min()))


def _windows(tables, beta):
    """The range [start, stop) of B-rows, in order of s, that each A-row of
    one direction can pair with to reach a shadow sup-norm <= beta, found
    by binary search (the sorted-list trick of Horowitz and Sahni), for
    beta >= 1 and n >= 2, the search's domain (the module's Search).

    The sup-norm of a vertex is at least |1 - s t| for each of its own t_k,
    bit for bit, hence for t = t_max and t = t_min of its A-row. So s t lies
    in [1 - beta, 1 + beta]: s lies in an interval, and sb in that interval
    shifted by -sa. The interval is widened by _SLACK, relative to the sizes
    involved, which covers the roundings of |1 - s t|, of its ends and of
    the shift: the filter drops no pair whose norm is <= beta. The widened
    beta b is above 1, so 1 - b < 0 < 1 + b and every interval holds s = 0;
    a zero t, of either sign, gives the ends -inf and +inf, which bound
    nothing, so it needs no mask. No half is empty, so every t is finite. A
    row whose interval misses the sums of B gets start >= stop.
    """
    (sa, hia, loa, _), (sb, *_) = tables
    b = beta + (1.0 + beta) * _SLACK
    lo, hi = -np.inf, np.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        for t in (hia, loa):
            e0, e1 = (1.0 - b) / t, (1.0 + b) / t
            lo = np.maximum(lo, np.minimum(e0, e1))
            hi = np.minimum(hi, np.maximum(e0, e1))
    lo = lo - sa - (np.abs(lo) + np.abs(sa)) * _SLACK
    hi = hi - sa + (np.abs(hi) + np.abs(sa)) * _SLACK
    return np.searchsorted(sb, lo, "left"), np.searchsorted(sb, hi, "right")


def _runs(start, stop, cap):
    """Cuts rows, sorted by start, into runs [i, j) with the B-columns
    [start[i], max stop[i:j]): the longest aligned runs of a power-of-two
    length whose rows times columns fit in cap, else single rows. A sub-run
    fits whenever its run does (fewer rows, a later start, a lower stop),
    so each row's run has 2^(number of levels at which it fits) rows."""
    m = len(start)
    levels = max(m - 1, 0).bit_length()
    top = np.zeros(1 << levels, np.intp)  # max stop over each run of the level
    top[:m] = stop
    level = np.zeros(m, np.intp)
    for k in range(1, levels + 1):
        top = top.reshape(-1, 2).max(axis=1)
        first = np.arange(0, m, 1 << k)
        rows = np.minimum(first + (1 << k), m) - first
        fits = rows * (top[: len(first)] - start[first]) <= cap
        if not fits.any():
            break
        level += np.repeat(fits, 1 << k)[:m]
    i = np.flatnonzero((np.arange(m) & ((1 << level) - 1)) == 0)
    j = np.minimum(i + (1 << level[i]), m)
    cols = np.maximum.reduceat(stop, i)
    return list(zip(i.tolist(), j.tolist(), start[i].tolist(), cols.tolist()))


def _blocks(tables, beta):
    """Yields the best (norm, code) (_least) of each chunk of about
    2^BLOCK_BITS vertices of one direction, the chunks together holding
    every vertex whose sup-norm is <= beta: runs of A-rows, in order of
    their windows' starts (_windows), each paired (_pair) with the slice
    of B, in order of s, that its rows' windows span (_runs)."""
    start, stop = _windows(tables, beta)
    rows = np.flatnonzero(stop > start)
    rows = rows[np.argsort(start[rows], kind="stable")]
    a = [x[rows] for x in tables[0]]
    for i, j, c0, c1 in _runs(start[rows], stop[rows], 1 << BLOCK_BITS):
        yield _least(*_pair([x[i:j] for x in a], [x[c0:c1] for x in tables[1]]))


def _verdict(inside, best_inf, best_vertex: Vertex, min_abs_ip) -> OracleVerdict:
    return OracleVerdict(
        exists_inside=bool(inside),
        best_vertex=best_vertex,
        best_inf_norm=float(best_inf),
        vertices_checked=1 << best_vertex.n,
        orthogonal_vertex_found=bool(min_abs_ip == 0.0),
        min_abs_inner_product=float(min_abs_ip),
    )


def _front(u: UnitVector, n_limit: int):
    """The front end of the one-direction queries: the caps checked, the
    direction snapped, uq of shape (1, n), its coordinates xs as floats,
    the norm matched of its sign-matched vertex (_sign_matched), and the
    exact rule's sign-matched half, whether that vertex is inside. It
    counts no classes, so a direction that vertex settles never does."""
    _check_limit(u.n, n_limit)
    uq = _snap(u.coords[None])
    xs = uq[0].tolist()
    matched = _sign_matched(xs)
    inside = matched < 1.0 or (matched == 1.0 and _products_at_most(uq)[0])
    return uq, xs, matched, inside


def enumerate_shadows(u: UnitVector, n_limit: int = DEFAULT_LIMIT) -> OracleVerdict:
    """Report the best shadow over all 2^n vertices (vertices_checked), bit
    for bit the naive reference's, by the algorithm of the module docstring.
    Ties in the minimal sup-norm go to the lexicographically smallest sign
    pattern (+1 sorts before -1), at any BLOCK_BITS. n_limit may not exceed
    MAX_LIMIT."""
    uq, xs, matched, inside = _front(u, n_limit)
    if matched < 1.0:  # no zero coordinate: sign(uq) is a vertex, and inside
        best = _vertex(np.signbit(uq[0]) ^ (xs[0] < 0))
        return _verdict(True, matched, best, _min_abs(uq)[0])
    classes, multisets = _classes(xs)
    if multisets <= 1 << BLOCK_BITS:  # one row per multiset, no pairs
        table = _class_table(uq[0], classes)
        min_abs_ip = np.abs(table[0]).min()
        best_inf, best_code = _least(*table)
    else:
        tables = _distinct_tables(uq)
        min_abs_ip, beta = _bound(tables, matched)
        best_inf, best_code = min(_blocks(tables, beta))
    inside = inside or min_abs_ip == 0.0
    return _verdict(inside, best_inf, _vertex_from_code(best_code, u.n), min_abs_ip)


def enumerate_shadows_naive(u: UnitVector, n_limit: int = 20) -> OracleVerdict:
    """Reference enumeration: fresh O(n) work per vertex, nothing shared.

    Kept deliberately dumb so it can cross-check enumerate_shadows; on
    snapped coordinates the two are bit-identical. Each chunk is an
    explicit matrix of sign vectors in lexicographic order, projected in
    full; the first minimum wins, so ties go to the smallest code. A vertex
    whose float norm is not above 1 is inside when 0 <= S T_k <= 2^97 for
    every k, in integers: S = <eps, U>, T_k = eps_k U_k and U = uq 2^48.
    Unusable beyond small n, hence the lower default cap; n_limit may not
    exceed MAX_LIMIT, checked as enumerate_shadows checks it.
    """
    n = u.n
    _check_limit(n, n_limit)
    uq = _snap(u.coords)
    units = np.ldexp(uq, QUANT_BITS).astype(np.int64)
    # S T_k <= 2^97 for every k as |S| <= 2^97 // max |U_k|: S U_k overflows
    cap = (1 << 2 * QUANT_BITS + 1) // int(np.abs(units).max())
    shifts = np.arange(n - 1, -1, -1)
    rows = 1 << 14
    best_inf, best_code, min_abs_ip, inside = np.inf, None, np.inf, False
    for c0 in range(0, 1 << n, rows):
        codes = np.arange(c0, min(c0 + rows, 1 << n))
        bits = (codes[:, None] >> shifts) & 1
        signs = 1.0 - 2.0 * bits
        s = (signs * uq).sum(axis=1)
        infs = np.abs(signs - s[:, None] * uq).max(axis=1)
        i = int(np.argmin(infs))
        if infs[i] < best_inf:
            best_inf, best_code = float(infs[i]), c0 + i
        min_abs_ip = min(min_abs_ip, float(np.abs(s).min()))
        t = (1 - 2 * bits[infs <= 1.0]) * units  # a float norm above 1 is so exactly
        big = t.sum(axis=1)
        fits = (np.abs(big) <= cap) & (np.sign(big)[:, None] * t >= 0).all(axis=1)
        inside = inside or bool(fits.any())
    return _verdict(inside, best_inf, _vertex_from_code(best_code, n), min_abs_ip)


def any_vertex_inside(u: UnitVector) -> bool:
    """Boolean-only query, by the exact rule of the module docstring, with
    no search: O(n) where the sign-matched vertex decides it (_front), else
    whether min |<eps, u>| = 0, over the sums of the multisets of t where
    they number at most 2^(n - n//2), no more than the B half whose sums
    _min_abs sorts (_class_sums), else by _min_abs."""
    uq, xs, _, inside = _front(u, DEFAULT_LIMIT)
    if inside:
        return True
    classes, multisets = _classes(xs)
    if multisets <= 1 << ((len(xs) + 1) // 2):  # 2^|B|, |B| = n - n//2
        return bool(np.abs(_class_sums(classes)).min() == 0.0)
    return bool(_min_abs(uq)[0] == 0.0)


def min_abs_inner_product(u: UnitVector) -> float:
    """Smallest |<eps, u>| over all sign vectors eps, exactly, on the
    snapped direction."""
    _check_limit(u.n, DEFAULT_LIMIT)
    return float(_min_abs(_snap(u.coords[None]))[0])


def is_orthogonal_to_some_vertex(u: UnitVector) -> bool:
    """Whether some cube vertex has <eps, u> = 0 on the snapped direction.

    These directions form a measure-zero union of 2^(n-1) lower
    dimensional spheres; on them the criterion's guarantee is void, so
    callers use this to flag results rather than trust them.
    """
    return min_abs_inner_product(u) == 0.0


def agreement_sweep(n: int, trials: int, seed: int) -> AgreementStats:
    """Compare the criterion against full enumeration on random directions.

    Trial t is sample_sphere(n, seed, t). A trial orthogonal to some vertex,
    min |<eps, u>| = 0, is skipped (the criterion promises nothing there);
    the others count agreements of criterion with the exact inside verdict,
    bit for bit those of enumerate_shadows. Disagreements are counted, not
    raised. n, seed and the cap are checked before any draw, with no trials
    too. Trials go in groups of 2^BLOCK_BITS >> |B| rows, each drawn into one
    array and normalized in one pass, and none is searched: one exact-product
    call over the group's stored rows and their snapped rows decides the
    criterion on the first and, as a kept trial is inside exactly when its
    sign-matched vertex is (the module's exact rule), the verdict on the
    second. A group's min |<eps, u>| is one matmul of its whole directions'
    sums where they fit in one chunk, as for 8 trials up to n = 12, else
    one sort of its halves' sums (_min_abs): the same bits either way.
    """
    if trials < 0:
        raise ValueError(f"need trials >= 0, got {trials}")
    draws = _draws(n, seed, range(trials))
    _check_limit(n, DEFAULT_LIMIT)
    agreements = skips = satisfied_count = 0
    group = max(1, (1 << BLOCK_BITS) >> (n - n // 2))
    for _ in range(0, trials, group):
        us = _unit_rows(np.array(list(islice(draws, group))))
        uq = _snap(us)
        kept = _min_abs(uq) > 0.0
        stored, snapped = _products_at_most(np.concatenate((us, uq))).reshape(2, -1)
        # count_nonzero gives numpy ints: each would be an object of its own
        skips += len(us) - int(np.count_nonzero(kept))
        satisfied_count += int(np.count_nonzero(stored & kept))
        agreements += int(np.count_nonzero((stored == snapped) & kept))
    disagreements = trials - skips - agreements
    return AgreementStats(
        n, trials, seed, agreements, skips, disagreements, satisfied_count
    )
