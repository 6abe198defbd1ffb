"""Projections of hypercube vertices onto central hyperplane sections.

The cube is [-1, 1]^n and its vertices are the 2^n sign vectors. For a
unit direction u, pi_u(x) = x - <x, u> u is the orthogonal projection
onto the hyperplane through the origin orthogonal to u, and a vertex
lands inside the central section of the cube exactly when its projected
sup-norm is at most 1. The decision quantity throughout the library is
the product ||u||_1 * ||u||_inf with threshold 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatch


def _exact_l2(v: np.ndarray) -> np.ndarray:
    # exactly rounded norms of the rows along the last axis, kept as an axis
    # of length 1 to broadcast: fsum cannot depend on coordinate order or
    # signs, so normalization is permutation-invariant
    rows = (v * v).reshape(-1, v.shape[-1]).tolist()
    return np.sqrt(np.array([math.fsum(r) for r in rows]).reshape(*v.shape[:-1], 1))


def _pow2_scaled(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Dividing by a power of two is exact. Bringing each row's max|v| into
    # [0.5, 1) keeps the squares summed afterwards clear of overflow and
    # underflow over the whole float64 range.
    e = np.frexp(np.abs(v).max(axis=-1, keepdims=True))[1]
    return np.ldexp(v, -e), e


def _unit_rows(v: np.ndarray) -> np.ndarray:
    """Each row of v (finite, not all zero) divided by its exactly rounded
    Euclidean norm, after its own power-of-two scaling: a stack of T rows
    gives the bits of T UnitVectors."""
    w, _ = _pow2_scaled(v)
    return w / _exact_l2(w)


def l2_norm(v: np.ndarray) -> float:
    """Exactly rounded Euclidean norm of a finite vector, computed without
    intermediate overflow or underflow; inf only if the norm itself lies
    beyond the float64 range."""
    w, e = _pow2_scaled(np.asarray(v, dtype=np.float64))
    with np.errstate(over="ignore"):
        return float(np.ldexp(_exact_l2(w), e)[0])


@dataclass(frozen=True, eq=False)
class UnitVector:
    """A direction on the unit sphere; construction normalizes.

    Accepts any finite nonzero vector and divides by its Euclidean norm,
    so raw Gaussian samples can be passed directly. Rejects only the
    zero vector and non-finite entries. Scaling the input by a power of
    two leaves the result unchanged, bit for bit.
    """

    coords: np.ndarray

    def __post_init__(self):
        v = np.array(self.coords, dtype=np.float64)
        if v.ndim != 1 or v.size < 1:
            raise DimensionMismatch("expected a 1-d vector with n >= 1")
        m = np.abs(v).max()  # nan or inf exactly when some entry is
        if not math.isfinite(m):
            raise ValueError("coordinates must be finite")
        if not m:
            raise ValueError("cannot normalize the zero vector")
        v = _unit_rows(v)
        v.flags.writeable = False
        object.__setattr__(self, "coords", v)

    @property
    def n(self) -> int:
        return self.coords.size


@dataclass(frozen=True, eq=False, slots=True)
class Vertex:
    """A cube vertex: a sign vector with every entry exactly +1 or -1."""

    signs: np.ndarray

    def __post_init__(self):
        # the values are checked before the cast, which would wrap 257 or
        # truncate 1.5 to a sign, and by comparison, which cannot overflow
        # (count_nonzero is a third of the cost of .all() on a short row)
        s = np.array(self.signs)
        if s.ndim != 1 or s.size < 1:
            raise DimensionMismatch("expected a 1-d sign vector with n >= 1")
        if np.count_nonzero((s == 1) | (s == -1)) != s.size:
            raise ValueError("vertex entries must be +1 or -1")
        s = s.astype(np.int8, copy=False)
        s.flags.writeable = False
        object.__setattr__(self, "signs", s)

    @property
    def n(self) -> int:
        return self.signs.size


@dataclass(frozen=True, eq=False)
class ShadowReport:
    """One vertex's projection: coordinates, sup-norm, inside verdict."""

    vertex: Vertex
    shadow: np.ndarray
    inf_norm: float
    inside: bool
    inner_product: float


@dataclass(frozen=True, eq=False)
class CriterionResult:
    """Outcome of the product test ||u||_1 * ||u||_inf <= 2."""

    product: float
    satisfied: bool
    witness: Vertex
    degenerate_zero_coords: bool


class Norms(NamedTuple):
    l1: float
    l2: float
    linf: float


def norms(u: UnitVector) -> Norms:
    """The three standard norms of u.

    l1 and l2 are accumulated with fsum, so permuting or sign-flipping
    the coordinates cannot change any returned value, not even in the
    last bit.
    """
    a = np.abs(u.coords)
    return Norms(math.fsum(a.tolist()), float(_exact_l2(u.coords)[0]), float(a.max()))


def criterion_product(u: UnitVector) -> float:
    """||u||_1 * ||u||_inf rounded to a float: the criterion's product.

    The l1 sum is exactly rounded, so permuting or sign-flipping the
    coordinates cannot change the product, not even in the last bit.
    """
    a = np.abs(u.coords)
    return math.fsum(a.tolist()) * float(a.max())


def _products_at_most(rows: np.ndarray, bound: float = 2.0) -> np.ndarray:
    """Whether ||r||_1 ||r||_inf <= bound, exactly, for each of T unit rows r,
    shape (T, n), by a filtered predicate (Shewchuk, DCG 18, 1997): the float
    product p is within about n 2^-53 p of the exact one, so where |p - bound|
    exceeds twice that p decides, and the exact sum decides the rest: each
    |x| is m 2^(e - 53) with an integer m < 2^53 (frexp), so the m of each
    run of one e in sorted order add up exactly in Python ints, and only
    the runs' sums become Fractions."""
    a = np.abs(rows)
    p = a.sum(axis=1) * a.max(axis=1)
    at_most = p <= bound
    near = np.abs(p - bound) <= p * (a.shape[1] * 2.0**-52)
    for i in np.flatnonzero(near) if near.any() else ():
        m, e = np.frexp(np.sort(a[i]))
        runs = np.flatnonzero(np.diff(e, prepend=e[0] - 1))
        parts = np.add.reduceat(np.ldexp(m, 53).astype(np.int64).astype(object), runs)
        total = sum(x * 2 ** Fraction(int(k) - 53) for x, k in zip(parts, e[runs]))
        at_most[i] = total * Fraction(a[i].max()) <= bound
    return at_most


def project(u: UnitVector, x: Sequence[float] | np.ndarray) -> np.ndarray:
    """Orthogonal projection of x onto the hyperplane orthogonal to u."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (u.n,):
        raise DimensionMismatch(f"point has shape {x.shape}, expected ({u.n},)")
    return x - float(np.dot(x, u.coords)) * u.coords


def canonical_vertex(u: UnitVector) -> Vertex:
    """The sign-matched vertex for u: -1 where u_k < 0, +1 elsewhere, zeros
    of either sign included. It is inside exactly when ||u||_1 ||u||_inf <= 2
    (shadow), and a vertex not orthogonal to u is inside only if it is."""
    return Vertex(np.where(u.coords < 0, -1, 1))


def shadow(u: UnitVector, eps: Vertex) -> ShadowReport:
    """Project the vertex eps along u and report where it landed. inside is
    exact on the stored floats: with t = eps u and S = sum t (fsum, so its
    sign and its zero are exact), |eps_k - S u_k| = |1 - S t_k| <= 1 means
    0 <= S t_k <= 2, so eps is inside iff S = 0 or every t_k has the sign of
    S and ||u||_1 ||u||_inf <= 2."""
    if eps.n != u.n:
        raise DimensionMismatch(f"vertex has n={eps.n}, direction has n={u.n}")
    t = eps.signs * u.coords
    ip = math.fsum(t.tolist())
    coords = eps.signs - ip * u.coords
    coords.flags.writeable = False
    inside = ip == 0.0 or (
        (math.copysign(1.0, ip) * t >= 0).all() and _products_at_most(u.coords[None])[0]
    )
    return ShadowReport(
        vertex=eps,
        shadow=coords,
        inf_norm=float(np.max(np.abs(coords))),
        inside=bool(inside),
        inner_product=ip,
    )


def shadow_norm_closed_form(u: UnitVector) -> float:
    """Sup-norm of the canonical vertex's shadow, without projecting.

    Signs of u are irrelevant (flip the matching vertex coordinate), so
    work with |u_k|: coordinate k contributes |1 - |u_k| * ||u||_1|, which
    is exactly 1 where u_k = 0, as that coordinate keeps its unit entry.
    """
    a = np.abs(u.coords)
    return float(np.max(np.abs(1.0 - a * math.fsum(a.tolist()))))


def criterion(u: UnitVector, criterion_tol: float = 0.0) -> CriterionResult:
    """Decide whether some vertex of the cube projects into the section.

    product is ||u||_1 * ||u||_inf rounded; satisfied compares the exact
    product of the stored floats with 2 + criterion_tol, inclusively, so at
    criterion_tol 0 it is shadow(u, witness).inside, and when it is False
    only a vertex orthogonal to u is inside. A negative criterion_tol shaves
    the boundary off in statistical runs.
    """
    return CriterionResult(
        product=criterion_product(u),
        satisfied=bool(_products_at_most(u.coords[None], 2.0 + criterion_tol)[0]),
        witness=canonical_vertex(u),
        degenerate_zero_coords=not u.coords.all(),
    )
