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
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatch

# Absolute tolerances, read at call time. ZERO_TOL separates "coordinate
# is zero" from "coordinate is merely small", which matters because zero
# coordinates pin the projected entry at exactly +-1.
ZERO_TOL = 1e-13
INSIDE_TOL = 1e-12


def _row_fsum(x: np.ndarray) -> np.ndarray:
    # fsum is exactly rounded, so a row's sum cannot depend on coordinate
    # order or signs. Rows lie along the last axis.
    rows = x.reshape(-1, x.shape[-1]).tolist()
    return np.array([math.fsum(r) for r in rows]).reshape(x.shape[:-1])


def _exact_l2(v: np.ndarray) -> np.ndarray:
    # exactly rounded row norms, so normalization is permutation-invariant
    return np.sqrt(_row_fsum(v * v))


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
    return w / _exact_l2(w)[..., None]


def l2_norm(v: np.ndarray) -> float:
    """Exactly rounded Euclidean norm of a finite vector, computed without
    intermediate overflow or underflow; inf only if the norm itself lies
    beyond the float64 range."""
    w, e = _pow2_scaled(np.asarray(v, dtype=np.float64))
    with np.errstate(over="ignore"):
        return float(np.ldexp(_exact_l2(w), e[0]))


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
        if not np.all(np.isfinite(v)):
            raise ValueError("coordinates must be finite")
        if not v.any():
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
        s = np.array(self.signs, dtype=np.int8)
        if s.ndim != 1 or s.size < 1:
            raise DimensionMismatch("expected a 1-d sign vector with n >= 1")
        if not np.all(np.abs(s) == 1):
            raise ValueError("vertex entries must be +1 or -1")
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
    return Norms(float(_row_fsum(a)), float(_exact_l2(u.coords)), float(a.max()))


def criterion_product(u: UnitVector) -> float:
    """||u||_1 * ||u||_inf, the decision quantity of the criterion.

    The l1 sum is exactly rounded, so permuting or sign-flipping the
    coordinates cannot change the product, not even in the last bit.
    """
    return float(_criterion_products(u.coords))


def _criterion_products(rows: np.ndarray) -> np.ndarray:
    """criterion_product of each row of a stack of unit rows."""
    a = np.abs(rows)
    return _row_fsum(a) * a.max(axis=-1)


def project(u: UnitVector, x: Sequence[float] | np.ndarray) -> np.ndarray:
    """Orthogonal projection of x onto the hyperplane orthogonal to u."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (u.n,):
        raise DimensionMismatch(f"point has shape {x.shape}, expected ({u.n},)")
    return x - float(np.dot(x, u.coords)) * u.coords


def canonical_vertex(u: UnitVector) -> Vertex:
    """The sign-matched vertex for u.

    +1 wherever u_k > ZERO_TOL, -1 wherever u_k < -ZERO_TOL, and +1 at
    (near-)zero coordinates as a deterministic tie rule. Whenever any
    vertex projects inside the section, this one does.
    """
    return Vertex(np.where(u.coords < -ZERO_TOL, -1, 1).astype(np.int8))


def shadow(u: UnitVector, eps: Vertex) -> ShadowReport:
    """Project the vertex eps along u and report where it landed."""
    if eps.n != u.n:
        raise DimensionMismatch(f"vertex has n={eps.n}, direction has n={u.n}")
    e = eps.signs.astype(np.float64)
    ip = float(np.dot(e, u.coords))
    coords = e - ip * u.coords
    coords.flags.writeable = False
    inf_norm = float(np.max(np.abs(coords)))
    return ShadowReport(
        vertex=eps,
        shadow=coords,
        inf_norm=inf_norm,
        inside=bool(inf_norm <= 1.0 + INSIDE_TOL),
        inner_product=ip,
    )


def shadow_norm_closed_form(u: UnitVector) -> float:
    """Sup-norm of the canonical vertex's shadow, without projecting.

    Signs of u are irrelevant (flip the matching vertex coordinate), so
    work with |u_k|. A coordinate with u_k = 0 keeps its unit entry and
    contributes exactly 1; every other coordinate k contributes
    |1 - |u_k| * ||u||_1|. With a zero coordinate present the result
    collapses to max(1, |1 - ||u||_inf * ||u||_1|).
    """
    a = np.abs(u.coords)
    l1 = float(_row_fsum(a))
    nonzero = a > ZERO_TOL
    best = 0.0
    if nonzero.any():
        best = float(np.max(np.abs(1.0 - a[nonzero] * l1)))
    if not nonzero.all():
        best = max(best, 1.0)
    return best


def criterion(u: UnitVector, criterion_tol: float = 0.0) -> CriterionResult:
    """Decide whether some vertex of the cube projects into the section.

    For directions not orthogonal to any vertex, the product
    ||u||_1 * ||u||_inf <= 2 holds exactly when the canonical vertex's
    shadow stays inside, and when it fails no vertex lands inside. The
    threshold is inclusive; pass a negative criterion_tol to shave the
    boundary off in statistical runs.
    """
    product = criterion_product(u)
    return CriterionResult(
        product=product,
        satisfied=bool(product <= 2.0 + criterion_tol),
        witness=canonical_vertex(u),
        degenerate_zero_coords=bool(np.min(np.abs(u.coords)) <= ZERO_TOL),
    )
