"""Largest value of the criterion product on the unit sphere.

The product l1(u) * sup(u) is invariant under permutations and sign
flips, so its maximum lives in the nonnegative orthant with one
designated largest coordinate. There it equals u_0 * (u_0 + ... +
u_{n-1}), whose constrained maximum has the closed form (sqrt(n) + 1)/2
attained at one heavy coordinate with the rest equal and light. The
numerical ascent exists to confirm that algebra independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence, check_dimension
from .geometry import UnitVector, criterion_product
from .measure import _draws

GRAD_TOL = 1e-11
MAX_ITERS = 100_000


@dataclass(frozen=True, eq=False)
class ExtremalResult:
    """Closed-form maximum for one dimension, with its attaining point."""

    n: int
    max_value: float
    maximizer: UnitVector
    achieved_value: float
    threshold_ok: bool


@dataclass(frozen=True, eq=False)
class AscentResult:
    """Outcome of projected gradient ascent from several starts."""

    n: int
    value: float
    point: UnitVector
    grad_norm: float
    iterations: int
    restarts_converged: int


def closed_form_max(n: int) -> float:
    check_dimension(n)
    return (math.sqrt(n) + 1.0) / 2.0


def maximizer(n: int) -> UnitVector:
    """The point attaining closed_form_max(n).

    One coordinate carries weight a = sqrt((1 + 1/sqrt(n)) / 2); the
    remaining n - 1 share the rest equally with b = 1 / (2 a sqrt(n)).
    Then a^2 + (n-1) b^2 = 1 and a * (a + (n-1) b) = (sqrt(n) + 1)/2.
    """
    check_dimension(n)
    r = math.sqrt(n)
    a = math.sqrt((1.0 + 1.0 / r) / 2.0)
    b = 1.0 / (2.0 * a * r)
    coords = np.full(n, b)
    coords[0] = a
    return UnitVector(coords)


def _tangent_gradient(w: np.ndarray, j: int, total: float) -> np.ndarray:
    # Riemannian gradient of w_j * (w_0 + ... + w_{n-1}) on the sphere;
    # total is that coordinate sum, rounded however the caller needs
    grad = np.full(w.size, w[j])
    grad[j] += total
    return grad - float(grad @ w) * w


def stationarity_residual(u: UnitVector) -> float:
    """Tangent gradient norm of the smooth surrogate at u.

    Folds u into the nonnegative orthant, designates its largest
    coordinate, and measures the Riemannian gradient of
    w_j * (w_0 + ... + w_{n-1}) on the sphere. Zero at the maximizer.
    """
    w = np.abs(u.coords)
    rg = _tangent_gradient(w, int(np.argmax(w)), math.fsum(w))
    return float(np.linalg.norm(rg))


def numerical_max(n: int, restarts: int = 8, seed: int = 0) -> AscentResult:
    """Maximize the criterion product by gradient ascent on the sphere.

    Each restart begins at a random nonnegative direction with the
    designated coordinate boosted, follows the Riemannian gradient of
    the surrogate with a fixed step, and renormalizes after every move.
    Raises NonConvergence (carrying the best point seen) if no restart
    drives the tangent gradient below GRAD_TOL within MAX_ITERS steps.
    Restart r starts from |g| for g the Gaussian draw r of seed, as
    measure draws it (_draws): the seed keys Philox, an int in [0, 2^64),
    and a draw of norm below MIN_GAUSS_NORM is drawn again from the next
    counter of its stream, where a fresh Philox keyed (seed, r) would have
    kept it.
    """
    draws = _draws(n, seed, range(restarts))
    if restarts < 1:
        raise ValueError(f"need restarts >= 1, got {restarts}")
    step = 0.1 / math.sqrt(n)

    runs = []  # each restart's (value, point, gn, iters)
    for g in draws:
        w = np.abs(g)
        w[0] += 1.0
        w /= np.linalg.norm(w)

        gn = np.inf
        it = 0
        for it in range(MAX_ITERS):
            rg = _tangent_gradient(w, 0, float(np.sum(w)))
            gn = float(np.linalg.norm(rg))
            if gn <= GRAD_TOL:
                break
            w = w + step * rg
            w /= np.linalg.norm(w)
        point = UnitVector(w)
        runs.append((criterion_product(point), point, gn, it))

    # max keeps the first of tied values: the earliest restart wins
    converged = [r for r in runs if r[2] <= GRAD_TOL]
    if not converged:
        fallback = max(runs, key=lambda r: r[0])  # best seen overall
        raise NonConvergence(
            f"no restart reached grad_tol={GRAD_TOL} within "
            f"{MAX_ITERS} iterations (n={n})",
            best_value=fallback[0],
            best_point=fallback[1],
        )
    best = max(converged, key=lambda r: r[0])
    return AscentResult(
        n=n,
        value=best[0],
        point=best[1],
        grad_norm=best[2],
        iterations=best[3],
        restarts_converged=len(converged),
    )


def threshold_dimension() -> int:
    """Largest n whose maximum still fits under the threshold 2."""
    n = 1
    while closed_form_max(n + 1) <= 2.0:
        n += 1
    return n


def summarize(n: int) -> ExtremalResult:
    point = maximizer(n)
    return ExtremalResult(
        n=n,
        max_value=closed_form_max(n),
        maximizer=point,
        achieved_value=criterion_product(point),
        threshold_ok=closed_form_max(n) <= 2.0,
    )
