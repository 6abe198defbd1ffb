"""How rare satisfying directions become as the dimension grows.

Sampling uses one Philox stream per sample, keyed by (seed, sample
index), so results are bit-identical no matter how the work is chunked
or ordered. Philox is counter-based: a draw is fixed by its key and
counter alone, so every draw (_draws, for sample_sphere, estimate, the
starts of extremal.numerical_max and the oracle's agreement_sweep, which
draws each group of trials into one array) goes through one generator per
thread, made on first use and re-keyed to each stream, which gives the bits
of a fresh one at a fraction of the cost.
The criterion product is scale invariant, so statistics are computed on
raw Gaussian vectors without normalizing each one.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import DegenerateSample, check_dimension
from .geometry import UnitVector

MAX_RETRIES = 100
MIN_GAUSS_NORM = 1e-8
MAX_SAMPLES = 2**24  # 128 MiB of products, and as much again to sort them
_THREAD = threading.local()  # .gen: the thread's generator, once it has drawn


@dataclass(frozen=True)
class MeasureEstimate:
    """Summary statistics of the criterion product for one dimension."""

    n: int
    samples: int
    seed: int
    frac_satisfying: float
    mean_product: float
    median_product: float
    q05: float
    q95: float
    growth_ratio: Optional[float]


def _gaussian(n: int, seed: int, index: int, retry: int, gen) -> np.ndarray:
    """Draw number retry of stream (seed, index): gen re-keyed to Philox key
    (seed, index) and counter (retry, 0, 0, 0) with an empty buffer
    (buffer_pos 4), so the draw advances the counter as a new generator's."""
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (retry, 0, 0, 0), "key": (seed, index)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return gen.standard_normal(n)


def _gaussian_nonzero(n: int, seed: int, index: int, gen) -> np.ndarray:
    for retry in range(MAX_RETRIES):
        g = _gaussian(n, seed, index, retry, gen)
        if math.sqrt(g.dot(g)) >= MIN_GAUSS_NORM:  # np.linalg.norm(g), bit for bit
            return g
    raise DegenerateSample(
        f"no usable Gaussian vector after {MAX_RETRIES} draws "
        f"(n={n}, seed={seed}, index={index})"
    )


def _check(n: int, *keys: int) -> None:
    """check_dimension(n), and each Philox key, seed or index, an int in [0, 2^64)."""
    check_dimension(n)
    for key in keys:
        if not (hasattr(key, "__index__") and 0 <= operator.index(key) < 1 << 64):
            raise ValueError(f"seed and index must be ints in [0, 2^64), got {key!r}")


def _draws(n: int, seed: int, indexes: Iterable[int]) -> Iterator[np.ndarray]:
    """_gaussian_nonzero(n, seed, i) for each i, through the calling
    thread's generator, re-keyed for every draw, so draws of interleaved
    calls keep their bits; n and seed are checked at the call, before
    anything is drawn."""
    _check(n, seed)
    gen = getattr(_THREAD, "gen", None)
    if gen is None:
        gen = _THREAD.gen = np.random.Generator(np.random.Philox(0))
    return (_gaussian_nonzero(n, seed, i, gen) for i in indexes)


def sample_sphere(n: int, seed: int, index: int = 0) -> UnitVector:
    """Uniform point on the unit sphere in dimension n.

    The (seed, index) pair addresses an independent stream, so
    sample_sphere(n, seed, i) is reproducible in isolation; no generator
    state is shared between samples.
    """
    _check(n, seed, index)
    return UnitVector(next(_draws(n, seed, (index,))))


def criterion_product_raw(g: np.ndarray) -> float:
    """Criterion product of g / ||g||_2, computed without normalizing."""
    a = np.abs(g)
    return float(a.sum() * a.max() / (g @ g))


def _nearest_rank(sorted_vals: np.ndarray, p: float) -> float:
    # classic nearest-rank definition: smallest value with cdf >= p
    k = max(1, math.ceil(p * sorted_vals.size))
    return float(sorted_vals[k - 1])


def estimate(n: int, samples: int, seed: int) -> MeasureEstimate:
    """Sample the criterion product and summarize its distribution.

    frac_satisfying counts products <= 2, the threshold's inclusive
    side. growth_ratio is median / sqrt(ln n), reported only for n >= 3
    where the normalization is meaningful.
    """
    check_dimension(n)
    if not 1 <= samples <= MAX_SAMPLES:
        raise ValueError(f"need 1 <= samples <= {MAX_SAMPLES}, got {samples}")
    draws = _draws(n, seed, range(samples))
    vals = np.fromiter(map(criterion_product_raw, draws), np.float64, samples)
    ordered = np.sort(vals)
    median = _nearest_rank(ordered, 0.5)
    ratio = median / math.sqrt(math.log(n)) if n >= 3 else None
    return MeasureEstimate(
        n=n,
        samples=samples,
        seed=seed,
        frac_satisfying=float(np.count_nonzero(vals <= 2.0) / samples),
        mean_product=float(np.mean(vals)),
        median_product=median,
        q05=_nearest_rank(ordered, 0.05),
        q95=_nearest_rank(ordered, 0.95),
        growth_ratio=ratio,
    )


def growth_scan(
    dims: Sequence[int], samples: int, seed: int
) -> list[MeasureEstimate]:
    """One estimate per dimension, for watching the median's drift upward."""
    for n in dims:
        check_dimension(n, 3)
    return [estimate(n, samples, seed) for n in dims]
