"""Exception types shared across the library, and the dimension guard."""

# 100 times the largest dimension any workload, test or demo uses. An
# n-dimensional direction costs O(n) memory, so the cap bounds it before
# anything is allocated.
MAX_DIMENSION = 2**20


class DimensionMismatch(ValueError):
    """Vector length does not match the ambient dimension."""


class DimensionTooLarge(ValueError):
    """Requested enumeration exceeds the configured dimension cap."""

    def __init__(self, n: int, limit: int):
        super().__init__(
            f"n={n} exceeds the enumeration cap of {limit} (2^n vertices)"
        )
        self.n = n
        self.limit = limit


class InvalidDimension(ValueError):
    """Dimension outside [low, MAX_DIMENSION]."""


def check_dimension(n: int, low: int = 1) -> None:
    """Raise InvalidDimension unless low <= n <= MAX_DIMENSION."""
    if not low <= n <= MAX_DIMENSION:
        raise InvalidDimension(f"need {low} <= n <= {MAX_DIMENSION}, got n={n}")


class NonConvergence(RuntimeError):
    """Iterative maximization never met its stopping rule.

    Carries the best value and point seen so the caller can still inspect
    the partial result.
    """

    def __init__(self, message: str, best_value=None, best_point=None):
        super().__init__(message)
        self.best_value = best_value
        self.best_point = best_point


class DegenerateSample(RuntimeError):
    """Gaussian draw collapsed to (numerically) zero length."""
