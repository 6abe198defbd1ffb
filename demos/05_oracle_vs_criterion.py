"""Trust, but enumerate.

The criterion is a two-number test; the oracle walks all 2^n vertices.
This demo races them against each other on random directions, then
visits the one family the criterion refuses to adjudicate: directions
exactly orthogonal to some vertex.
"""

import math
import time

import numpy as np

from cubeshadows import (
    UnitVector,
    agreement_sweep,
    enumerate_shadows,
    enumerate_shadows_naive,
    is_orthogonal_to_some_vertex,
    sample_sphere,
)

print("random directions, criterion vs exhaustive enumeration:")
print("  n   trials   agreements   skips   disagreements")
for n in (4, 8, 12):
    st = agreement_sweep(n, 400, seed=505)
    print(f"{st.n:>3}   {st.trials:>6}   {st.agreements:>10}   "
          f"{st.skips:>5}   {st.disagreements:>13}")

print("\ndirections orthogonal to a vertex (the skipped set):")
for coords in ([1.0, 1.0], [1.0, 1.0, 2.0], [1.0, 2.0, 3.0]):
    u = UnitVector(np.array(coords))
    v = enumerate_shadows(u)
    print(f"  {coords}: orthogonal vertex found = "
          f"{is_orthogonal_to_some_vertex(u)}, "
          f"min |<vertex, u>| = {v.min_abs_inner_product}")

u = UnitVector(np.array([1.0, 1.0, math.sqrt(2.0)]))
print(f"  [1, 1, sqrt(2)]: orthogonal vertex found = "
      f"{is_orthogonal_to_some_vertex(u)} (irrational ratios miss)")

print("\nracing the two enumeration kernels at n = 18:")
u = sample_sphere(18, seed=1)
t0 = time.perf_counter()
fast = enumerate_shadows(u)
t_fast = time.perf_counter() - t0
t0 = time.perf_counter()
slow = enumerate_shadows_naive(u)
t_slow = time.perf_counter() - t0
print(f"  meet-in-the-middle kernel: {t_fast:.3f}s, naive loop: {t_slow:.3f}s "
      f"({t_slow / t_fast:.0f}x)")
print(f"  identical verdicts: {fast.best_inf_norm == slow.best_inf_norm}")
