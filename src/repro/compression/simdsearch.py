"""SIMD-style k-ary search over sorted arrays (§6.2.2).

The paper's SIMD discussion: organize metadata so one vector instruction
compares the search key against ``k`` separators at once (k-ary search,
Schlegel et al.), descending into one of ``k+1`` partitions per step —
``log_k`` steps instead of ``log_2``.

numpy broadcasting is CPython's vector unit, so the faithful analog is a
loop that compares the key against ``k`` evenly spaced pivots in one
vectorized expression per step.  :class:`KarySearcher` instruments the step
count so tests and the benches can verify the ``log_k`` depth.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = ["KarySearcher"]


class KarySearcher:
    """k-ary lower-bound search with step instrumentation."""

    def __init__(self, sorted_values: Sequence[int], k: int = 16) -> None:
        if k < 2:
            raise ValueError(f"k must be >= 2, got {k}")
        self._values = np.asarray(sorted_values, dtype=np.int64)
        if self._values.size > 1 and not (np.diff(self._values) >= 0).all():
            raise ValueError("KarySearcher requires a sorted array")
        self.k = k
        self.steps = 0  # instrumentation: vector comparisons issued

    def __len__(self) -> int:
        return int(self._values.size)

    def lower_bound(self, key: int) -> int:
        """Index of the first value ``>= key``."""
        lo, hi = 0, int(self._values.size)  # search in [lo, hi)
        while hi - lo > self.k:
            self.steps += 1
            pivots_idx = np.linspace(lo, hi - 1, self.k, dtype=np.int64)
            # one vectorized comparison against k separators (the "SIMD op")
            smaller = int((self._values[pivots_idx] < key).sum())
            if smaller == 0:
                return lo
            if smaller == self.k:
                lo = int(pivots_idx[-1]) + 1
                continue
            lo = int(pivots_idx[smaller - 1]) + 1
            hi = int(pivots_idx[smaller]) + 1
        if hi > lo:
            self.steps += 1
            tail = self._values[lo:hi]
            return lo + int((tail < key).sum())
        return lo

    def expected_depth(self) -> int:
        """The ``ceil(log_k n)`` bound the layout is designed for."""
        size = max(2, int(self._values.size))
        return max(1, math.ceil(math.log(size, self.k)))
