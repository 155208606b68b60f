"""Set-based similarity measures and their filtering algebra.

Implements the metrics the paper targets (Jaccard, Cosine, Dice, Overlap)
over sorted token-id arrays, plus the bound arithmetic every filter uses:

* required overlap (Equation 3.1 generalized per metric),
* candidate length ranges,
* prefix lengths (Lemma 1).

All formulas follow the standard prefix-filtering literature (Chaudhuri et
al., Xiao et al.) the paper builds on.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "overlap",
    "jaccard",
    "cosine",
    "dice",
    "required_overlap",
    "required_overlaps",
    "required_overlap_array",
    "length_bounds",
    "prefix_length",
    "index_prefix_length",
]

_METRICS = ("jaccard", "cosine", "dice")


def overlap(left: np.ndarray, right: np.ndarray) -> int:
    """|left ∩ right| for sorted unique id arrays (linear merge)."""
    i = j = count = 0
    nl, nr = left.size, right.size
    lv, rv = left, right
    while i < nl and j < nr:
        a, b = lv[i], rv[j]
        if a == b:
            count += 1
            i += 1
            j += 1
        elif a < b:
            i += 1
        else:
            j += 1
    return count


def jaccard(left: np.ndarray, right: np.ndarray) -> float:
    """|L ∩ R| / |L ∪ R|; empty-vs-empty is defined as 1.0."""
    if left.size == 0 and right.size == 0:
        return 1.0
    shared = overlap(left, right)
    return shared / (left.size + right.size - shared)


def cosine(left: np.ndarray, right: np.ndarray) -> float:
    """|L ∩ R| / sqrt(|L| * |R|) (set semantics)."""
    if left.size == 0 or right.size == 0:
        return 1.0 if left.size == right.size else 0.0
    return overlap(left, right) / math.sqrt(left.size * right.size)


def dice(left: np.ndarray, right: np.ndarray) -> float:
    """2 |L ∩ R| / (|L| + |R|)."""
    if left.size == 0 and right.size == 0:
        return 1.0
    return 2 * overlap(left, right) / (left.size + right.size)


def _check_metric(metric: str) -> None:
    if metric not in _METRICS:
        raise ValueError(f"metric must be one of {_METRICS}, got {metric!r}")


def required_overlap(
    size_r: int, size_s: int, threshold: float, metric: str = "jaccard"
) -> int:
    """Minimum |Sig(r) ∩ Sig(s)| for SIM(r, s) >= threshold.

    For Jaccard this is Equation 3.1: ``ceil(t/(1+t) * (|r| + |s|))``.
    """
    _check_metric(metric)
    if metric == "jaccard":
        bound = threshold / (1 + threshold) * (size_r + size_s)
    elif metric == "cosine":
        bound = threshold * math.sqrt(size_r * size_s)
    else:  # dice
        bound = threshold / 2 * (size_r + size_s)
    return max(1, math.ceil(bound - 1e-9))


def required_overlaps(
    low: int, size_s: int, threshold: float, metric: str = "jaccard"
) -> "list[int]":
    """:func:`required_overlap` for every ``size_r`` in ``[low, size_s]``.

    Entry ``size_r - low`` is ``required_overlap(size_r, size_s, ...)``: the
    table a join probe indexes per candidate instead of re-deriving the bound.
    """
    return [
        required_overlap(size_r, size_s, threshold, metric)
        for size_r in range(low, size_s + 1)
    ]


def required_overlap_array(
    size_r, size_s, threshold, metric: str = "jaccard"
) -> np.ndarray:
    """:func:`required_overlap` over broadcast arrays of sizes (and
    thresholds), as ``int64``.

    The same float operations in the same order as the scalar function, so
    every entry is bit-identical to it.
    """
    _check_metric(metric)
    size_r = np.asarray(size_r, dtype=np.int64)
    size_s = np.asarray(size_s, dtype=np.int64)
    if metric == "jaccard":
        bound = threshold / (1 + threshold) * (size_r + size_s)
    elif metric == "cosine":
        bound = threshold * np.sqrt(size_r * size_s)
    else:  # dice
        bound = threshold / 2 * (size_r + size_s)
    return np.maximum(1, np.ceil(bound - 1e-9)).astype(np.int64)


def length_bounds(size: int, threshold: float, metric: str = "jaccard") -> "tuple[int, int]":
    """Inclusive range of |Sig(s)| a record may have to match a |Sig(r)| = size query."""
    _check_metric(metric)
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    if metric == "jaccard":
        low, high = threshold * size, size / threshold
    elif metric == "cosine":
        low, high = threshold * threshold * size, size / (threshold * threshold)
    else:  # dice
        low = threshold * size / (2 - threshold)
        high = size * (2 - threshold) / threshold
    return max(1, math.ceil(low - 1e-9)), math.floor(high + 1e-9)


def prefix_length(size: int, threshold: float, metric: str = "jaccard") -> int:
    """Probing-prefix length (Lemma 1 for Jaccard: ``floor((1 - t)|s|) + 1``).

    Two similar strings must share at least one token within each other's
    prefix of this length under the global order.
    """
    _check_metric(metric)
    if size == 0:
        return 0
    if metric == "jaccard":
        keep = math.ceil(threshold * size - 1e-9)
    elif metric == "cosine":
        keep = math.ceil(threshold * threshold * size - 1e-9)
    else:  # dice
        keep = math.ceil(threshold * size / (2 - threshold) - 1e-9)
    return min(size, size - keep + 1)


def index_prefix_length(size: int, threshold: float, metric: str = "jaccard") -> int:
    """Indexing-prefix length for self-joins.

    For a self-join it suffices to index ``|s| - ceil(2t/(1+t) |s|) + 1``
    tokens (Jaccard; Xiao et al.): both sides of a pair are probed, so the
    indexed prefix can assume the partner is at least as long.
    """
    _check_metric(metric)
    if size == 0:
        return 0
    if metric == "jaccard":
        keep = math.ceil(2 * threshold / (1 + threshold) * size - 1e-9)
    elif metric == "cosine":
        keep = math.ceil(threshold * size - 1e-9)
    else:  # dice
        keep = math.ceil(threshold * size / (2 - threshold) - 1e-9)
    return max(0, min(size, size - keep + 1))
