"""Verification phase: exact similarity checks with early termination.

After filtering, surviving candidate pairs are verified exactly.  For the
prefix-filter family the verification can resume *after* the matched prefix
positions and abort as soon as the remaining tokens cannot reach the
required overlap (the PPJoin-style optimization the Position Filter
enables) — :func:`verify_overlap_from` implements that.  A search, which
verifies every candidate from the start against one query, checks each
against the query's token set instead (:func:`overlap_reaches`).
"""

from __future__ import annotations

from typing import AbstractSet

import numpy as np

from .measures import required_overlap

__all__ = ["verify_pair", "verify_overlap_from", "overlap_reaches"]


def verify_pair(
    record_r: np.ndarray,
    record_s: np.ndarray,
    threshold: float,
    metric: str = "jaccard",
) -> bool:
    """Exact check ``SIM(r, s) >= threshold`` with overlap early termination."""
    needed = required_overlap(record_r.size, record_s.size, threshold, metric)
    return (
        verify_overlap_from(record_r, record_s, 0, 0, 0, needed) >= needed
    )


def verify_overlap_from(
    record_r: np.ndarray,
    record_s: np.ndarray,
    position_r: int,
    position_s: int,
    seed_overlap: int,
    needed: int,
) -> int:
    """Overlap of two sorted arrays starting at given positions.

    ``seed_overlap`` counts matches already found in the prefixes.  The merge
    aborts (returning a value < ``needed``) as soon as
    ``current + remaining < needed`` — the suffix cannot make up the deficit.
    """
    i, j = position_r, position_s
    nr, ns = record_r.size, record_s.size
    count = seed_overlap
    while i < nr and j < ns:
        remaining = min(nr - i, ns - j)
        if count + remaining < needed:
            return count  # certified failure: not enough tokens left
        a, b = record_r[i], record_s[j]
        if a == b:
            count += 1
            i += 1
            j += 1
        elif a < b:
            i += 1
        else:
            j += 1
    return count


def overlap_reaches(
    tokens: AbstractSet[int], record: np.ndarray, needed: int
) -> bool:
    """Whether ``record`` shares at least ``needed`` tokens with ``tokens``.

    For a sorted, duplicate-free ``record`` (a signature is a set) this is
    ``verify_overlap_from(query, record, 0, 0, 0, needed) >= needed`` with
    ``tokens`` the query's ids: one set intersection over Python ints in
    place of a merge that steps through numpy scalars one at a time.
    """
    return len(tokens.intersection(record.tolist())) >= needed
