"""Integrity checking for compressed lists and indexes (ops tooling).

Lossless compression is a *requirement* in the paper (Chapter 1, (iii)) —
a corrupted or miscompressed posting list silently produces wrong join
results.  These checkers verify the observable contract of any
:class:`~repro.compression.base.SortedIDList` (sortedness, uniqueness,
random-access/decode agreement, lower-bound consistency) plus the two-layer
structural invariants, returning a list of human-readable violations.

Used after deserialization, in debugging sessions, and by the test suite's
fuzzers.
"""

from __future__ import annotations

from typing import Any, List

import numpy as np

from .base import MAX_ELEMENT, SortedIDList
from .twolayer import TwoLayerList

__all__ = ["check_list", "check_index"]


def check_list(lst: SortedIDList, sample: int = 64) -> List[str]:
    """Violations of the sorted-id-list contract (empty list = healthy).

    Corruption can make the accessors themselves raise; any exception during
    checking is itself reported as a violation rather than propagated.
    """
    try:
        return _check_list(lst, sample)
    # repro: noqa RA07 -- diagnostics must not crash; any failure is a finding
    except Exception as error:
        return [f"checker raised {type(error).__name__}: {error}"]


def _check_list(lst: SortedIDList, sample: int) -> List[str]:
    issues: List[str] = []
    # structural invariants first: if the layout itself is broken, decoding
    # is unreliable and the contract checks would only add noise
    if isinstance(lst, TwoLayerList):
        issues.extend(str(error) for error in lst.store.check())
        if issues:
            return issues
    decoded = lst.to_array()
    if decoded.size != len(lst):
        issues.append(
            f"decode length {decoded.size} != reported length {len(lst)}"
        )
    if decoded.size:
        if int(decoded[0]) < 0 or int(decoded[-1]) > MAX_ELEMENT:
            issues.append("ids outside the 32-bit universe")
        if decoded.size > 1 and not (np.diff(decoded) > 0).all():
            issues.append("ids not strictly increasing")

    rng = np.random.default_rng(0)
    if decoded.size:
        probes = rng.integers(0, decoded.size, size=min(sample, decoded.size))
        for index in np.unique(probes).tolist():
            if lst[index] != int(decoded[index]):
                issues.append(
                    f"random access disagrees with decode at {index}"
                )
                break
        for index in np.unique(probes).tolist():
            key = int(decoded[index])
            expected = int(np.searchsorted(decoded, key, side="left"))
            if lst.lower_bound(key) != expected:
                issues.append(f"lower_bound disagrees at key {key}")
                break
            if lst.supports_random_access and not lst.contains(key):
                issues.append(f"contains({key}) is False for a stored id")
                break
    if lst.size_bits() < 0:
        issues.append("negative size accounting")
    return issues


def check_index(index: Any, max_lists: int = 0) -> List[str]:
    """Violations across an inverted index's posting lists.

    ``max_lists`` bounds the work (0 = check everything); violations are
    prefixed with the offending token id.
    """
    issues: List[str] = []
    for checked, (token, lst) in enumerate(index.lists.items()):
        if max_lists and checked >= max_lists:
            break
        for issue in check_list(lst):
            issues.append(f"token {token}: {issue}")
    return issues
