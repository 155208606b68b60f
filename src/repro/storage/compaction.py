"""Online→offline compaction: seal two-region lists into CSS blocks.

A :class:`~repro.search.dynamic.DynamicInvertedIndex` accumulates posting
ids through the online seal policies (Fix/Vari/Adapt/Model), whose block
boundaries are whatever the streaming heuristic happened to pick.  The
compaction pass replays each list through the paper's Algorithm-2 dynamic
program (:func:`repro.compression.partition.optimal_partition`) — the same
partitioner the offline CSS index uses — and rebuilds the compressed
region with the space-optimal boundaries, emptying the uncompressed
buffer into blocks as it goes.

The list objects themselves survive (same identities, new stores), so the
index stays appendable and every searcher keeps working; only the layout
changes, never the decoded ids.  Lists whose scheme is uncompressed *by
contract* (``compactable = False``, i.e. the ``uncomp`` baseline) are
skipped and counted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

from ..compression.css import CSSList

__all__ = ["CompactionStats", "compact_index", "compact_list"]


@dataclass
class CompactionStats:
    """What one compaction pass did, for logs and benchmark records."""

    lists_compacted: int = 0
    lists_skipped: int = 0
    postings: int = 0
    bits_before: int = 0
    bits_after: int = 0
    seconds: float = 0.0

    @property
    def bits_saved(self) -> int:
        return self.bits_before - self.bits_after

    def __str__(self) -> str:
        return (
            f"compacted {self.lists_compacted} lists "
            f"({self.lists_skipped} skipped, {self.postings} postings) "
            f"in {self.seconds:.3f}s: "
            f"{self.bits_before / 8 / 1024:.1f} KiB -> "
            f"{self.bits_after / 8 / 1024:.1f} KiB"
        )


def compact_list(lst: Any) -> bool:
    """Re-partition one online list in place; ``False`` if it opted out.

    Decodes the list once, builds the offline CSS list over the full id
    sequence and adopts its store through ``load_state`` with an empty
    buffer — the buffered tail is folded into the optimal blocks.
    """
    if not getattr(lst, "compactable", False):
        return False
    lst.load_state(CSSList(lst.to_array()).store, [])
    return True


def compact_index(index: Any) -> CompactionStats:
    """Compact every posting list of a dynamic index (in place).

    Works on anything exposing a ``lists`` mapping of online lists —
    in practice :class:`~repro.search.dynamic.DynamicInvertedIndex`.
    Returns the aggregated :class:`CompactionStats`.
    """
    stats = CompactionStats()
    started = time.perf_counter()
    for lst in index.lists.values():
        before = lst.size_bits()
        if not compact_list(lst):
            stats.lists_skipped += 1
            continue
        stats.lists_compacted += 1
        stats.postings += len(lst)
        stats.bits_before += before
        stats.bits_after += lst.size_bits()
    stats.seconds = time.perf_counter() - started
    return stats
