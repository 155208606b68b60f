"""Introspection: layout statistics of compressed lists and indexes.

Answers the questions the paper's analysis keeps asking of a layout — how
many blocks, how wide are they, where do the bits go (metadata vs packed
deltas)?  Used by the ablation benches, the examples, and anyone tuning a
deployment ("is my data skewed enough for CSS to beat MILC?").
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List

from .base import ELEMENT_BITS, METADATA_BITS, SortedIDList
from .twolayer import TwoLayerList

__all__ = ["LayoutStats", "list_layout", "index_layout"]


@dataclass
class LayoutStats:
    """Where the bits of a two-layer list (or a whole index) go."""

    num_lists: int = 0
    num_elements: int = 0
    num_blocks: int = 0
    metadata_bits: int = 0
    data_bits: int = 0
    block_size_histogram: Dict[int, int] = field(default_factory=dict)
    width_histogram: Dict[int, int] = field(default_factory=dict)

    @property
    def total_bits(self) -> int:
        return self.metadata_bits + self.data_bits

    @property
    def uncompressed_bits(self) -> int:
        return ELEMENT_BITS * self.num_elements

    @property
    def compression_ratio(self) -> float:
        return self.uncompressed_bits / self.total_bits if self.total_bits else 1.0

    @property
    def metadata_fraction(self) -> float:
        """Share of the compressed size spent on metadata blocks.

        High values mean the lists are too short/fragmented for the
        two-layer layout to pay off — the regime check the examples use.
        """
        return self.metadata_bits / self.total_bits if self.total_bits else 0.0

    @property
    def average_block_size(self) -> float:
        return self.num_elements / self.num_blocks if self.num_blocks else 0.0

    @property
    def average_width(self) -> float:
        total = sum(w * c for w, c in self.width_histogram.items())
        count = sum(self.width_histogram.values())
        return total / count if count else 0.0

    def merge(self, other: "LayoutStats") -> None:
        self.num_lists += other.num_lists
        self.num_elements += other.num_elements
        self.num_blocks += other.num_blocks
        self.metadata_bits += other.metadata_bits
        self.data_bits += other.data_bits
        for size, count in other.block_size_histogram.items():
            self.block_size_histogram[size] = (
                self.block_size_histogram.get(size, 0) + count
            )
        for width, count in other.width_histogram.items():
            self.width_histogram[width] = (
                self.width_histogram.get(width, 0) + count
            )


def list_layout(lst: SortedIDList) -> LayoutStats:
    """Layout statistics for one list.

    Two-layer lists report their real block structure; other schemes are
    summarized as one opaque "block" so aggregate totals remain meaningful.
    """
    stats = LayoutStats(num_lists=1, num_elements=len(lst))
    if isinstance(lst, TwoLayerList):
        store = lst.store
        sizes = store.block_sizes()
        stats.num_blocks = store.num_blocks
        stats.metadata_bits = METADATA_BITS * store.num_blocks
        stats.data_bits = store.size_bits() - stats.metadata_bits
        stats.block_size_histogram = dict(Counter(sizes))
        stats.width_histogram = dict(Counter(store.block_widths()))
    else:
        stats.num_blocks = 1 if len(lst) else 0
        stats.data_bits = lst.size_bits()
        if len(lst):
            stats.block_size_histogram = {len(lst): 1}
    return stats


def index_layout(index: Any) -> LayoutStats:
    """Aggregated layout statistics over an inverted index's lists."""
    total = LayoutStats()
    for lst in index.lists.values():
        total.merge(list_layout(lst))
    return total


def format_histogram(histogram: Dict[int, int], buckets: List[int]) -> str:
    """Render a histogram bucketed at the given upper bounds."""
    counts = [0] * (len(buckets) + 1)
    for value, count in histogram.items():
        for i, bound in enumerate(buckets):
            if value <= bound:
                counts[i] += count
                break
        else:
            counts[-1] += count
    labels = [f"<={b}" for b in buckets] + [f">{buckets[-1]}"]
    return ", ".join(f"{label}: {count}" for label, count in zip(labels, counts))
