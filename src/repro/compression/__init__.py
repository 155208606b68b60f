"""Inverted-list compression schemes (Chapters 2, 4, 5 of the paper).

Offline schemes (similarity search — the whole list is known up front):

* :class:`UncompressedList` — the ``Uncomp`` baseline,
* :class:`MILCList` — fixed-length two-layer blocks,
* :class:`CSSList` — variable-length DP-partitioned two-layer blocks,
* :class:`PForDeltaList` — gap packing with patched exceptions (sequential
  decode only),
* :class:`VByteList`, :class:`EliasFanoList`, :class:`RoaringList` —
  related-work codecs used by the ablation benches.

Online schemes live in :mod:`repro.compression.online`.
"""

from .base import ELEMENT_BITS, MAX_ELEMENT, METADATA_BITS, ListCursor, SortedIDList
from .bitpack import BitBuffer, width_for
from .css import CSSList
from .eliasfano import EliasFanoList
from .groupvarint import GroupVarintList
from .introspect import LayoutStats, index_layout, list_layout
from .karytree import EytzingerIndex
from .milc import DEFAULT_BLOCK_SIZE, MILCList
from .storage import DRAM, HDD, SSD, StorageDevice, estimate_lookup_us
from .partition import optimal_partition, partition_savings
from .pfordelta import PForDeltaList
from .roaring import RoaringList
from .simdsearch import KarySearcher
from .simple8b import Simple8bList
from .twolayer import TwoLayerList, TwoLayerStore, block_cost_bits, block_saving_bits
from .uncompressed import UncompressedList
from .validate import check_index, check_list
from .varbyte import VByteList

__all__ = [
    "ELEMENT_BITS",
    "METADATA_BITS",
    "MAX_ELEMENT",
    "SortedIDList",
    "ListCursor",
    "BitBuffer",
    "width_for",
    "UncompressedList",
    "MILCList",
    "CSSList",
    "PForDeltaList",
    "VByteList",
    "Simple8bList",
    "GroupVarintList",
    "KarySearcher",
    "EliasFanoList",
    "EytzingerIndex",
    "LayoutStats",
    "index_layout",
    "list_layout",
    "StorageDevice",
    "HDD",
    "SSD",
    "DRAM",
    "estimate_lookup_us",
    "check_list",
    "check_index",
    "RoaringList",
    "TwoLayerList",
    "TwoLayerStore",
    "block_cost_bits",
    "block_saving_bits",
    "optimal_partition",
    "partition_savings",
    "DEFAULT_BLOCK_SIZE",
]
