"""``repro.storage`` — the unified persistence subsystem.

The paper's SSD discussion (§6.1) assumes the index is "constructed in the
offline step and dumped to SSD at once" and then queried in place; this
package is that lifecycle made real, for both halves of the paper:

* **static bundles** (:mod:`~repro.storage.bundle`) persist an offline
  :class:`~repro.search.searcher.InvertedIndex` as a directory of plain
  ``.npy`` arrays plus its tokenized collection.  Opened with
  ``mmap=True`` the posting-list payloads are served zero-copy off
  memory-mapped files — N fork workers or N processes share one on-disk
  copy through the page cache instead of N eager heap copies.
* **dynamic bundles** snapshot a
  :class:`~repro.search.dynamic.DynamicInvertedIndex` state-exactly
  (compressed region + uncompressed buffer per list) and journal every
  later ``add()`` to an append log that ``open`` replays — ingest
  survives restarts.
* **compaction** (:mod:`~repro.storage.compaction`) seals the online
  two-region lists into offline CSS blocks with the paper's Algorithm-2
  dynamic program — same ids, optimal layout, still appendable.

Entry points for applications are ``SimilarityEngine.save`` / ``.open`` /
``.compact``; the functions here are the engine-free core.
"""

from .bundle import (
    BUNDLE_KIND,
    BUNDLE_VERSION,
    open_index,
    read_manifest,
    save_index,
)
from .check import check_bundle, check_path
from .compaction import CompactionStats, compact_index, compact_list

__all__ = [
    "BUNDLE_KIND",
    "BUNDLE_VERSION",
    "CompactionStats",
    "check_bundle",
    "check_path",
    "compact_index",
    "compact_list",
    "open_index",
    "read_manifest",
    "save_index",
]
