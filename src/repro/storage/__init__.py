"""``repro.storage`` — the unified persistence subsystem.

The paper's SSD discussion (§6.1) assumes the index is "constructed in the
offline step and dumped to SSD at once" and then queried in place; this
package is that lifecycle made real.  A bundle
(:mod:`~repro.storage.bundle`) persists an offline
:class:`~repro.search.searcher.InvertedIndex` as a directory of plain
``.npy`` arrays plus its tokenized collection.  Opened with ``mmap=True``
the posting-list payloads are served zero-copy off memory-mapped files —
N fork workers or N processes share one on-disk copy through the page
cache instead of N eager heap copies.  The online
:class:`~repro.search.dynamic.DynamicInvertedIndex` is in-memory only.

Entry points for applications are ``SimilarityEngine.save`` / ``.open``;
the functions here are the engine-free core.
"""

from .bundle import (
    BUNDLE_KIND,
    BUNDLE_VERSION,
    open_index,
    read_manifest,
    save_index,
)
from .check import check_bundle, check_path

__all__ = [
    "BUNDLE_KIND",
    "BUNDLE_VERSION",
    "check_bundle",
    "check_path",
    "open_index",
    "read_manifest",
    "save_index",
]
