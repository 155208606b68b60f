"""The serving layer: a unified engine over index + searchers + cache.

``repro.engine`` is what a deployment talks to.  It owns an inverted index,
the searcher for the configured metric, a shared bounded LRU
:class:`DecodeCache` over posting-list decodes, and a reusable worker pool
for batched queries:

    from repro.engine import SimilarityEngine

    engine = SimilarityEngine(collection, scheme="css")
    result = engine.search("query string", 0.8)          # SearchResult
    batch = engine.search_batch(queries, 0.8, workers=4) # parallel

:meth:`SimilarityEngine.open` reopens a bundle saved with
:meth:`SimilarityEngine.save` or ``repro index``.

The decode cache is the piece the paper's two-layer layout motivates:
posting lists are stored bit-packed, and every decode costs real work — so
hot lists (Zipf token distributions make most workloads hot) are decoded
once and served as arrays to ScanCount/MergeSkip/DivideSkip, with ``obs``
counters for hits/misses/evictions/bytes.  (Joins keep their own per-join
decode memo and never touch this cache.)
"""

from .cache import CachedListView, DecodeCache
from .core import SimilarityEngine

__all__ = [
    "SimilarityEngine",
    "DecodeCache",
    "CachedListView",
]
