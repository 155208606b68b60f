"""The serving layer: a unified engine over index + searchers + cache.

``repro.engine`` is what a deployment talks to.  It owns an inverted index,
the searcher for the configured metric, a shared bounded LRU
:class:`DecodeCache` over posting-list decodes, and a reusable worker pool
for batched queries:

    from repro.engine import SimilarityEngine

    engine = SimilarityEngine(collection, scheme="css")
    result = engine.search("query string", 0.8)          # SearchResult
    batch = engine.search_batch(queries, 0.8, workers=4) # parallel

:class:`ShardedEngine` is the horizontally-partitioned variant: N shards,
each with its own index, searcher and decode cache; queries fan out and
merge with local→global id remapping, bit-identical to a single shard.
:func:`open_engine` reopens whichever of the two a saved bundle holds.

The decode cache is the piece the paper's two-layer layout motivates:
posting lists are stored bit-packed, and every decode costs real work — so
hot lists (Zipf token distributions make most workloads hot) are decoded
once and served as arrays to ScanCount/MergeSkip/DivideSkip, with ``obs``
counters for hits/misses/evictions/bytes.  (Joins keep their own per-join
decode memo and never touch this cache.)
"""

from .cache import CachedListView, DecodeCache
from .core import SimilarityEngine
from .sharded import ShardedEngine

__all__ = [
    "SimilarityEngine",
    "ShardedEngine",
    "open_engine",
    "DecodeCache",
    "CachedListView",
]


def open_engine(path, *, mmap: bool = True, **engine_kwargs):
    """Open the bundle directory at ``path`` with the engine that saved it.

    Reads the manifest kind once and returns
    :meth:`SimilarityEngine.open` or :meth:`ShardedEngine.open` of
    ``path``; ``engine_kwargs`` are the serving knobs both take
    (``algorithm``, ``metric``, ``cache_entries``).  Raises ``ValueError``
    for a path that holds no bundle of either kind.
    """
    from .. import storage

    kind = storage.read_manifest(path).get("kind")
    if kind == storage.BUNDLE_KIND:
        return SimilarityEngine.open(path, mmap=mmap, **engine_kwargs)
    if kind == storage.SHARDED_BUNDLE_KIND:
        return ShardedEngine.open(path, mmap=mmap, **engine_kwargs)
    raise ValueError(
        f"{path} is not an index bundle (manifest kind {kind!r}); save one "
        "with SimilarityEngine.save / ShardedEngine.save or "
        "`repro index CORPUS OUT`"
    )
