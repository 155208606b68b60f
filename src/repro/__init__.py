"""CSS — Compressed String Similarity search and join.

Reproduction of *"Highly Efficient String Similarity Search and Join over
Compressed Indexes"* (Xiao, Wang, Lin, Zaniolo; ICDE 2022).

Quick tour
----------

Offline (similarity search)::

    from repro import SimilarityEngine, tokenize_collection

    coll = tokenize_collection(strings, mode="qgram", q=3)
    engine = SimilarityEngine(coll, scheme="css")  # or uncomp / milc / pfordelta
    hits = engine.search("query string", 0.8)      # frozen SearchResult
    batch = engine.search_batch(queries, 0.8, workers=4)

Online (similarity join)::

    from repro import PositionFilterJoin

    join = PositionFilterJoin(coll, scheme="adapt")  # or uncomp / fix / vari
    pairs = join.join(0.8)
    print(join.last_stats.index_mb)

Subpackages
-----------

* :mod:`repro.compression` — offline codecs (Uncomp, MILC, CSS, PForDelta, …)
  and the online two-region lists (Fix, Vari, Adapt, Model),
* :mod:`repro.core` — the scheme registry and its factories,
* :mod:`repro.similarity` — tokenizers, measures, verification,
* :mod:`repro.search` — SSS engines (ScanCount / MergeSkip / DivideSkip),
* :mod:`repro.join` — SSJ engines (Count / Prefix / Position / Segment),
* :mod:`repro.datasets` — seeded synthetic workloads,
* :mod:`repro.bench` — the Chapter 7 harness behind ``repro report`` and
  ``benchmarks/``.
"""

from .compression import (
    CSSList,
    EliasFanoList,
    MILCList,
    PForDeltaList,
    RoaringList,
    SortedIDList,
    UncompressedList,
    VByteList,
)
from .compression.online import AdaptList, FixList, ModelList, VariList
from .core import offline_factory, online_factory, register_scheme
from .datasets import load_dataset
from .engine import DecodeCache, SimilarityEngine
from .join import (
    CountFilterJoin,
    PrefixFilterRSJoin,
    PositionFilterJoin,
    PrefixFilterJoin,
    SegmentFilterJoin,
)
from .search import (
    EditDistanceSearcher,
    InvertedIndex,
    JaccardSearcher,
    SearchResult,
    SearchStats,
)
from .similarity import (
    edit_distance,
    jaccard,
    tokenize_collection,
    tokenize_pair,
)

__version__ = "1.0.0"

__all__ = [
    "SortedIDList",
    "UncompressedList",
    "MILCList",
    "CSSList",
    "PForDeltaList",
    "VByteList",
    "EliasFanoList",
    "RoaringList",
    "FixList",
    "VariList",
    "AdaptList",
    "ModelList",
    "offline_factory",
    "online_factory",
    "register_scheme",
    "SimilarityEngine",
    "DecodeCache",
    "SearchResult",
    "SearchStats",
    "tokenize_collection",
    "jaccard",
    "edit_distance",
    "InvertedIndex",
    "JaccardSearcher",
    "EditDistanceSearcher",
    "CountFilterJoin",
    "PrefixFilterJoin",
    "PositionFilterJoin",
    "SegmentFilterJoin",
    "PrefixFilterRSJoin",
    "tokenize_pair",
    "load_dataset",
    "__version__",
]
