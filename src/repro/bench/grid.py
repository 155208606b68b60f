"""The Chapter 7 grid: one function per DESIGN.md §4 row, in its order.

Each function takes the scale factor (and an optional per-cell query count)
and returns an :class:`~repro.bench.experiments.Experiment` whose tables are the
rows EXPERIMENTS.md records and whose ``cells`` are what the matching
``benchmarks/test_*.py`` asserts.  Absolute values are not expected to match
the paper (C++ on 10^6-10^7 records vs Python on 10^2-10^4); the shapes are.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..compression import CSSList, MILCList, PForDeltaList, UncompressedList
from ..compression.constants import METADATA_BITS, THEOREM_1_BUFFER
from ..compression.karytree import EytzingerIndex
from ..compression.online import VariList
from ..compression.storage import DRAM, HDD, SSD, estimate_lookup_us
from ..core.framework import online_factory
from ..datasets.synthetic import zipf_sets
from ..search import InvertedIndex, JaccardSearcher
from ..search.dynamic import DynamicInvertedIndex
from ..search.grouped import GroupedJaccardSearcher, LengthGroupedIndex
from ..similarity import tokenize_collection
from . import paper_numbers as paper
from .experiments import (
    JOIN_CARDINALITY,
    SEARCH_CARDINALITY,
    cached_dataset,
    experiment,
    join_dataset,
    run_join,
    run_search_queries,
    sample_queries,
    scaled,
    search_dataset,
    search_index,
    timed,
)

DATASETS = ["dblp", "tweet", "dna", "aol"]
SEARCH_SCHEMES = ["uncomp", "pfordelta", "milc", "css"]
JOIN_SCHEMES = ["uncomp", "fix", "vari", "adapt"]
FRACTIONS = [0.2, 0.4, 0.6, 0.8, 1.0]
#: Figure 7.2's five method combinations (scheme, T-occurrence algorithm)
COMBOS = [("uncomp", "scancount"), ("pfordelta", "scancount"),
          ("uncomp", "mergeskip"), ("milc", "mergeskip"), ("css", "mergeskip")]


def _thresholds(name: str, jaccard: List[float]) -> list:
    """AOL sweeps edit distance 1..3; the others ``jaccard``."""
    return [1, 2, 3] if name == "aol" else jaccard


def _percent_headers(first: str) -> List[str]:
    return [first] + [f"{int(f * 100)}%" for f in FRACTIONS]


@experiment("Table 7.1", "Statistics of datasets (measured vs paper)")
def table_7_1(exp, scale, queries):
    exp.cells = {name: search_dataset(name, scale).statistics for name in DATASETS}
    keys = ("average_length", "cardinality", "size_mb")
    exp.add(
        ["dataset", "avg len", "paper avg len", "cardinality", "paper card",
         "size MB", "paper MB"],
        [
            [name] + [v for k in keys for v in (s[k], paper.TABLE_7_1[name][k])]
            for name, s in exp.cells.items()
        ],
    )


@experiment("Table 7.2", "Index size, similarity search (MB)")
def table_7_2(exp, scale, queries):
    sizes = {
        name: {s: search_index(name, s, scale).size_mb for s in SEARCH_SCHEMES}
        for name in DATASETS
    }
    exp.add(
        ["dataset"] + SEARCH_SCHEMES + [f"paper {s}" for s in SEARCH_SCHEMES],
        [
            [name] + [sizes[name][s] for s in SEARCH_SCHEMES]
            + [paper.TABLE_7_2_MB[name][s] for s in SEARCH_SCHEMES]
            for name in DATASETS
        ],
    )
    exp.cells = sizes


@experiment("Figure 7.1", "Index build time, similarity search (s)")
def figure_7_1(exp, scale, queries):
    times: Dict[str, dict] = {}
    for name in DATASETS:
        collection = search_dataset(name, scale).collection
        times[name] = {
            s: timed(lambda: InvertedIndex(collection, scheme=s))[0]
            for s in SEARCH_SCHEMES
        }
    exp.add(
        ["dataset"] + SEARCH_SCHEMES,
        [[name] + [times[name][s] for s in SEARCH_SCHEMES] for name in DATASETS],
    )
    exp.notes.append("Paper shape: MILC ~ Uncomp, CSS slower (offline DP).")
    exp.cells = times


@experiment("Table 7.3", "Index size, similarity join (MB)")
def table_7_3(exp, scale, queries):
    rows = []
    for name in DATASETS:
        filter_name, threshold = paper.TABLE_7_3_SETUP[name]
        data = join_dataset(name, scale)
        exp.cells[name] = runs = {
            s: run_join(data, filter_name, s, threshold, 1) for s in JOIN_SCHEMES
        }
        rows.append(
            [f"{name}/{filter_name}@{threshold}"]
            + [runs[s].index_mb for s in JOIN_SCHEMES]
            + [paper.TABLE_7_3_MB[name][s] for s in JOIN_SCHEMES]
        )
    exp.add(
        ["workload"] + JOIN_SCHEMES + [f"paper {s}" for s in JOIN_SCHEMES], rows
    )


@experiment("Figure 7.2", "Query time, similarity search (ms/query)")
def figure_7_2(exp, scale, queries):
    for name in DATASETS:
        data = search_dataset(name, scale)
        picked = sample_queries(data, queries)
        thresholds = _thresholds(name, [0.65, 0.7, 0.75, 0.8, 0.85])
        exp.cells[name] = cells = {
            (scheme, algorithm, t): run_search_queries(
                search_index(name, scheme, scale).index,
                picked, t, algorithm, metric=data.metric,
            )
            for scheme, algorithm in COMBOS
            for t in thresholds
        }
        exp.add(
            ["method"] + [f"t={t}" for t in thresholds],
            [
                [("SC-" if algorithm == "scancount" else "MS-") + scheme]
                + [cells[(scheme, algorithm, t)]["ms"] for t in thresholds]
                for scheme, algorithm in COMBOS
            ],
            title=f"{name}, {len(picked)} queries",
        )
    quoted = paper.FIGURE_7_2_TWEET_MS
    exp.notes.append(
        f"Paper (Tweet, tau=0.75): MS-uncomp {quoted['uncomp_ms']} ms, "
        f"MS-milc {quoted['milc_ms']} ms, MS-css {quoted['css_ms']} ms."
    )


@experiment("Figure 7.3", "Join time, similarity join (s)")
def figure_7_3(exp, scale, queries):
    for name in DATASETS:
        filter_name, _ = paper.TABLE_7_3_SETUP[name]
        thresholds = _thresholds(name, [0.6, 0.7, 0.8, 0.9])
        data = join_dataset(name, scale)
        exp.cells[name] = cells = {
            (s, t): run_join(data, filter_name, s, t)
            for t in thresholds
            for s in JOIN_SCHEMES
        }
        exp.add(
            ["scheme"] + [f"t={t}" for t in thresholds],
            [[s] + [cells[(s, t)].time for t in thresholds] for s in JOIN_SCHEMES],
            title=f"{name}, {filter_name} filter",
        )
    exp.notes.append(
        f"Paper (DNA, Prefix Filter, tau=0.8): join seconds {paper.FIGURE_7_3_DNA_S}"
        " — shape: Vari slowest, Adapt ~ Uncomp."
    )


@experiment("Figure 7.4", "Scalability of index size (MB), 20%..100%")
def figure_7_4(exp, scale, queries):
    base = scaled(SEARCH_CARDINALITY["uniform"], scale)
    search: Dict[str, list] = {scheme: [] for scheme in SEARCH_SCHEMES}
    for fraction in FRACTIONS:
        data = cached_dataset("uniform", int(base * fraction))
        for scheme in SEARCH_SCHEMES:
            index = InvertedIndex(data.collection, scheme=scheme)
            search[scheme].append(index.size_mb())
    join = {}
    for filter_name in ("position", "count"):
        base = scaled(JOIN_CARDINALITY["zipf"], scale)
        if filter_name == "count":
            base = max(100, base // 2)  # the count filter indexes every token
        corpora = [cached_dataset("zipf", int(base * f)) for f in FRACTIONS]
        join[filter_name] = [
            run_join(data, filter_name, "adapt", 0.6, 1).index_mb for data in corpora
        ]
    exp.add(
        _percent_headers("scheme"),
        [[scheme] + values for scheme, values in search.items()],
        title="(a) search index on Uniform",
    )
    exp.add(
        _percent_headers("join filter (Adapt)"),
        [[name] + values for name, values in join.items()],
        title="(b, c) join index on Zipf",
    )
    exp.notes.append(
        f"Paper: CSS on Uniform scales {paper.FIGURE_7_4_CSS_MB} MB — linear."
    )
    exp.cells = {"search": search, "join": join}


@experiment("Figure 7.5", "Scalability of execution time, 20%..100%")
def figure_7_5(exp, scale, queries):
    search_base = scaled(SEARCH_CARDINALITY["uniform"], scale)
    join_base = scaled(JOIN_CARDINALITY["zipf"], scale)
    search_ms, join_s = [], []
    for fraction in FRACTIONS:
        data = cached_dataset("uniform", int(search_base * fraction))
        index = InvertedIndex(data.collection, scheme="css")
        picked = sample_queries(data, max(10, queries // 2))
        search_ms.append(run_search_queries(index, picked, 0.8, "mergeskip")["ms"])
        zipf = cached_dataset("zipf", int(join_base * fraction))
        join_s.append(run_join(zipf, "position", "adapt", 0.6).time)
    exp.add(
        _percent_headers("experiment"),
        [["search ms/query (MS on CSS)"] + search_ms,
         ["join s (Position on Adapt)"] + join_s],
    )
    exp.notes.append("Paper shape: search ~linear, join ~quadratic.")
    exp.cells = {"search_ms": search_ms, "join_s": join_s}


@experiment("Table 7.4", "Case study: Amazon index size")
def table_7_4(exp, scale, queries):
    search = {s: search_index("amazon", s, scale).size_mb for s in SEARCH_SCHEMES}
    join = {
        s: run_join(join_dataset("amazon", scale), "position", s, 0.6, 1).index_mb
        for s in JOIN_SCHEMES
    }
    for kind, sizes in (("search", search), ("join", join)):
        exp.add(
            ["scheme", "measured MB", "paper GB"],
            [[s, mb, paper.TABLE_7_4_GB[kind][s]] for s, mb in sizes.items()],
            title=kind,
        )
    exp.cells = {"search": search, "join": join}


@experiment("Ablation A1", "MILC block-size sweep vs CSS (Tweet)")
def ablation_block_size(exp, scale, queries):
    collection = search_dataset("tweet", scale).collection
    sizes: Dict[object, float] = {
        m: InvertedIndex(collection, scheme="milc", block_size=m).size_mb()
        for m in (4, 8, 16, 32, 64, 128)
    }
    sizes["css"] = search_index("tweet", "css", scale).size_mb
    exp.add(
        ["block size m", "index MB"],
        [["css (DP)" if m == "css" else m, mb] for m, mb in sizes.items()],
    )
    exp.cells = sizes


def _token_lists(data) -> List[List[int]]:
    """The posting-list id streams a join over ``data`` appends."""
    streams: Dict[int, List[int]] = {}
    for rid, record in enumerate(data.collection.records):
        for token in record.tolist():
            streams.setdefault(token, []).append(rid)
    return [ids for ids in streams.values() if len(ids) > 1]


def _online_bits(streams, factory) -> int:
    bits = 0
    for stream in streams:
        lst = factory()
        lst.extend(stream)
        lst.finalize()
        bits += lst.size_bits()
    return bits


@experiment("Ablation A2", "Vari buffer capacity sweep (Tweet posting lists)")
def ablation_buffer(exp, scale, queries):
    streams = _token_lists(join_dataset("tweet", scale))
    capacities = [8, 32, METADATA_BITS, THEOREM_1_BUFFER,
                  2 * THEOREM_1_BUFFER, 4 * THEOREM_1_BUFFER]
    for capacity in capacities:
        exp.cells[capacity] = timed(
            lambda: _online_bits(streams, lambda: VariList(buffer_capacity=capacity))
        )
    exp.add(
        ["buffer capacity", "index KB", "build s"],
        [
            [f"{c}{' (Thm 1)' if c == THEOREM_1_BUFFER else ''}", bits / 8192, t]
            for c, (t, bits) in exp.cells.items()
        ],
    )


@experiment("Ablation A3", "Online seal policies (DBLP posting lists)")
def ablation_model(exp, scale, queries):
    streams = _token_lists(join_dataset("dblp", scale))
    for scheme in ("fix", "vari", "adapt", "model"):
        exp.cells[scheme] = timed(
            lambda: _online_bits(streams, online_factory(scheme))
        )
    exp.add(
        ["scheme", "index KB", "build s"],
        [[s, bits / 8192, t] for s, (t, bits) in exp.cells.items()],
    )


@experiment("Ablation A4", "Codec comparison (Tweet search index)")
def ablation_codecs(exp, scale, queries):
    collection = search_dataset("tweet", scale).collection
    codecs = [("uncomp", {}), ("vbyte", {}), ("groupvarint", {}),
              ("simple8b", {}), ("pfordelta", {}),  # classic p90 rule
              ("pfordelta", {"width_rule": "opt"}), ("eliasfano", {}),
              ("roaring", {}), ("milc", {}), ("css", {})]
    rows = []
    for scheme, kwargs in codecs:
        index = InvertedIndex(collection, scheme=scheme, **kwargs)
        label = scheme + ("(opt)" if kwargs else "")
        access = index.supports_random_access
        exp.cells[label] = (index.size_mb(), access)
        rows.append([label, index.size_mb(), index.compression_ratio(),
                     "yes" if access else "NO"])
    exp.add(["codec", "index MB", "ratio", "random access"], rows)


@experiment("Ablation A5", "§6.1 storage model: modeled us per lookup")
def ablation_storage(exp, scale, queries):
    lengths = [10_000, 100_000, 1_000_000, 3_000_000]
    schemes = ("uncomp", "pfordelta", "twolayer")
    for length in lengths:
        rng = np.random.default_rng(length)
        values = np.unique(rng.integers(0, 2**31, size=int(length * 1.1)))[:length]
        lists = (UncompressedList(values), PForDeltaList(values),
                 MILCList(values, block_size=64))
        for scheme, lst in zip(schemes, lists):
            for device in (DRAM, SSD, HDD):
                exp.cells[(length, scheme, device.name)] = estimate_lookup_us(
                    lst, device
                )
    for device in (DRAM, SSD, HDD):
        exp.add(
            ["list length"] + [f"{s} us" for s in schemes],
            [[f"{n:,}"] + [exp.cells[(n, s, device.name)] for s in schemes]
             for n in lengths],
            title=device.name,
        )


@experiment("Ablation A6", "Eytzinger metadata search (hot DBLP lists)")
def ablation_cacheaware(exp, scale, queries):
    index = search_index("dblp", "css", scale).index
    results = []
    for lst in sorted(index.lists.values(), key=len)[-10:]:
        bases = lst.store.to_arrays()["bases"]
        tree = EytzingerIndex(bases)
        tree.touches = 0
        keys = np.linspace(0, int(bases[-1]) * 1.1, 200).astype(np.int64)
        mismatches = sum(
            tree.lower_bound(key) != int(np.searchsorted(bases, key, side="left"))
            for key in keys.tolist()
        )
        results.append((len(bases), tree.touches / keys.size, mismatches))
    exp.add(
        ["metadata blocks", "touches/lookup", "log2 bound"],
        [[n, touches, int(np.ceil(np.log2(n))) + 1] for n, touches, _ in results],
    )
    exp.cells = {"lists": results}


@experiment("Ablation A7", "Streaming-ingest search index (Tweet)")
def ablation_dynamic(exp, scale, queries):
    data = search_dataset("tweet", scale)

    def ingest(scheme):
        index = DynamicInvertedIndex(mode="word", scheme=scheme)
        index.add_many(data.strings)
        return index

    for scheme in JOIN_SCHEMES:
        timing, index = timed(lambda: ingest(scheme))
        index.compact()
        searcher = JaccardSearcher(index, algorithm="mergeskip")
        hits = len(searcher.search(data.strings[0], 0.8))
        exp.cells[scheme] = (timing, index.size_mb(), hits)
    timing, offline = timed(lambda: InvertedIndex(data.collection, scheme="css"))
    exp.cells["offline css"] = (timing, offline.size_mb(), None)
    exp.add(
        ["scheme", "build s", "index MB"],
        [[name, timing, mb] for name, (timing, mb, _) in exp.cells.items()],
    )


def _clustered_list(rng, length: int, contrast: int) -> np.ndarray:
    """Sorted ids: 80% run gaps of ~1-3, 20% jump gaps ~contrast larger."""
    runs = rng.random(length) < 0.8
    gaps = np.where(
        runs,
        rng.integers(1, 4, size=length),
        rng.integers(max(1, contrast), 3 * contrast + 2, size=length),
    )
    return np.cumsum(gaps)


@experiment("Ablation A8", "Compression vs within-list gap clustering")
def ablation_skew(exp, scale, queries):
    length = scaled(20_000, scale)
    rng = np.random.default_rng(123)
    rows, advantages = [], []
    for contrast in (1, 10, 100, 1_000, 10_000):
        values = _clustered_list(rng, length, contrast)
        milc, css = MILCList(values).size_bits(), CSSList(values).size_bits()
        advantages.append((milc - css) / milc)
        rows.append([f"{contrast}x", 32 * length / milc, 32 * length / css,
                     100 * advantages[-1]])
    exp.add(["gap contrast", "milc ratio", "css ratio", "css advantage %"], rows)
    control = []  # list-length (token frequency) skew alone
    for skew in (0.0, 1.4):
        strings = zipf_sets(
            scaled(1_500, scale), average_size=25, universe=2_000, skew=skew, seed=7
        )
        collection = tokenize_collection(strings, mode="word")
        milc = InvertedIndex(collection, scheme="milc").size_bits()
        css = InvertedIndex(collection, scheme="css").size_bits()
        control.append((milc - css) / milc)
    exp.notes.append(
        "Negative control: css advantage at frequency skew 0.0 -> "
        f"{control[0]:.2%}, at 1.4 -> {control[1]:.2%} (list-length skew does "
        "not move the needle; gap clustering does)."
    )
    exp.cells = {"advantages": advantages, "control": control}


@experiment("Ablation A9", "Length-grouped index (Tweet, tau=0.7)")
def ablation_grouping(exp, scale, queries):
    data = search_dataset("tweet", scale)
    picked = sample_queries(data, max(10, queries // 2))
    flat_index = search_index("tweet", "css", scale).index
    flat = JaccardSearcher(flat_index, algorithm="mergeskip")
    timing, flat_answers = timed(lambda: [flat.search(q, 0.7) for q in picked])
    flat_candidates = sum(a.stats.candidates for a in flat_answers)
    per_query = 1000 / len(picked)
    rows = [["flat", flat_index.size_mb(), flat_candidates,
             timing.scaled(per_query)]]
    exp.cells = {"flat": flat_candidates, "grouped": {}}
    for width in (0.1, 0.25, 0.5, 1.0):
        index = LengthGroupedIndex(data.collection, scheme="css", group_width=width)
        searcher = GroupedJaccardSearcher(index, algorithm="mergeskip")
        timing, answers = timed(lambda: [searcher.search(q, 0.7) for q in picked])
        candidates = sum(a.stats.candidates for a in answers)
        exp.cells["grouped"][width] = (candidates, answers == flat_answers)
        rows.append([f"grouped w={width} ({index.num_groups()} groups)",
                     index.size_bits() / 8 / 1024 / 1024, candidates,
                     timing.scaled(per_query)])
    exp.add(["index", "size MB", "candidates", "ms/query"], rows)
