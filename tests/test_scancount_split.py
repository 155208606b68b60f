"""The divided ScanCount batch: only each query's short lists are counted.

A ScanCount or DivideSkip batch of :class:`JaccardSearcher` sets each
query's ``L``
longest lists aside (DivideSkip's split, ``num_long_lists``), counts the
rest, and keeps a record only if its short-list count plus ``L`` reaches
the overlap its own size needs.  These tests pin that the answers stay
those of brute force and of the serial path, that the per-size need is the
scalar ``required_overlap`` bit for bit, and that a cold batch decodes the
short lists and nothing more.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.framework import OFFLINE_SCHEMES
from repro.search import InvertedIndex, JaccardSearcher, batchkernels
from repro.search.batchkernels import UNREACHABLE, batch_scan_count
from repro.search.brute import brute_similarity_search
from repro.search.dynamic import DynamicInvertedIndex
from repro.search.toccurrence import num_long_lists
from repro.similarity import tokenize_collection
from repro.similarity.measures import (
    length_bounds,
    required_overlap,
    required_overlap_array,
)

SEED = 20221033
METRICS = ("jaccard", "cosine", "dice")
THRESHOLDS = (0.3, 0.5, 0.8, 1.0)


def _word_strings(seed: int, count: int, vocab: int = 50) -> list:
    """Zipf-weighted records: a few hot words make long lists."""
    gen = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(vocab)]
    weights = np.arange(1, vocab + 1, dtype=float) ** -0.9
    weights /= weights.sum()
    return [
        " ".join(
            gen.choice(words, size=int(gen.integers(1, 12)), replace=False, p=weights)
        )
        for _ in range(count)
    ]


def _queries(strings: list) -> list:
    """Corpus records plus the edge cases: unseen tokens, repeated tokens,
    a mix of both, and the empty query."""
    return strings[:8] + [
        "zzz unseen tokens",
        "w0 w0 w1 w1 w2",
        "w0 w1 w2 w3 unseen",
        strings[3] + " " + strings[3],
        "",
    ]


def _assert_parity(searcher, collection, queries, metric):
    for threshold in THRESHOLDS:
        batched = searcher.search_many_batched(queries, threshold)
        for query, result in zip(queries, batched):
            expected = brute_similarity_search(collection, query, threshold, metric)
            assert list(result.ids) == expected, (metric, threshold, query)
            assert result.ids == searcher.search(query, threshold).ids
            assert result.stats.results <= result.stats.candidates


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("scheme", sorted(OFFLINE_SCHEMES))
def test_batched_equals_serial_and_brute(scheme, metric):
    strings = _word_strings(SEED, 90)
    collection = tokenize_collection(strings, mode="word")
    index = InvertedIndex(collection, scheme=scheme)
    algorithms = ["scancount"]
    if index.supports_random_access:  # DivideSkip needs it (Figure 7.2)
        algorithms.append("divideskip")
    for algorithm in algorithms:
        searcher = JaccardSearcher(index, algorithm=algorithm, metric=metric)
        _assert_parity(searcher, collection, _queries(strings), metric)


@pytest.mark.parametrize("metric", METRICS)
def test_dynamic_index_grown_after_first_query(metric):
    strings = _word_strings(SEED + 1, 120)
    index = DynamicInvertedIndex(mode="word", scheme="adapt")
    index.add_many(strings[:40])
    searcher = JaccardSearcher(index, algorithm="scancount", metric=metric)
    queries = _queries(strings)
    _assert_parity(searcher, index.collection, queries, metric)
    # longer records and longer lists arrive after the first batches
    index.add_many(strings[40:] + [" ".join(f"w{i}" for i in range(30))])
    _assert_parity(searcher, index.collection, queries, metric)


@pytest.mark.parametrize("metric", METRICS)
def test_qgram_corpus(metric):
    gen = np.random.default_rng(SEED + 2)
    strings = [
        "".join(gen.choice(list("abcdef"), size=int(gen.integers(6, 24))))
        for _ in range(80)
    ]
    collection = tokenize_collection(strings, mode="qgram", q=2)
    searcher = JaccardSearcher(
        InvertedIndex(collection, scheme="css"), algorithm="scancount", metric=metric
    )
    _assert_parity(searcher, collection, strings[:10] + ["xyz", "aaaa", ""], metric)


@pytest.mark.parametrize("metric", METRICS)
def test_required_overlap_array_is_the_scalar(metric):
    sizes = np.arange(1, 301)
    for threshold in (0.1, 0.3, 0.45, 0.5, 0.6, 0.7, 0.75, 0.8, 0.9, 0.95, 1.0):
        table = required_overlap_array(sizes[:, None], sizes, threshold, metric)
        expected = [
            [required_overlap(r, s, threshold, metric) for s in range(1, 301)]
            for r in range(1, 301)
        ]
        assert table.dtype == np.int64
        assert table.tolist() == expected, (metric, threshold)


def test_cold_batch_decodes_only_short_lists(monkeypatch):
    """A regression back to full-list decoding fails here: the spy sees
    every id the batch decodes."""
    strings = _word_strings(SEED + 3, 200)
    collection = tokenize_collection(strings, mode="word")
    index = InvertedIndex(collection, scheme="css")
    searcher = JaccardSearcher(index, algorithm="scancount")
    queries = [text for text in strings if len(text.split()) >= 8][:12]
    threshold = 0.8

    short, every = {}, {}
    for query in queries:
        size = collection.signature_size(query)
        low, _ = length_bounds(size, threshold)
        floor = required_overlap(size, low, threshold)
        lists = index.posting_lists(collection.encode_query(query).tolist())
        if floor > len(lists):
            continue
        lists.sort(key=len)
        num_long = num_long_lists(floor, len(lists[-1]))
        every.update((id(lst), len(lst)) for lst in lists)
        short.update((id(lst), len(lst)) for lst in lists[: len(lists) - num_long])

    decoded = []
    real = batchkernels._decode_lists

    def spy(lists):
        arrays = real(lists)
        decoded.extend(array.size for array in arrays)
        return arrays

    monkeypatch.setattr(batchkernels, "_decode_lists", spy)
    results = searcher.search_many_batched(queries, threshold)
    assert sum(decoded) == sum(short.values())
    assert sum(decoded) < sum(every.values())
    assert [r.ids for r in results] == [
        tuple(brute_similarity_search(collection, q, threshold)) for q in queries
    ]


def test_kernel_size_bound():
    """A record survives on the floor *and* its size's need; a size past
    the last column reads the last column."""
    lists = [np.array([0, 1, 2, 3]), np.array([0, 1, 3]), np.array([1, 3])]
    lengths = np.array([2, 5, 3, 9])
    needs = np.array([[UNREACHABLE, 1, 1, 2, 2, 3, UNREACHABLE]])
    # counts: 0 -> 2, 1 -> 3, 2 -> 1, 3 -> 3; record 3 (size 9) reads column 6
    got = batch_scan_count([lists], [1], 4, needs, lengths)
    assert got[0].tolist() == [0, 1]
    assert batch_scan_count([lists], [3], 4, needs, lengths)[0].tolist() == [1]
    assert batch_scan_count([lists], [1], 4)[0].tolist() == [0, 1, 2, 3]
