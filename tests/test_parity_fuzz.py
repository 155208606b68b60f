"""Seeded parity fuzz: every registered scheme × algorithm vs brute force.

The whole correctness story of the paper is that compressed T-occurrence
answers are *bit-identical* to an uncompressed scan — these tests pin that
for every scheme in the registries (including ones registered after the
original suite was written) rather than a hand-picked subset:

* every offline scheme × every T-occurrence algorithm the built index
  supports, against :func:`brute_similarity_search` on a random word
  corpus and :func:`brute_edit_distance_search` on a random q-gram corpus;
* every online scheme × every algorithm through an in-memory
  :class:`DynamicInvertedIndex` and a searcher over it, the way Ablation
  A7 and ``examples/streaming_dedup.py`` use it, with searches
  *interleaved* between ``add()`` rounds and before/after ``compact()``;
  every round answers each query alone (``search``) and as one batch
  (``search_many_batched``).

Everything is seeded — a failure reproduces exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.framework import OFFLINE_SCHEMES, ONLINE_SCHEMES
from repro.engine import SimilarityEngine
from repro.search import InvertedIndex, JaccardSearcher
from repro.search.brute import (
    brute_edit_distance_search,
    brute_similarity_search,
)
from repro.search.dynamic import DynamicInvertedIndex
from repro.search.edsearch import EditDistanceSearcher
from repro.similarity import tokenize_collection

ALGORITHMS = ("scancount", "mergeskip", "divideskip")
SEED = 20220711


def _word_strings(seed: int, count: int, vocab: int = 60) -> list:
    """Zipf-weighted multi-word records (some tokens hot, some rare)."""
    gen = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(vocab)]
    weights = np.arange(1, vocab + 1, dtype=float) ** -0.9
    weights /= weights.sum()
    out = []
    for _ in range(count):
        size = int(gen.integers(1, 8))
        picks = gen.choice(words, size=size, replace=False, p=weights)
        out.append(" ".join(picks))
    return out


def _char_strings(seed: int, count: int) -> list:
    """Short strings over a tiny alphabet (dense edit-distance neighbours)."""
    gen = np.random.default_rng(seed)
    return [
        "".join(gen.choice(list("abcd"), size=int(gen.integers(2, 10))))
        for _ in range(count)
    ]


def _sample_queries(seed: int, strings: list, extra: list) -> list:
    gen = np.random.default_rng(seed)
    picks = [strings[int(i)] for i in gen.integers(0, len(strings), size=6)]
    return picks + extra


def _supported_algorithms(index) -> list:
    return [
        algorithm
        for algorithm in ALGORITHMS
        if algorithm == "scancount" or index.supports_random_access
    ]


class TestOfflineSchemes:
    @pytest.mark.parametrize("scheme", sorted(OFFLINE_SCHEMES))
    def test_matches_brute_jaccard(self, scheme):
        strings = _word_strings(SEED, 70)
        collection = tokenize_collection(strings, mode="word")
        index = InvertedIndex(collection, scheme=scheme)
        queries = _sample_queries(
            SEED + 1, strings, ["w0 w1 w2", "zzz unseen tokens", "w59"]
        )
        algorithms = _supported_algorithms(index)
        assert "scancount" in algorithms
        for algorithm in algorithms:
            searcher = JaccardSearcher(index, algorithm=algorithm)
            for threshold in (0.45, 0.8):
                for query in queries:
                    expected = brute_similarity_search(
                        collection, query, threshold
                    )
                    got = list(searcher.search(query, threshold).ids)
                    assert got == expected, (
                        scheme, algorithm, threshold, query,
                    )

    @pytest.mark.parametrize("scheme", sorted(OFFLINE_SCHEMES))
    def test_matches_brute_edit_distance(self, scheme):
        strings = _char_strings(SEED + 2, 80)
        collection = tokenize_collection(strings, mode="qgram", q=2)
        index = InvertedIndex(collection, scheme=scheme)
        queries = _sample_queries(SEED + 3, strings, ["abcd", "dddddddd"])
        for algorithm in ("scancount", "mergeskip"):
            if algorithm not in _supported_algorithms(index):
                continue
            searcher = EditDistanceSearcher(index, algorithm=algorithm)
            for delta in (1, 2):
                for query in queries:
                    expected = brute_edit_distance_search(
                        collection, query, delta
                    )
                    got = list(searcher.search(query, delta).ids)
                    assert got == expected, (scheme, algorithm, delta, query)


def _searcher(index, algorithm="mergeskip", metric="jaccard"):
    """A cache-free searcher over ``index`` (``add()`` appends to lists in
    place, so a dynamic index is searched without a decode cache)."""
    if metric == "ed":
        return EditDistanceSearcher(index, algorithm=algorithm)
    return JaccardSearcher(index, algorithm=algorithm)


def _alone_and_batched(searcher, queries, threshold, context):
    """Each query's ids alone, checked against the same round batched."""
    alone = [list(searcher.search(q, threshold).ids) for q in queries]
    batched = searcher.search_many_batched(queries, threshold)
    assert [list(r.ids) for r in batched] == alone, (threshold, *context)
    return alone


class TestOnlineSchemesInterleaved:
    """Dynamic two-region lists: searches between add() rounds must track
    the growing corpus exactly, answered alone and as one batch."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("scheme", sorted(ONLINE_SCHEMES))
    def test_matches_brute_jaccard(self, scheme, algorithm):
        strings = _word_strings(SEED + 4, 90, vocab=40)
        index = DynamicInvertedIndex(mode="word", scheme=scheme)
        searcher = _searcher(index, algorithm)
        queries = _sample_queries(SEED + 5, strings, ["w0 w1", "w39 w38"])
        index.add_many(strings[:30])
        cursor = 30
        while True:
            for threshold in (0.5, 0.75):
                expected = [
                    brute_similarity_search(index.collection, query, threshold)
                    for query in queries
                ]
                got = _alone_and_batched(
                    searcher, queries, threshold, (scheme, algorithm, cursor)
                )
                assert got == expected, (scheme, algorithm, threshold, cursor)
            if cursor >= len(strings):
                break
            index.add_many(strings[cursor : cursor + 12])
            cursor += 12

    @pytest.mark.parametrize("scheme", sorted(ONLINE_SCHEMES))
    def test_matches_brute_edit_distance(self, scheme):
        strings = _char_strings(SEED + 6, 70)
        index = DynamicInvertedIndex(mode="qgram", q=2, scheme=scheme)
        searcher = _searcher(index, metric="ed")
        queries = _sample_queries(SEED + 7, strings, ["abab", "cccc"])
        index.add_many(strings[:25])
        cursor = 25
        while True:
            expected = [
                brute_edit_distance_search(index.collection, query, 1)
                for query in queries
            ]
            got = _alone_and_batched(searcher, queries, 1, (scheme, cursor))
            assert got == expected, (scheme, cursor)
            if cursor >= len(strings):
                break
            index.add_many(strings[cursor : cursor + 15])
            cursor += 15


class TestBatchKernelParity:
    """The batch path's acceptance gate: for every offline scheme and
    every algorithm, ``search_many_batched`` must be bit-identical to the
    serial per-query path (the parity oracle) — same ids, and for MergeSkip
    the same candidate and verification counts.  ``engine.search``, a
    batch of one, must match both the oracle and brute force, with the
    decode cache on and off."""

    @staticmethod
    def _engine_ids(index, queries, threshold, **serving):
        """``engine.search`` ids per query: cache off, then capped at two
        entries (it evicts on nearly every query), then the default
        byte-bounded cache, which never evicts here.  A cached engine
        answers every query twice, so the default's second pass is all
        hits."""
        answers = []
        for cache_entries in (0, 2, None):
            engine = SimilarityEngine(
                index=index, cache_entries=cache_entries, **serving
            )
            for _ in range(1 if cache_entries == 0 else 2):
                answers.append(
                    [engine.search(q, threshold).ids for q in queries]
                )
            if cache_entries == 2:
                assert engine.cache_stats()["evictions"] > 0
        return answers

    @pytest.mark.parametrize("scheme", sorted(OFFLINE_SCHEMES))
    def test_jaccard_batched_matches_serial(self, scheme):
        strings = _word_strings(SEED + 8, 80)
        collection = tokenize_collection(strings, mode="word")
        index = InvertedIndex(collection, scheme=scheme)
        queries = _sample_queries(
            SEED + 9, strings, ["w0 w1 w2", "zzz unseen tokens", "w59", ""]
        )
        for algorithm in _supported_algorithms(index):
            searcher = JaccardSearcher(index, algorithm=algorithm)
            for threshold in (0.45, 0.8):
                serial = [searcher.search(q, threshold) for q in queries]
                batched = searcher.search_many_batched(queries, threshold)
                for a, b in zip(serial, batched):
                    assert a.ids == b.ids, (scheme, algorithm, threshold, a.query)
                    if algorithm != "mergeskip":
                        # a ScanCount or DivideSkip batch counts only the
                        # short lists under a per-size bound: its
                        # candidates are the records passing that, not the
                        # serial count filter
                        assert (
                            b.stats.results
                            <= b.stats.verifications
                            <= b.stats.candidates
                        )
                    else:
                        assert a.stats.candidates == b.stats.candidates
                        assert a.stats.verifications == b.stats.verifications
                    assert a.stats.count_threshold == b.stats.count_threshold
                expected = [
                    tuple(brute_similarity_search(collection, q, threshold))
                    for q in queries
                ]
                assert [r.ids for r in serial] == expected
                for answered in self._engine_ids(
                    index, queries, threshold, algorithm=algorithm
                ):
                    assert answered == expected, (scheme, algorithm, threshold)

    @pytest.mark.parametrize("scheme", sorted(OFFLINE_SCHEMES))
    def test_edit_distance_batched_matches_serial(self, scheme):
        strings = _char_strings(SEED + 10, 80)
        collection = tokenize_collection(strings, mode="qgram", q=2)
        index = InvertedIndex(collection, scheme=scheme)
        # "dddddddd" drives the destruction bound negative: the length-scan
        # fallback rides inside a kernel batch
        queries = _sample_queries(SEED + 11, strings, ["abcd", "dddddddd"])
        for algorithm in _supported_algorithms(index):
            searcher = EditDistanceSearcher(index, algorithm=algorithm)
            for delta in (1, 2):
                serial = [searcher.search(q, delta) for q in queries]
                batched = searcher.search_many_batched(queries, delta)
                for a, b in zip(serial, batched):
                    assert a.ids == b.ids, (scheme, algorithm, delta, a.query)
                    assert a.stats.candidates == b.stats.candidates
                expected = [
                    tuple(brute_edit_distance_search(collection, q, delta))
                    for q in queries
                ]
                assert [r.ids for r in serial] == expected
                for answered in self._engine_ids(
                    index, queries, delta, algorithm=algorithm, metric="ed"
                ):
                    assert answered == expected, (scheme, algorithm, delta)

    def test_divideskip_batch_matches_serial(self):
        """A DivideSkip batch is the divided ScanCount; the edit-distance
        searcher has no per-size bound, so its batch counts every list at
        T and its candidates are the serial count filter's."""
        strings = _word_strings(SEED + 12, 40)
        collection = tokenize_collection(strings, mode="word")
        searcher = JaccardSearcher(
            InvertedIndex(collection, scheme="css"), algorithm="divideskip"
        )
        queries = strings[:8]
        serial = [searcher.search(q, 0.6) for q in queries]
        batched = searcher.search_many_batched(queries, 0.6)
        assert [r.ids for r in serial] == [r.ids for r in batched]
        strings = _char_strings(SEED + 12, 60)
        collection = tokenize_collection(strings, mode="qgram", q=2)
        searcher = EditDistanceSearcher(
            InvertedIndex(collection, scheme="css"), algorithm="divideskip"
        )
        queries = _sample_queries(SEED + 13, strings, ["abcd", "dddddddd"])
        for delta in (1, 2):
            serial = [searcher.search(q, delta) for q in queries]
            batched = searcher.search_many_batched(queries, delta)
            for a, b in zip(serial, batched):
                assert a.ids == b.ids, (delta, a.query)
                assert a.stats.candidates == b.stats.candidates

    @pytest.mark.parametrize("algorithm", ("scancount", "mergeskip"))
    @pytest.mark.parametrize("scheme", sorted(ONLINE_SCHEMES))
    def test_dynamic_index_batched_matches_serial(self, scheme, algorithm):
        strings = _word_strings(SEED + 13, 60, vocab=40)
        index = DynamicInvertedIndex(mode="word", scheme=scheme)
        index.add_many(strings)
        searcher = _searcher(index, algorithm)
        queries = _sample_queries(SEED + 14, strings, ["w0 w1", "w39 w38"])
        serial = [searcher.search(q, 0.5) for q in queries]
        batched = searcher.search_many_batched(queries, 0.5)
        assert [r.ids for r in serial] == [r.ids for r in batched]


#: the schemes the bundle format can persist (two-layer or uncompressed
#: stores; the other offline codecs are transient by design).
SERIALIZABLE_SCHEMES = ("uncomp", "milc", "css")


class TestMmapLoadParity:
    """A bundle reopened through the zero-copy mmap path must answer
    bit-identically to the in-memory index it was saved from, for every
    serializable scheme × algorithm — same ids *and* same stats, so a
    wrong block decode off the mapped words cannot hide behind the
    verification stage."""

    @pytest.mark.parametrize("mmap", (False, True))
    @pytest.mark.parametrize("scheme", SERIALIZABLE_SCHEMES)
    def test_jaccard_parity(self, tmp_path, scheme, mmap):
        from repro import storage

        strings = _word_strings(SEED + 15, 70)
        collection = tokenize_collection(strings, mode="word")
        index = InvertedIndex(collection, scheme=scheme)
        loaded = storage.open_index(
            storage.save_index(index, tmp_path / "bundle"), mmap=mmap
        )
        queries = _sample_queries(
            SEED + 16, strings, ["w0 w1 w2", "zzz unseen tokens", "w59"]
        )
        for algorithm in _supported_algorithms(index):
            searcher = JaccardSearcher(index, algorithm=algorithm)
            reopened = JaccardSearcher(loaded, algorithm=algorithm)
            for threshold in (0.45, 0.8):
                for query in queries:
                    expected = searcher.search(query, threshold)
                    got = reopened.search(query, threshold)
                    assert got.ids == expected.ids, (
                        scheme, algorithm, mmap, threshold, query,
                    )
                    assert got.stats.candidates == expected.stats.candidates
                    assert got.stats.count_threshold == (
                        expected.stats.count_threshold
                    )

    @pytest.mark.parametrize("mmap", (False, True))
    @pytest.mark.parametrize("scheme", SERIALIZABLE_SCHEMES)
    def test_edit_distance_parity(self, tmp_path, scheme, mmap):
        from repro import storage

        strings = _char_strings(SEED + 17, 80)
        collection = tokenize_collection(strings, mode="qgram", q=2)
        index = InvertedIndex(collection, scheme=scheme)
        loaded = storage.open_index(
            storage.save_index(index, tmp_path / "bundle"), mmap=mmap
        )
        queries = _sample_queries(SEED + 18, strings, ["abcd", "dddddddd"])
        for algorithm in ("scancount", "mergeskip"):
            if algorithm not in _supported_algorithms(index):
                continue
            searcher = EditDistanceSearcher(index, algorithm=algorithm)
            reopened = EditDistanceSearcher(loaded, algorithm=algorithm)
            for delta in (1, 2):
                for query in queries:
                    assert (
                        reopened.search(query, delta).ids
                        == searcher.search(query, delta).ids
                    ), (scheme, algorithm, mmap, delta, query)


class TestCompactionParity:
    """Sealing online two-region lists into offline CSS blocks must not
    change a single answer: the compacted index is checked against brute
    force *and* against the answers recorded before compaction, then the
    interleaved-ingest invariant is re-checked on top of the compacted
    base (new adds land in a fresh online region).  Every round is
    answered alone and as one batch."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("scheme", sorted(ONLINE_SCHEMES))
    def test_compacted_answers_unchanged(self, scheme, algorithm):
        strings = _word_strings(SEED + 19, 90, vocab=40)
        index = DynamicInvertedIndex(mode="word", scheme=scheme)
        index.add_many(strings[:70])
        searcher = _searcher(index, algorithm)
        queries = _sample_queries(SEED + 20, strings, ["w0 w1", "w39 w38"])
        context = (scheme, algorithm)
        before = {
            threshold: _alone_and_batched(searcher, queries, threshold, context)
            for threshold in (0.5, 0.75)
        }
        index.compact()
        for threshold, expected in before.items():
            got = _alone_and_batched(searcher, queries, threshold, context)
            assert got == expected, (scheme, algorithm, threshold)
        index.add_many(strings[70:])
        assert _alone_and_batched(searcher, queries, 0.5, context) == [
            brute_similarity_search(index.collection, query, 0.5)
            for query in queries
        ], context

    @pytest.mark.parametrize("scheme", sorted(ONLINE_SCHEMES))
    def test_compacted_edit_distance_matches_brute(self, scheme):
        strings = _char_strings(SEED + 21, 70)
        index = DynamicInvertedIndex(mode="qgram", q=2, scheme=scheme)
        index.add_many(strings)
        index.compact()
        queries = _sample_queries(SEED + 22, strings, ["abab", "cccc"])
        expected = [
            brute_edit_distance_search(index.collection, query, 1)
            for query in queries
        ]
        got = _alone_and_batched(
            _searcher(index, metric="ed"), queries, 1, (scheme,)
        )
        assert got == expected, scheme
