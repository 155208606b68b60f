"""Tests for :class:`repro.engine.sharded.ShardedEngine`.

The contract under test is *parity*: a sharded engine returns bit-identical
answers (same ids, same ascending order) to a single-shard
:class:`SimilarityEngine` over the same corpus, for every routing mode,
shard count, scheme and algorithm combination — plus the routing/ingest
mechanics, the decode-cache invalidation on sharded ingest and the obs
counters.  (The save/open round trip lives in ``tests/test_storage.py``.)
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import ShardedEngine, SimilarityEngine
from repro.engine.sharded import partition_records, subcollection
from repro.obs import enabled_metrics


@pytest.fixture(scope="module")
def reference_results(word_collection, word_strings):
    """Monolithic answers every sharded configuration must reproduce."""
    engine = SimilarityEngine(word_collection, scheme="css")
    queries = word_strings[:10] + ["tok0 tok1 tok2", "unseen words only"]
    return queries, {
        (q, t): list(engine.search(q, t).ids)
        for q in queries
        for t in (0.5, 0.8)
    }


class TestPartitioning:
    def test_contiguous_is_a_partition(self):
        parts = partition_records(10, 3, "contiguous")
        assert [p.tolist() for p in parts] == [
            [0, 1, 2, 3], [4, 5, 6], [7, 8, 9],
        ]

    def test_hash_is_a_partition(self):
        parts = partition_records(10, 3, "hash")
        assert [p.tolist() for p in parts] == [
            [0, 3, 6, 9], [1, 4, 7], [2, 5, 8],
        ]
        merged = np.sort(np.concatenate(parts))
        assert np.array_equal(merged, np.arange(10))

    def test_more_shards_than_records(self):
        parts = partition_records(2, 5, "contiguous")
        assert sum(len(p) for p in parts) == 2
        assert len(parts) == 5

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError, match="shards"):
            partition_records(10, 0)
        with pytest.raises(ValueError, match="routing"):
            partition_records(10, 2, "range")

    def test_subcollection_shares_dictionary(self, word_collection):
        sub = subcollection(word_collection, [3, 7, 11])
        assert sub.dictionary is word_collection.dictionary
        assert sub.strings == [word_collection.strings[i] for i in (3, 7, 11)]
        assert len(sub) == 3


class TestStaticParity:
    @pytest.mark.parametrize("routing", ["contiguous", "hash"])
    @pytest.mark.parametrize("shards", [1, 2, 4, 7])
    def test_search_matches_monolithic(
        self, word_collection, reference_results, shards, routing
    ):
        queries, expected = reference_results
        engine = ShardedEngine(
            word_collection, shards=shards, routing=routing, scheme="css"
        )
        assert engine.num_shards == shards
        assert sum(engine.shard_sizes()) == len(word_collection)
        for query in queries:
            for threshold in (0.5, 0.8):
                got = list(engine.search(query, threshold).ids)
                assert got == expected[(query, threshold)], (
                    shards, routing, query, threshold,
                )

    @pytest.mark.parametrize(
        "scheme,algorithm",
        [
            ("uncomp", "scancount"),
            ("pfordelta", "scancount"),
            ("milc", "divideskip"),
            ("css", "mergeskip"),
        ],
    )
    def test_every_scheme_and_algorithm(
        self, word_collection, word_strings, scheme, algorithm
    ):
        mono = SimilarityEngine(
            word_collection, scheme=scheme, algorithm=algorithm
        )
        sharded = ShardedEngine(
            word_collection,
            shards=3,
            routing="hash",
            scheme=scheme,
            algorithm=algorithm,
        )
        for query in word_strings[:8]:
            assert list(sharded.search(query, 0.6).ids) == list(
                mono.search(query, 0.6).ids
            )

    def test_search_batch_matches_search(
        self, word_collection, reference_results
    ):
        queries, expected = reference_results
        with ShardedEngine(
            word_collection, shards=4, routing="hash", scheme="css"
        ) as engine:
            # in-process (the default), then every shard's fork pool
            for workers in (1, 2):
                batch = engine.search_batch(queries, 0.5, workers=workers)
                assert [list(r.ids) for r in batch] == [
                    expected[(q, 0.5)] for q in queries
                ], workers
            assert engine.pool_workers == 4 * 2

    def test_fan_out_survives_a_broken_pool(
        self, word_collection, reference_results
    ):
        # regression: an executor that refuses work (shut down under the
        # batch, as add() / compact() / close() on another thread would)
        # must fall back to answering in-process AND be retired so the
        # next batch lazily recreates a fresh one -- mono and per shard
        queries, expected = reference_results
        want = [expected[(q, 0.5)] for q in queries]
        for engine in (
            SimilarityEngine(word_collection, scheme="css"),
            ShardedEngine(
                word_collection, shards=3, routing="hash", scheme="css"
            ),
        ):
            with engine:
                for shard in getattr(engine, "shards", [engine]):
                    # a poisoned executor
                    shard._pool.get(2, shard._make_pool).shutdown(wait=True)
                batch = engine.search_batch(queries, 0.5, workers=2)
                assert [list(r.ids) for r in batch] == want
                assert engine.pool_workers == 0  # broken executors retired
                batch = engine.search_batch(queries, 0.5, workers=2)
                assert [list(r.ids) for r in batch] == want
                assert engine.pool_workers > 0  # rebuilt and healthy

    def test_fan_out_propagates_genuine_query_errors(self, word_collection):
        with ShardedEngine(
            word_collection, shards=3, routing="hash", scheme="css"
        ) as engine:
            with pytest.raises(ValueError, match="threshold"):
                engine.search_batch(["tok0 tok1"] * 8, -2.0, workers=3)
            # the first shard raised out of a healthy pool: a query error
            # must not tear it down
            assert engine.pool_workers == 3

    def test_edit_distance_metric(self, qgram_collection, char_strings):
        mono = SimilarityEngine(qgram_collection, scheme="css", metric="ed")
        sharded = ShardedEngine(
            qgram_collection,
            shards=3,
            routing="contiguous",
            scheme="css",
            metric="ed",
        )
        for query in char_strings[:8]:
            assert list(sharded.search(query, 1).ids) == list(
                mono.search(query, 1).ids
            )

    def test_merged_stats_aggregate_shards(self, word_collection):
        engine = ShardedEngine(word_collection, shards=3, scheme="uncomp")
        result = engine.search(word_collection.strings[0], 0.5)
        per_shard = [
            shard.searcher.search(word_collection.strings[0], 0.5)
            for shard in engine.shards
        ]
        assert result.stats.candidates == sum(
            r.stats.candidates for r in per_shard
        )
        assert result.stats.results == len(result.ids)

    def test_size_accounting(self, word_collection):
        engine = ShardedEngine(word_collection, shards=4, scheme="css")
        assert engine.num_postings() == sum(
            shard.index.num_postings() for shard in engine.shards
        )
        assert engine.size_bits() > 0
        assert len(engine) == 4

    def test_serial_build_matches_parallel(self, word_collection):
        serial = ShardedEngine(
            word_collection, shards=4, scheme="css", build_workers=1
        )
        parallel = ShardedEngine(
            word_collection, shards=4, scheme="css", build_workers=4
        )
        query = word_collection.strings[0]
        assert list(serial.search(query, 0.5).ids) == list(
            parallel.search(query, 0.5).ids
        )
        assert serial.size_bits() == parallel.size_bits()


class TestValidation:
    def test_requires_collection_or_dynamic(self):
        with pytest.raises(ValueError, match="collection"):
            ShardedEngine(shards=2)

    def test_bad_shards(self, word_collection):
        with pytest.raises(ValueError, match="shards"):
            ShardedEngine(word_collection, shards=0)

    def test_bad_routing(self, word_collection):
        with pytest.raises(ValueError, match="routing"):
            ShardedEngine(word_collection, shards=2, routing="rendezvous")

    def test_dynamic_requires_hash_routing(self):
        with pytest.raises(ValueError, match="hash"):
            ShardedEngine(shards=2, routing="contiguous", dynamic=True)

    def test_dynamic_rejects_collection(self, word_collection):
        with pytest.raises(ValueError, match="add"):
            ShardedEngine(
                word_collection, shards=2, routing="hash", dynamic=True
            )

    def test_static_engine_rejects_add(self, word_collection):
        engine = ShardedEngine(word_collection, shards=2, scheme="uncomp")
        with pytest.raises(TypeError, match="dynamic"):
            engine.add("new record")


class TestDynamicSharding:
    def test_interleaved_adds_match_monolithic(self, word_strings):
        from repro.search.dynamic import DynamicInvertedIndex

        mono = SimilarityEngine(
            index=DynamicInvertedIndex(mode="word", scheme="adapt")
        )
        sharded = ShardedEngine(
            shards=3, routing="hash", dynamic=True, scheme="adapt"
        )
        queries = word_strings[:5]
        for position, text in enumerate(word_strings[:60]):
            assert mono.add(text) == sharded.add(text) == position
            if position % 9 == 0:
                for query in queries:
                    assert list(sharded.search(query, 0.6).ids) == list(
                        mono.search(query, 0.6).ids
                    )
        assert sharded.num_records == 60
        assert sorted(
            gid
            for remap in sharded._remaps
            for gid in remap
        ) == list(range(60))

    def test_add_routes_by_hash(self):
        engine = ShardedEngine(shards=4, routing="hash", dynamic=True)
        for expected_gid in range(10):
            gid = engine.add(f"record number {expected_gid}")
            assert gid == expected_gid
            assert engine.route(gid) == gid % 4
            assert engine._remaps[gid % 4][-1] == gid
        assert engine.shard_sizes() == [3, 3, 2, 2]

    def test_add_many(self):
        engine = ShardedEngine(shards=2, routing="hash", dynamic=True)
        assert engine.add_many(["a b", "b c", "c d"]) == [0, 1, 2]
        assert engine.num_records == 3

    def test_ingest_invalidates_owning_shard_cache(self):
        engine = ShardedEngine(
            shards=2,
            routing="hash",
            dynamic=True,
            scheme="adapt",
        )
        engine.add_many(["alpha beta", "alpha gamma", "alpha delta"])
        # warm every shard's cache for the shared token
        for _ in range(3):
            engine.search("alpha", 0.1)
        warmed = engine.cache_stats()
        assert warmed["entries"] > 0
        engine.add("alpha epsilon")  # gid 3 -> shard 1
        stats = engine.cache_stats()
        assert stats["invalidations"] >= 1
        # parity after the invalidation: the new record is findable
        assert 3 in engine.search("alpha epsilon", 0.5).ids

    def test_route_contiguous(self, word_collection):
        engine = ShardedEngine(
            word_collection, shards=3, routing="contiguous", scheme="uncomp"
        )
        bounds = np.cumsum([0] + engine.shard_sizes())
        for shard_id in range(3):
            assert engine.route(int(bounds[shard_id])) == shard_id
        with pytest.raises(KeyError):
            engine.route(len(word_collection) + 5)


class TestObservability:
    def test_shard_counters(self, word_collection):
        with enabled_metrics() as registry:
            engine = ShardedEngine(
                word_collection, shards=3, scheme="uncomp"
            )
            engine.search("tok0 tok1", 0.5)
            engine.search_batch(["tok0", "tok1 tok2"], 0.5, workers=1)
        assert registry.counter("engine.shard.builds") == 3
        assert registry.counter("engine.shard.queries") == 3
        assert registry.counter("engine.shard.fanout") == 9
        timers = registry.snapshot()["timers"]
        assert "engine.shard.build" in timers
        assert "engine.shard.search" in timers
        assert "engine.shard.batch" in timers

    def test_dynamic_add_counter(self):
        with enabled_metrics() as registry:
            engine = ShardedEngine(shards=2, routing="hash", dynamic=True)
            engine.add_many(["a b", "c d", "e f"])
        assert registry.counter("engine.shard.adds") == 3

    def test_parallel_build_folds_worker_metrics(self, word_collection):
        """Shard builds in forked workers ship their registry deltas back;
        the parent's profile matches a serial build (which records inline).
        """

        def profiled_build(build_workers):
            with enabled_metrics() as registry:
                ShardedEngine(
                    word_collection,
                    shards=2,
                    scheme="css",
                    build_workers=build_workers,
                )
            return registry

        serial = profiled_build(1)
        parallel = profiled_build(2)
        assert serial.counter("index.lists_built") > 0
        assert parallel.counter("index.lists_built") == serial.counter(
            "index.lists_built"
        )
        # one index.build timing per shard, whether built inline or forked
        assert parallel.timers["index.build"][1] == 2
        assert parallel.timer_seconds("index.build") > 0
        assert parallel.counter("engine.shard.builds") == 2

    def test_sharded_search_yields_trace(self, word_collection):
        from repro.obs import TRACER

        engine = ShardedEngine(word_collection, shards=2, scheme="css")
        TRACER.configure(enabled=True, sample_rate=1.0, slow_ms=None)
        TRACER.clear()
        try:
            engine.search(word_collection.strings[0], 0.6)
            (document,) = TRACER.drain()
            with TRACER.trace("batch"):
                engine.search_batch(word_collection.strings[:4], 0.6)
            (batch,) = TRACER.drain()
        finally:
            TRACER.configure(enabled=False)
            TRACER.clear()
        assert document["name"] == "search.sharded"
        assert document["meta"]["shards"] == 2
        names = [span["name"] for span in document["spans"]]
        # per-shard query traces nest under the fan-out root
        assert names.count("search") == 2
        assert "engine.shard.search" in names
        # a batch trace attributes its time shard by shard: each shard's
        # own batch span is a child of the one engine.shard.batch span
        (fan_out,) = [
            span for span in batch["spans"] if span["name"] == "engine.shard.batch"
        ]
        assert [
            span["parent"]
            for span in batch["spans"]
            if span["name"] == "engine.batch.kernel"
        ] == [fan_out["id"]] * 2
