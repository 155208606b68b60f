"""Tests for `repro.engine.SimilarityEngine` and the redesigned search API."""

import dataclasses
import math
import pickle
import warnings

import pytest

from repro.core import fork
from repro.core.framework import (
    OFFLINE_SCHEMES,
    register_scheme,
    scheme_factory,
)
from repro.compression import UncompressedList
from repro.engine import SimilarityEngine
from repro.obs import enabled_metrics
from repro.search import (
    InvertedIndex,
    JaccardSearcher,
    SearchResult,
    SearchStats,
    brute_similarity_search,
)
from repro.similarity import tokenize_collection

#: scheme -> algorithms it can run (PForDelta is sequential-decode only).
SCHEME_ALGORITHMS = {
    "uncomp": ("scancount", "mergeskip", "divideskip"),
    "css": ("scancount", "mergeskip", "divideskip"),
    "milc": ("scancount", "mergeskip", "divideskip"),
    "pfordelta": ("scancount",),
}


class TestSearchResult:
    @pytest.fixture()
    def result(self, word_collection):
        engine = SimilarityEngine(word_collection, scheme="css")
        return engine.search(word_collection.strings[0], 0.6)

    def test_sequence_protocol(self, result):
        assert len(result) >= 1
        assert result[0] == result.ids[0]
        assert list(result) == list(result.ids)
        assert result.ids[0] in result
        assert result[:2] == result.ids[:2]

    def test_equality_with_plain_sequences(self, result):
        assert result == list(result.ids)
        assert result == tuple(result.ids)
        assert [*result.ids] == result  # reflected comparison
        assert result != list(result.ids) + [10**9]

    def test_frozen(self, result):
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.ids = ()

    def test_carries_stats_and_timing(self, result):
        assert isinstance(result, SearchResult)
        assert isinstance(result.stats, SearchStats)
        assert result.stats.results == len(result)
        assert result.stats.lists_probed > 0
        assert result.seconds >= 0
        assert result.threshold == 0.6

    def test_to_list_is_mutable_copy(self, result):
        ids = result.to_list()
        ids.append(-1)
        assert -1 not in result

    def test_hashable_by_ids(self, result):
        assert hash(result) == hash(result.ids)


class TestLastStatsRemoved:
    def test_surface_is_gone(self, word_collection):
        searcher = JaccardSearcher(InvertedIndex(word_collection, scheme="css"))
        result = searcher.search(word_collection.strings[0], 0.6)
        assert not hasattr(searcher, "last_stats")
        assert result.stats.results == len(result)

    def test_search_does_not_warn(self, word_collection):
        searcher = JaccardSearcher(InvertedIndex(word_collection, scheme="css"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            searcher.search(word_collection.strings[0], 0.6)


class TestEngineSingleQuery:
    def test_matches_brute_force(self, word_collection):
        engine = SimilarityEngine(word_collection, scheme="css")
        for query in word_collection.strings[:10]:
            assert engine.search(query, 0.7) == brute_similarity_search(
                word_collection, query, 0.7
            )

    def test_prebuilt_index(self, word_collection):
        index = InvertedIndex(word_collection, scheme="milc")
        engine = SimilarityEngine(index=index)
        assert engine.index is index
        query = word_collection.strings[3]
        assert engine.search(query, 0.8) == brute_similarity_search(
            word_collection, query, 0.8
        )

    def test_requires_collection_or_index(self):
        with pytest.raises(ValueError, match="collection or an index"):
            SimilarityEngine()

    def test_edit_distance_metric(self, qgram_collection, char_strings):
        engine = SimilarityEngine(
            qgram_collection, scheme="css", metric="ed"
        )
        result = engine.search(char_strings[0], 1)
        assert 0 in result

    def test_repeated_queries_hit_the_cache(self, word_collection):
        engine = SimilarityEngine(word_collection, scheme="css")
        query = word_collection.strings[0]
        for _ in range(4):
            engine.search(query, 0.6)
        stats = engine.cache_stats()
        assert stats["hits"] > 0
        assert stats["insertions"] > 0

    @pytest.mark.parametrize("algorithm", ["scancount", "divideskip"])
    def test_divided_count_caches_only_the_short_lists(
        self, word_collection, algorithm
    ):
        """A single ScanCount or DivideSkip query is the divided count: it
        decodes, and misses on, only the short lists it counts (the parent
        decoded every probed list on this path)."""
        engine = SimilarityEngine(
            word_collection, scheme="css", algorithm=algorithm
        )
        query = word_collection.strings[0]
        plan = engine.searcher._plan(query, 0.6)
        (counted,), _, _ = engine.searcher._count_rows([plan])
        assert len(counted) < len(plan.lists)
        expected = engine.search(query, 0.6)
        first = engine.cache_stats()
        assert first["misses"] == first["insertions"] == len(counted)
        assert engine.search(query, 0.6) == expected
        assert engine.cache_stats()["hits"] == len(counted)
        assert expected == brute_similarity_search(word_collection, query, 0.6)

    def test_cache_disabled(self, word_collection):
        engine = SimilarityEngine(word_collection, scheme="css", cache_entries=0)
        query = word_collection.strings[0]
        expected = engine.search(query, 0.6)
        for _ in range(3):
            assert engine.search(query, 0.6) == expected
        assert engine.cache is None
        assert engine.cache_stats()["hits"] == 0

    def test_cached_results_identical_to_uncached(self, word_collection):
        cached = SimilarityEngine(word_collection, scheme="css")
        uncached = SimilarityEngine(
            word_collection, scheme="css", cache_entries=0
        )
        for _ in range(3):  # repeat so the cache is actually exercised
            for query in word_collection.strings[:15]:
                assert cached.search(query, 0.6) == uncached.search(query, 0.6)


@pytest.mark.usefixtures("two_usable_cpus")
class TestSearchBatch:
    @pytest.mark.parametrize(
        "scheme,algorithm",
        [
            (scheme, algorithm)
            for scheme, algorithms in SCHEME_ALGORITHMS.items()
            for algorithm in algorithms
        ],
    )
    def test_parallel_identical_to_serial(
        self, word_collection, scheme, algorithm
    ):
        queries = word_collection.strings[:24]
        with SimilarityEngine(
            word_collection, scheme=scheme, algorithm=algorithm
        ) as engine:
            serial = engine.search_batch(queries, 0.7, workers=1)
            parallel = engine.search_batch(queries, 0.7, workers=2)
        assert [list(r) for r in parallel] == [list(r) for r in serial]
        assert [r.query for r in parallel] == list(queries)

    def test_parallel_identical_to_serial_edit_distance(
        self, qgram_collection, char_strings
    ):
        queries = char_strings[:20]
        with SimilarityEngine(
            qgram_collection, scheme="css", metric="ed"
        ) as engine:
            serial = engine.search_batch(queries, 1, workers=1)
            parallel = engine.search_batch(queries, 1, workers=2)
        assert [list(r) for r in parallel] == [list(r) for r in serial]

    def test_empty_batch(self, word_collection):
        engine = SimilarityEngine(word_collection, scheme="css")
        assert engine.search_batch([], 0.8, workers=4) == []

    def test_small_batch_stays_serial(self, word_collection):
        engine = SimilarityEngine(word_collection, scheme="css")
        results = engine.search_batch(
            word_collection.strings[:3], 0.8, workers=4
        )
        assert engine._pool._executor is None  # below the parallel cutoff: no pool
        assert len(results) == 3

    def test_platform_without_fork_answers_in_process(
        self, word_collection, monkeypatch
    ):
        monkeypatch.setattr(
            "repro.core.fork.multiprocessing.get_all_start_methods",
            lambda: ["spawn"],
        )
        queries = word_collection.strings[:16]
        with SimilarityEngine(word_collection, scheme="css") as engine:
            expected = [engine.search(query, 0.7).ids for query in queries]
            with enabled_metrics() as registry:
                results = engine.search_batch(queries, 0.7, workers=2)
            assert [result.ids for result in results] == expected
            assert engine._pool._executor is None  # no pool was built
        assert "engine.batch.kernel" in registry.snapshot()["timers"]

    def test_pool_reused_across_batches(self, word_collection):
        queries = word_collection.strings[:16]
        with SimilarityEngine(word_collection, scheme="css") as engine:
            engine.search_batch(queries, 0.7, workers=2)
            pool = engine._pool._executor
            engine.search_batch(queries, 0.7, workers=2)
            assert engine._pool._executor is pool

    def test_parallel_batch_records_query_counters(self, word_collection):
        queries = word_collection.strings[:16]
        with SimilarityEngine(word_collection, scheme="css") as engine:
            with enabled_metrics() as registry:
                engine.search_batch(queries, 0.7, workers=2)
            assert registry.counter("search.queries") == len(queries)
            assert registry.counter("engine.batch.queries") == len(queries)

    def test_genuine_errors_propagate(self, word_collection):
        with SimilarityEngine(word_collection, scheme="css") as engine:
            with pytest.raises(ValueError, match="threshold"):
                engine.search_batch(
                    word_collection.strings[:16], 1.5, workers=2
                )

    def test_pool_never_outgrows_the_usable_cpus(
        self, word_collection, monkeypatch
    ):
        # the build's rule: at most usable_cpus() workers
        queries = word_collection.strings[:16]
        with SimilarityEngine(word_collection, scheme="css") as engine:
            expected = engine.search_batch(queries, 0.7)
            assert engine.search_batch(queries, 0.7, workers=4) == expected
            assert engine._pool._workers == 2
            monkeypatch.setattr(fork, "usable_cpus", lambda: 1)
            engine.close()
            assert engine.search_batch(queries, 0.7, workers=4) == expected
            assert engine._pool._executor is None  # one CPU: no pool


@pytest.mark.usefixtures("two_usable_cpus")
class TestWorkerTelemetry:
    """Cross-process metric aggregation (the worker-delta protocol).

    Before the snapshot/merge layer, pool workers recorded into their own
    fork-inherited registries and the deltas were silently discarded — a
    profiled ``--workers N`` run reported 0 for every hot-path counter.
    """

    def test_parallel_batch_reports_worker_side_counters(
        self, word_collection
    ):
        queries = word_collection.strings[:16]
        with SimilarityEngine(
            word_collection, scheme="css", algorithm="scancount"
        ) as engine:
            with enabled_metrics() as registry:
                engine.search_batch(queries, 0.6, workers=2)
        # these are recorded only inside the workers; > 0 proves the
        # deltas shipped back and folded into the parent registry
        assert registry.counter("twolayer.blocks_decoded") > 0
        assert registry.counter("twolayer.elements_decoded") > 0
        assert registry.counter("search.queries") == len(queries)
        assert registry.counter("engine.batch.worker_chunks") > 0
        assert registry.timer_seconds("search.filter") > 0

    def test_worker_aggregation_bit_identical_to_serial(self, word_strings):
        """Acceptance criterion: counter totals under workers=2 equal the
        same chunks answered in process one after another, exactly.  The
        cache is disabled (forked per-worker caches would legitimately
        change hit/decode counts) and the in-process run uses the pool's
        chunking, since batch-kernel counters depend on how a batch is
        cut."""
        collection = tokenize_collection(word_strings, mode="qgram", q=2)
        queries = word_strings[:16]
        workers = 2
        chunk_size = math.ceil(len(queries) / (4 * workers))

        def profiled_run(run):
            with SimilarityEngine(
                collection, scheme="css", cache_entries=0,
                algorithm="divideskip",
            ) as engine:
                with enabled_metrics() as registry:
                    run(engine)
            snapshot = registry.snapshot(full=True)
            batched = snapshot["counters"].get("engine.batch.queries", 0)
            # batch-orchestration counters only exist on parallel runs
            snapshot["counters"] = {
                name: value
                for name, value in snapshot["counters"].items()
                if not name.startswith("engine.batch.")
            }
            # wall time is nondeterministic; event counts are not
            snapshot["timers"] = {
                name: cell["count"]
                for name, cell in snapshot["timers"].items()
                if not name.startswith("engine.batch.")
            }
            return snapshot, batched

        def in_process(engine):
            for start in range(0, len(queries), chunk_size):
                engine.searcher.search_many_batched(
                    queries[start : start + chunk_size], 0.9
                )

        serial, _ = profiled_run(in_process)
        parallel, batched = profiled_run(
            lambda engine: engine.search_batch(queries, 0.9, workers=workers)
        )
        assert batched == len(queries)
        assert parallel["counters"] == serial["counters"]
        assert parallel["timers"] == serial["timers"]
        assert parallel["histograms"] == serial["histograms"]
        assert serial["counters"]["search.queries"] == len(queries)
        assert serial["counters"]["twolayer.blocks_decoded"] > 0

    def test_worker_traces_ship_back(self, word_collection):
        from repro.obs import TRACER
        import os

        queries = word_collection.strings[:16]
        TRACER.configure(enabled=True, sample_rate=1.0, slow_ms=None)
        TRACER.clear()
        try:
            with SimilarityEngine(word_collection, scheme="css") as engine:
                engine.search_batch(queries, 0.6, workers=2)
            documents = TRACER.drain()
        finally:
            TRACER.configure(enabled=False)
            TRACER.clear()
        # the engine call is one root trace in this process; each chunk a
        # worker answered is a root trace of its own, shipped back with it
        here = f"{os.getpid():x}"
        (parent,) = [d for d in documents if d["trace_id"].startswith(here)]
        chunks = [d for d in documents if d is not parent]
        assert parent["name"] == "engine.batch"
        assert parent["meta"]["queries"] == len(queries)
        assert "engine.batch.parallel" in {s["name"] for s in parent["spans"]}
        assert len(chunks) > 1
        assert all(d["name"] == "engine.batch" for d in chunks)
        assert sum(d["meta"]["queries"] for d in chunks) == len(queries)
        verifies = [
            span
            for document in chunks
            for span in document["spans"]
            if span["name"] == "search.verify"
        ]
        assert len(verifies) == len(queries)


class _PoisonedSearcher:
    """Delegates to a real searcher; raises on one query, counts every call."""

    def __init__(self, inner, poison):
        self.inner = inner
        self.poison = poison
        self.calls = []

    def search(self, query, threshold):
        self.calls.append(query)
        if query == self.poison:
            raise RuntimeError("poisoned query")
        return self.inner.search(query, threshold)

    def search_many_batched(self, queries, threshold):
        return [self.search(query, threshold) for query in queries]


class _FlakyPool:
    """Delegates to a real executor but refuses to map with an OSError (a
    pool-infrastructure failure, as opposed to a query error)."""

    def __init__(self, inner):
        self._inner = inner

    def map(self, *args, **kwargs):
        raise OSError("induced transport failure")

    def shutdown(self, wait=True, cancel_futures=False):
        self._inner.shutdown(wait=wait, cancel_futures=cancel_futures)


def _install_flaky_pool(engine):
    real_pool = engine._pool.get(2, engine._make_pool)
    with engine._pool._lock:  # write discipline: sanitizer-checked
        engine._pool._executor = _FlakyPool(real_pool)


@pytest.mark.usefixtures("two_usable_cpus")
class TestBatchFailureSemantics:
    """A pool-*infrastructure* failure retires the pool and answers the
    whole batch again in process; a genuine query error propagates, with
    no in-process rerun when the pool is healthy."""

    def test_query_error_propagates_process_mode(self, word_collection):
        queries = list(word_collection.strings[:15])
        queries.insert(6, "!!poison!!")
        with SimilarityEngine(word_collection, scheme="css") as engine:
            wrapper = _PoisonedSearcher(engine.searcher, "!!poison!!")
            engine.searcher = wrapper
            with pytest.raises(RuntimeError, match="poisoned"):
                engine.search_batch(queries, 0.7, workers=2)
            # all work happened in the fork workers — a serial rerun
            # would have re-executed queries in this process — and the
            # pool was not torn down (the transport is healthy)
            assert wrapper.calls == []
            assert engine._pool._executor is not None

    def test_infrastructure_failure_counters_process_mode(
        self, word_collection
    ):
        queries = word_collection.strings[:16]
        with SimilarityEngine(word_collection, scheme="css") as engine:
            baseline = [
                list(r) for r in engine.search_batch(queries, 0.7, workers=1)
            ]
            _install_flaky_pool(engine)
            with enabled_metrics() as registry:
                results = engine.search_batch(queries, 0.7, workers=2)
            assert engine._pool._executor is None
            assert [list(r) for r in results] == baseline
            # the whole batch reran in process: one count per query
            assert registry.counter("search.queries") == len(queries)
            assert registry.counter("engine.batch.queries") == len(queries)
            assert registry.counter("engine.batch.worker_chunks") == 0
            assert "engine.batch.rerun" in registry.snapshot()["timers"]

    def test_killed_workers_recover_with_a_fresh_pool(self, word_collection):
        # the broken executor is retired before the rerun, so the *next*
        # batch lazily builds a fresh pool instead of re-tripping
        # BrokenProcessPool forever
        queries = word_collection.strings[:16]
        with SimilarityEngine(word_collection, scheme="css") as engine:
            baseline = [
                list(r) for r in engine.search_batch(queries, 0.7, workers=1)
            ]
            engine.search_batch(queries, 0.7, workers=2)  # spawn workers
            for process in engine._pool._executor._processes.values():
                process.kill()
            with enabled_metrics() as registry:
                results = engine.search_batch(queries, 0.7, workers=2)
            assert [list(r) for r in results] == baseline
            # chunks a worker answered before the kill are not merged
            assert registry.counter("search.queries") == len(queries)
            assert engine._pool._executor is None  # broken executor retired
            results = engine.search_batch(queries, 0.7, workers=2)
            assert [list(r) for r in results] == baseline
            assert engine._pool._executor is not None  # recreated and healthy again

    def test_broken_pool_disposed_when_query_error_propagates(
        self, word_collection
    ):
        # infrastructure failure AND a genuine query error in the same
        # batch: the in-process rerun raises the error, and the broken
        # executor is retired all the same
        queries = list(word_collection.strings[:15])
        queries.insert(2, "!!poison!!")
        with SimilarityEngine(word_collection, scheme="css") as engine:
            wrapper = _PoisonedSearcher(engine.searcher, "!!poison!!")
            engine.searcher = wrapper
            _install_flaky_pool(engine)
            with pytest.raises(RuntimeError, match="poisoned"):
                engine.search_batch(queries, 0.7, workers=2)
            assert engine._pool._executor is None  # retired despite the propagation

    def test_build_and_query_pools_fail_through_one_helper(
        self, word_collection, monkeypatch
    ):
        from concurrent.futures.process import BrokenProcessPool

        from repro.engine import core
        from repro.search import searcher

        failed = []
        pool_map = fork.pool_map

        def spy(open_pool, fn, *iterables):
            answered = pool_map(open_pool, fn, *iterables)
            if answered is None:
                failed.append(fn)
            return answered

        class BrokenBuildPool:
            def __init__(self, *args, **kwargs):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, *args):
                raise BrokenProcessPool("a worker died")

        monkeypatch.setattr(fork, "pool_map", spy)
        with monkeypatch.context() as build:
            build.setattr(searcher, "PARALLEL_BUILD_POSTINGS", {"css": 2})
            build.setattr(fork, "ProcessPoolExecutor", BrokenBuildPool)
            index = InvertedIndex(word_collection)
        queries = word_collection.strings[:16]
        with SimilarityEngine(index=index) as engine:
            expected = engine.search_batch(queries, 0.7)
            _install_flaky_pool(engine)
            assert engine.search_batch(queries, 0.7, workers=2) == expected
        assert failed == [searcher._encode_chunk, core._run_chunk]


@pytest.mark.usefixtures("two_usable_cpus")
class TestPoolSurvivesPickleAndFork:
    """``WorkerPool`` owns how the executor handle crosses process images."""

    def test_pickled_engine_comes_back_with_an_empty_pool(
        self, word_collection
    ):
        queries = word_collection.strings[:16]
        with SimilarityEngine(word_collection, scheme="css") as engine:
            expected = engine.search_batch(queries, 0.7, workers=2)
            assert engine._pool._workers == 2
            clone = pickle.loads(pickle.dumps(engine))
            assert engine._pool._workers == 2  # the original keeps its pool
        with clone:
            assert clone._pool._workers == 0 and clone._pool._executor is None
            assert clone.search_batch(queries, 0.7, workers=2) == expected
            assert clone._pool._workers == 2  # fresh lock, fresh executor

    def test_forget_drops_the_handle_without_shutting_it_down(
        self, word_collection
    ):
        with SimilarityEngine(word_collection, scheme="css") as engine:
            executor = engine._pool.get(2, engine._make_pool)
            stale_lock = engine._pool._lock
            engine._pool.forget()  # what a forked worker does
            assert engine._pool._workers == 0
            assert engine._pool._lock is not stale_lock
            # still alive: the parent image owns its shutdown
            assert executor.submit(len, "ab").result(timeout=10) == 2
            executor.shutdown(wait=True)


class TestRegisterScheme:
    def test_register_and_build(self, word_collection):
        class EchoList(UncompressedList):
            scheme_name = "echo"

        register_scheme("echo", "offline", EchoList)
        try:
            assert scheme_factory("echo", "offline") is EchoList
            engine = SimilarityEngine(word_collection, scheme="echo")
            query = word_collection.strings[0]
            assert engine.search(query, 0.7) == brute_similarity_search(
                word_collection, query, 0.7
            )
        finally:
            del OFFLINE_SCHEMES["echo"]

    def test_decorator_form(self):
        @register_scheme("echo2", "offline")
        class EchoList(UncompressedList):
            scheme_name = "echo2"

        try:
            assert scheme_factory("echo2", "offline") is EchoList
        finally:
            del OFFLINE_SCHEMES["echo2"]

    def test_duplicate_rejected_without_replace(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scheme("css", "offline", UncompressedList)

    def test_replace_allows_override(self):
        original = OFFLINE_SCHEMES["uncomp"]
        register_scheme("uncomp", "offline", original, replace=True)
        assert OFFLINE_SCHEMES["uncomp"] is original

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            register_scheme("x", "sideways", UncompressedList)
