"""The runtime lock-discipline sanitizer (``repro.analysis.sanitize``).

The acceptance bar for the sanitizer is that it demonstrably *fires*: a
seeded unguarded write of a guarded attribute must raise, while the same
write under the owning lock — and every normal operation of the guarded
classes — must pass untouched.
"""

from __future__ import annotations

import pickle
import threading

import numpy as np
import pytest

from repro.analysis import sanitize
from repro.engine.cache import DecodeCache
from repro.obs.trace import Tracer
from repro.serve.coalescer import BatchCoalescer, BatchKey


@pytest.fixture
def sanitizer():
    """The sanitizer, installed for one test (idempotent with conftest's)."""
    already = sanitize.is_installed()
    sanitize.install()
    yield sanitize
    if not already:
        sanitize.uninstall()


class _FakeList:
    def to_array(self):
        return np.array([1, 2, 3], dtype=np.int64)


class TestPlans:
    def test_plans_cover_the_guarded_classes(self):
        plans = sanitize.guarded_plans()
        assert "DecodeCache" in plans
        assert "WorkerPool" in plans
        assert "BatchCoalescer" in plans
        assert "Tracer" in plans
        # counters are guarded by the cache ring lock
        assert plans["DecodeCache"]["hits"] == ("_lock",)
        # the queue, the loop binding and the scheduled-drain flag
        assert {"_pending", "_loop", "_draining"} <= set(
            plans["BatchCoalescer"]
        )
        # the engines' pool trio is guarded by the pool lock
        assert plans["WorkerPool"]["_executor"] == ("_lock",)

    def test_condition_alias_is_an_accepted_candidate(self):
        # BatchCoalescer._wake is Condition(self._lock); holding either
        # attribute satisfies the guard
        plans = sanitize.guarded_plans()
        for candidates in plans["BatchCoalescer"].values():
            assert set(candidates) == {"_lock", "_wake"}


class TestFires:
    def test_unguarded_write_raises(self, sanitizer):
        cache = DecodeCache(max_entries=4)
        with pytest.raises(sanitize.LockDisciplineError) as excinfo:
            cache.hits = 99
        message = str(excinfo.value)
        assert "DecodeCache.hits" in message
        assert "_lock" in message

    def test_locked_write_passes(self, sanitizer):
        cache = DecodeCache(max_entries=4)
        with cache._lock:
            cache.hits = 99
        assert cache.hits == 99

    def test_condition_alias_ownership_passes(self, sanitizer):
        coalescer = BatchCoalescer(lambda queries, key: [None] * len(queries))
        try:
            with coalescer._wake:
                coalescer._closed = True
                coalescer._closed = False
        finally:
            coalescer.close()

    def test_unguarded_attrs_stay_writable(self, sanitizer):
        cache = DecodeCache(max_entries=4)
        cache.max_entries = 8  # config knob, not lock-guarded
        assert cache.max_entries == 8


class TestNormalOperationIsClean:
    def test_cache_workload(self, sanitizer):
        cache = DecodeCache(max_entries=2)
        lists = [_FakeList() for _ in range(4)]
        for lst in lists:
            cache.fetch(lst)
            cache.get(lst)
        cache.fetch_many(lists, lambda missed: [m.to_array() for m in missed])
        assert cache.stats()["entries"] == len(cache) == 2
        assert cache.hits >= 1 and cache.evictions >= 1

    def test_coalescer_workload(self, sanitizer):
        coalescer = BatchCoalescer(
            lambda queries, key: [q.upper() for q in queries]
        )
        try:
            key = BatchKey(metric="jaccard", threshold=0.7)
            futures = [coalescer.submit(f"q{i}", key) for i in range(8)]
            answers = [f.result(timeout=10.0)[0] for f in futures]
            assert answers == [f"Q{i}" for i in range(8)]
        finally:
            coalescer.close()

    def test_tracer_workload(self, sanitizer):
        tracer = Tracer(buffer_size=4)
        tracer.enabled = True  # deliberately not lock-guarded: must pass
        with tracer.span("sanitize.unit"):
            pass
        tracer.configure(buffer_size=8)
        tracer.clear()

    def test_pickle_roundtrip_passes(self, sanitizer):
        cache = DecodeCache(max_entries=4)
        cache.fetch(_FakeList())
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.insertions == cache.insertions
        # the restored lock is fresh and functional
        with clone._lock:
            clone.hits = 5
        assert clone.hits == 5

    def test_cross_thread_write_under_lock_passes(self, sanitizer):
        cache = DecodeCache(max_entries=4)
        errors = []

        def bump():
            try:
                with cache._lock:
                    cache.misses += 1
            except sanitize.LockDisciplineError as error:
                errors.append(error)

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert cache.misses == 8


class TestLifecycle:
    def test_install_is_idempotent(self, sanitizer):
        before = dict(sanitize._PATCHED)
        sanitize.install()
        assert sanitize._PATCHED == before

    def test_uninstall_restores_writes(self):
        if sanitize.is_installed():
            pytest.skip("suite-wide sanitizer active (REPRO_SANITIZE=1)")
        sanitize.install()
        cache = DecodeCache(max_entries=4)
        with pytest.raises(sanitize.LockDisciplineError):
            cache.hits = 1
        sanitize.uninstall()
        assert not sanitize.is_installed()
        cache.hits = 1
        assert cache.hits == 1
