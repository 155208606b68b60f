"""The parallel InvertedIndex build: same index as the serial build.

A build that reaches its scheme's ``PARALLEL_BUILD_POSTINGS`` encodes its
posting lists over a fork pool.  The tests force the pool by lowering that
table's entries for every scheme (and by claiming two CPUs, so a one-CPU
host forks too) and compare against a serial build: lists, sizes, answers
and the build's telemetry must not depend on the path taken.
"""

from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.core import fork
from repro.core.framework import OFFLINE_SCHEMES, offline_factory
from repro.datasets.text import dblp_like
from repro.engine import SimilarityEngine
from repro.obs import METRICS, enabled_metrics
from repro.search import InvertedIndex, searcher
from repro.similarity import tokenize_collection


@pytest.fixture(scope="module")
def strings():
    return dblp_like(300, 7)


@pytest.fixture(scope="module")
def collection(strings):
    return tokenize_collection(strings, mode="qgram", q=3)


@pytest.fixture
def parallel(monkeypatch):
    """Make every build take the pool; records whether each one did."""
    monkeypatch.setattr(
        searcher, "PARALLEL_BUILD_POSTINGS", dict.fromkeys(OFFLINE_SCHEMES, 2)
    )
    monkeypatch.setattr(fork, "usable_cpus", lambda: 2)
    pooled = []
    encode = searcher._encode_parallel

    def spy(*args):
        encoded = encode(*args)
        pooled.append(encoded is not None)
        return encoded

    monkeypatch.setattr(searcher, "_encode_parallel", spy)
    return pooled


def serial_index(monkeypatch, collection, scheme="css"):
    with monkeypatch.context() as patch:
        patch.setattr(searcher, "_encode_parallel", lambda *args: None)
        return InvertedIndex(collection, scheme=scheme)


def assert_same_index(built, expected):
    assert list(built.lists) == list(expected.lists)
    for token, lst in expected.lists.items():
        assert type(built.lists[token]) is type(lst)
        np.testing.assert_array_equal(built.lists[token].to_array(), lst.to_array())
    assert built.size_bits() == expected.size_bits()
    assert built.supports_random_access == expected.supports_random_access


@pytest.mark.parametrize("scheme", ["uncomp", "pfordelta", "milc", "css"])
def test_parallel_build_equals_serial(
    monkeypatch, parallel, collection, strings, scheme
):
    expected = serial_index(monkeypatch, collection, scheme)
    built = InvertedIndex(collection, scheme=scheme)
    assert parallel == [True]
    assert_same_index(built, expected)
    algorithm = "scancount" if scheme == "pfordelta" else "mergeskip"
    with SimilarityEngine(index=expected, algorithm=algorithm) as reference:
        with SimilarityEngine(index=built, algorithm=algorithm) as engine:
            for query in strings[:20]:
                for tau in (0.5, 0.8):
                    assert engine.search(query, tau) == reference.search(
                        query, tau
                    )


def test_chunks_cover_every_list_once():
    sizes = [1000, 1, 1, 1, 500, 500, 3, 2000]
    for chunks in (2, 3, 8, 20):
        bounds = searcher._chunk_bounds(sizes, chunks)
        assert bounds[0][0] == 0 and bounds[-1][1] == len(sizes)
        assert all(low < high for low, high in bounds)
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
        assert len(bounds) <= chunks


def test_worker_telemetry_matches_the_serial_profile(
    monkeypatch, parallel, collection
):
    """Codec telemetry recorded inside the forked encoders reaches the
    parent: counters, timer counts and histograms equal a serial build's."""
    css = offline_factory("css")

    def counting_factory(ids, **kwargs):
        METRICS.inc("test.encoded_postings", len(ids))
        METRICS.observe("test.list_length", len(ids))
        with METRICS.span("test.encode"):
            return css(ids, **kwargs)

    monkeypatch.setattr(searcher, "offline_factory", lambda scheme: counting_factory)

    def profile(build):
        with enabled_metrics() as registry:
            build()
        snapshot = registry.snapshot(full=True)
        snapshot["timers"] = {
            name: cell["count"] for name, cell in snapshot["timers"].items()
        }
        return snapshot

    serial = profile(lambda: serial_index(monkeypatch, collection))
    pooled = profile(lambda: InvertedIndex(collection))
    assert parallel == [True]
    assert pooled["counters"] == serial["counters"]
    assert pooled["timers"] == serial["timers"]
    assert pooled["histograms"] == serial["histograms"]
    postings = sum(record.size for record in collection.records)
    assert serial["counters"]["test.encoded_postings"] == postings
    assert serial["counters"]["index.lists_built"] == collection.num_tokens
    assert serial["timers"]["index.build"] == 1


class _BrokenPool:
    """A ProcessPoolExecutor stand-in that fails the way ``failure`` says."""

    failure: BaseException

    def __init__(self, *args, **kwargs):
        if isinstance(self.failure, OSError):
            raise self.failure

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, *args):
        raise self.failure


@pytest.mark.parametrize(
    "failure",
    [BrokenProcessPool("a worker died"), OSError("fork failed")],
    ids=["broken-pool", "oserror"],
)
def test_pool_failure_falls_back_to_serial(
    monkeypatch, parallel, collection, failure
):
    expected = serial_index(monkeypatch, collection)
    broken = type("Broken", (_BrokenPool,), {"failure": failure})
    monkeypatch.setattr(fork, "ProcessPoolExecutor", broken)
    built = InvertedIndex(collection)
    assert parallel == [False]
    assert_same_index(built, expected)


def test_small_build_never_creates_a_pool(monkeypatch, word_collection):
    def forbidden(*args, **kwargs):
        raise AssertionError("a build below the threshold created a pool")

    monkeypatch.setattr(fork, "ProcessPoolExecutor", forbidden)
    monkeypatch.setattr(fork, "usable_cpus", lambda: 8)
    postings = sum(record.size for record in word_collection.records)
    assert postings < searcher.PARALLEL_BUILD_POSTINGS["css"]
    index = InvertedIndex(word_collection)
    assert index.num_postings() == postings


@pytest.mark.parametrize("scheme", ["uncomp", "pfordelta"])
def test_cheap_schemes_never_create_a_pool(monkeypatch, collection, scheme):
    """Uncomp and PForDelta encode faster than a pool can fork and ship
    the lists back, at any size: they have no threshold."""

    def forbidden(*args, **kwargs):
        raise AssertionError(f"a {scheme} build created a pool")

    monkeypatch.setattr(fork, "ProcessPoolExecutor", forbidden)
    monkeypatch.setattr(searcher, "PARALLEL_BUILD_POSTINGS", {"css": 2, "milc": 2})
    monkeypatch.setattr(fork, "usable_cpus", lambda: 8)
    index = InvertedIndex(collection, scheme=scheme)
    assert index.num_postings() == sum(r.size for r in collection.records)


def test_one_usable_cpu_builds_serially(monkeypatch, collection):
    """The worker count follows the CPUs this process may run on, not the
    host's: an affinity mask of one CPU on a many-core host builds
    serially."""

    def forbidden(*args, **kwargs):
        raise AssertionError("a one-CPU process created a pool")

    monkeypatch.setattr(fork, "ProcessPoolExecutor", forbidden)
    monkeypatch.setattr(searcher, "PARALLEL_BUILD_POSTINGS", {"css": 2})
    monkeypatch.setattr(fork.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(
        fork.os, "sched_getaffinity", lambda pid: {0}, raising=False
    )
    assert fork.usable_cpus() == 1
    InvertedIndex(collection)
