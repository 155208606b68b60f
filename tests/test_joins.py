"""Tests for the four similarity-join filters over every online scheme."""

import numpy as np
import pytest

from repro.compression.bitpack import BitBuffer
from repro.compression.online import FixedWidthVector
from repro.compression.twolayer import TwoLayerStore
from repro.datasets.text import tweet_like
from repro.join import (
    CountFilterJoin,
    PositionFilterJoin,
    PrefixFilterJoin,
    SegmentFilterJoin,
    brute_edit_distance_join,
    brute_similarity_join,
)
from repro.join.base import normalize_pairs, processing_order
from repro.join.segment import even_partition
from repro.similarity import tokenize_collection

TOKEN_JOINS = [CountFilterJoin, PrefixFilterJoin, PositionFilterJoin]
ONLINE_SCHEMES = ["uncomp", "fix", "vari", "adapt"]


@pytest.mark.parametrize("join_cls", TOKEN_JOINS)
@pytest.mark.parametrize("scheme", ONLINE_SCHEMES)
class TestTokenJoinCorrectness:
    def test_matches_brute_force(self, join_cls, scheme, word_collection):
        # the tweets' lists are long enough that `fix` seals blocks
        # mid-join, so the probes also seek inside the compressed region
        tweets = tokenize_collection(tweet_like(300, 7), mode="word")
        for collection in (word_collection, tweets):
            for threshold in (0.5, 0.7, 0.9):
                got = join_cls(collection, scheme=scheme).join(threshold)
                assert got == brute_similarity_join(collection, threshold), (
                    threshold
                )

    def test_exact_duplicates_found_at_threshold_one(
        self, join_cls, scheme, word_collection
    ):
        pairs = join_cls(word_collection, scheme=scheme).join(1.0)
        assert pairs == brute_similarity_join(word_collection, 1.0)
        assert pairs  # the fixture plants verbatim duplicates


@pytest.mark.parametrize("join_cls", TOKEN_JOINS)
class TestTokenJoinBehaviour:
    def test_invalid_threshold(self, join_cls, word_collection):
        join = join_cls(word_collection)
        with pytest.raises(ValueError):
            join.join(0.0)
        with pytest.raises(ValueError):
            join.join(1.0001)

    def test_pairs_are_sorted_and_unique(self, join_cls, word_collection):
        pairs = join_cls(word_collection).join(0.6)
        assert pairs == sorted(set(pairs))
        assert all(a < b for a, b in pairs)

    def test_stats_populated(self, join_cls, word_collection):
        join = join_cls(word_collection)
        pairs = join.join(0.7)
        stats = join.last_stats
        assert stats.pairs == len(pairs)
        assert stats.index_bits > 0
        assert stats.num_lists > 0
        assert stats.index_mb > 0

    def test_compressed_smaller_than_uncomp(self, join_cls, word_collection):
        uncomp = join_cls(word_collection, scheme="uncomp")
        uncomp.join(0.6)
        adapt = join_cls(word_collection, scheme="adapt")
        adapt.join(0.6)
        assert adapt.last_stats.index_bits < uncomp.last_stats.index_bits

    def test_cosine_metric(self, join_cls, word_collection):
        got = join_cls(word_collection, metric="cosine").join(0.8)
        assert got == brute_similarity_join(word_collection, 0.8, "cosine")

    def test_empty_collection(self, join_cls):
        coll = tokenize_collection([], mode="word")
        assert join_cls(coll).join(0.8) == []

    def test_single_record(self, join_cls):
        coll = tokenize_collection(["a b c"], mode="word")
        assert join_cls(coll).join(0.5) == []


@pytest.mark.parametrize("scheme", ONLINE_SCHEMES)
class TestSegmentJoinCorrectness:
    def test_matches_brute_force(self, scheme, char_strings):
        for delta in (0, 1, 2):
            got = SegmentFilterJoin(char_strings, scheme=scheme).join(delta)
            assert got == brute_edit_distance_join(char_strings, delta), delta


class TestSegmentJoinBehaviour:
    def test_negative_delta_rejected(self, char_strings):
        with pytest.raises(ValueError):
            SegmentFilterJoin(char_strings).join(-1)

    def test_delta_zero_finds_exact_duplicates(self):
        strings = ["abc", "abd", "abc", "", ""]
        pairs = SegmentFilterJoin(strings).join(0)
        assert pairs == [(0, 2), (3, 4)]

    def test_short_strings_bucket(self):
        # all strings shorter than delta+1: pure short-bucket path
        strings = ["", "a", "b", "ab", "xy"]
        for delta in (1, 2, 3):
            assert SegmentFilterJoin(strings).join(delta) == (
                brute_edit_distance_join(strings, delta)
            )

    def test_stats_populated(self, char_strings):
        join = SegmentFilterJoin(char_strings)
        pairs = join.join(1)
        assert join.last_stats.pairs == len(pairs)
        assert join.last_stats.index_bits > 0


class TestEvenPartition:
    def test_exact_division(self):
        assert even_partition(12, 3) == [(0, 4), (4, 4), (8, 4)]

    def test_remainder_goes_to_tail_segments(self):
        assert even_partition(10, 3) == [(0, 3), (3, 3), (6, 4)]

    def test_covers_whole_string(self):
        for length in range(0, 30):
            for pieces in range(1, 6):
                segments = even_partition(length, pieces)
                assert len(segments) == pieces
                assert sum(size for _, size in segments) == length
                position = 0
                for start, size in segments:
                    assert start == position
                    position += size

    def test_invalid_pieces(self):
        with pytest.raises(ValueError):
            even_partition(5, 0)


@pytest.fixture(scope="module")
def tweets():
    return tokenize_collection(tweet_like(1000, 7), mode="word")


#: (join, options) -> (candidates, verifications, pairs, index_bits,
#: position_bits, num_lists, extras) on ``tweet_like(1000, 7)`` at
#: tau = 0.8: the probe loops may get faster, never different.
#: ``candidates`` counts the distinct rids the length filter admits; the
#: probes seek past shorter records instead of reading and dropping them
#: (before the seek the count and prefix/position joins read 498,994 and
#: 5,657, every distinct rid on the probed lists).
GOLDEN_STATS = {
    (CountFilterJoin, ()): (181827, 50, 50, 205371, 0, 1210, {}),
    (PrefixFilterJoin, ()): (2497, 2497, 50, 104694, 0, 1200, {}),
    (PositionFilterJoin, ()): (2497, 563, 50, 104694, 6958, 1200, {}),
    (PositionFilterJoin, (("use_suffix_filter", True),)): (
        2497, 95, 50, 104694, 6958, 1200, {"suffix_pruned": 468}
    ),
    (PositionFilterJoin, (("scheme", "uncomp"),)): (
        2497, 563, 50, 113280, 6958, 1200, {}
    ),
}


class TestJoinStatsGolden:
    @pytest.mark.parametrize("join_cls, options", list(GOLDEN_STATS))
    def test_stats_pinned(self, join_cls, options, tweets):
        join = join_cls(tweets, **dict(options))
        join.join(0.8)
        s = join.last_stats
        got = (
            s.candidates, s.verifications, s.pairs, s.index_bits,
            s.position_bits, s.num_lists, s.extras,
        )
        assert got == GOLDEN_STATS[join_cls, options]


class TestPositionSideVectorWrites:
    def test_vectorised_append_only_on_seals(self, monkeypatch, tweets):
        """Structural guard: an online join runs no numpy bit packing.
        The side vectors write and repack positions in Python-int words,
        and a seal hands the store its buffer as a list, which
        ``BitBuffer.append_ints`` packs; the vectorised ``BitBuffer.append``
        is left to numpy blocks (offline builds), so it never runs here."""
        calls = {"append": 0, "seals": 0, "repacks": 0}
        append = BitBuffer.append
        append_block = TwoLayerStore.append_block
        repack = FixedWidthVector._repack

        def counted(name, method):
            def wrapper(*args):
                calls[name] += 1
                return method(*args)

            return wrapper

        monkeypatch.setattr(BitBuffer, "append", counted("append", append))
        monkeypatch.setattr(
            TwoLayerStore, "append_block", counted("seals", append_block)
        )
        monkeypatch.setattr(
            FixedWidthVector, "_repack", counted("repacks", repack)
        )
        join = PositionFilterJoin(tweets, scheme="adapt")
        join.join(0.8)
        appended = sum(len(vector) for vector in join._positions.values())
        assert calls["seals"] > 0 and calls["repacks"] > 0
        assert calls["append"] == 0
        assert appended > 0


class TestJoinScaffolding:
    def test_processing_order_stable_by_size(self):
        sizes = np.asarray([3, 1, 2, 1])
        assert processing_order(sizes).tolist() == [1, 3, 2, 0]

    def test_normalize_pairs_maps_and_sorts(self):
        order = np.asarray([2, 0, 1])  # internal 0 -> original 2, etc.
        pairs = normalize_pairs([(1, 0), (0, 2)], order)
        assert pairs == [(0, 2), (1, 2)]
