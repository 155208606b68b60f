"""Tests for the R-S (two-collection) prefix-filter join."""

import numpy as np
import pytest

from repro.join import PrefixFilterRSJoin
from repro.obs import enabled_metrics
from repro.similarity import jaccard, tokenize_collection, tokenize_pair


def brute_rs_join(left, right, threshold, metric="jaccard"):
    pairs = []
    for i, r in enumerate(left.records):
        for j, s in enumerate(right.records):
            if jaccard(r, s) >= threshold - 1e-12:
                pairs.append((i, j))
    return pairs


def _make_strings(seed, count, overlap_pool):
    rng = np.random.default_rng(seed)
    strings = []
    for _ in range(count):
        size = int(rng.integers(2, 8))
        words = rng.choice(overlap_pool, size=size, replace=False)
        strings.append(" ".join(words))
    return strings


@pytest.fixture(scope="module")
def rs_collections():
    pool = [f"w{i}" for i in range(60)]
    left = _make_strings(1, 80, pool)
    right = _make_strings(2, 90, pool) + left[:10]  # guaranteed exact matches
    return tokenize_pair(left, right, mode="word")


class TestPrefixFilterRSJoin:
    @pytest.mark.parametrize("scheme", ["uncomp", "fix", "vari", "adapt"])
    @pytest.mark.parametrize("threshold", [0.5, 0.7, 0.9, 1.0])
    def test_matches_brute_force(self, rs_collections, scheme, threshold):
        left, right = rs_collections
        got = PrefixFilterRSJoin(left, right, scheme=scheme).join(threshold)
        assert got == brute_rs_join(left, right, threshold)

    def test_exact_copies_found(self, rs_collections):
        left, right = rs_collections
        pairs = PrefixFilterRSJoin(left, right).join(1.0)
        assert len(pairs) >= 10  # the planted verbatim copies

    def test_not_symmetric_in_roles_but_same_pairs(self, rs_collections):
        left, right = rs_collections
        forward = PrefixFilterRSJoin(left, right).join(0.7)
        backward = PrefixFilterRSJoin(right, left).join(0.7)
        assert sorted((b, a) for a, b in backward) == forward

    def test_requires_shared_dictionary(self):
        left = tokenize_collection(["a b"], mode="word")
        right = tokenize_collection(["a b"], mode="word")
        with pytest.raises(ValueError, match="share one token"):
            PrefixFilterRSJoin(left, right)

    def test_invalid_threshold(self, rs_collections):
        left, right = rs_collections
        join = PrefixFilterRSJoin(left, right)
        with pytest.raises(ValueError):
            join.join(0.0)

    def test_stats(self, rs_collections):
        left, right = rs_collections
        join = PrefixFilterRSJoin(left, right, scheme="adapt")
        pairs = join.join(0.6)
        assert join.last_stats.pairs == len(pairs)
        assert join.last_stats.index_bits > 0

    def test_qgram_mode(self):
        left_strings = ["abcdef", "ghijkl", "abcdeg"]
        right_strings = ["abcdef", "zzzzzz"]
        left, right = tokenize_pair(left_strings, right_strings, mode="qgram", q=2)
        pairs = PrefixFilterRSJoin(left, right).join(0.6)
        assert (0, 0) in pairs
        assert all(b == 0 for _, b in pairs)

    def test_empty_sides(self):
        left, right = tokenize_pair([], ["a b"], mode="word")
        assert PrefixFilterRSJoin(left, right).join(0.5) == []
        left, right = tokenize_pair(["a b"], [], mode="word")
        assert PrefixFilterRSJoin(left, right).join(0.5) == []


class TestProbeDecodeBound:
    """Regression: the probe loop used to call ``to_array`` per probing
    record per token, re-decompressing the same left-prefix list hundreds
    of times.  With the memoized decode, the total decoded-element count is
    bounded by the index size (each list decoded at most once)."""

    def test_decoded_elements_bounded_by_index_size(self, rs_collections):
        left, right = rs_collections
        join = PrefixFilterRSJoin(left, right, scheme="adapt")
        with enabled_metrics() as registry:
            join.join(0.7)
            decoded_elements = registry.counter("online.elements_decoded")
            decoded_lists = registry.counter("online.list_decodes")
        index_postings = sum(len(lst) for lst in join._lists.values())
        assert 0 < decoded_elements <= index_postings
        assert decoded_lists <= len(join._lists)

    def test_decode_count_independent_of_probe_count(self):
        # the same right-side record repeated many times must not multiply
        # the decode work: every probe after the first hits the memo
        pool = [f"w{i}" for i in range(12)]
        left_strings = [" ".join(pool[i : i + 4]) for i in range(8)]
        right_strings = [left_strings[0]] * 40
        left, right = tokenize_pair(left_strings, right_strings, mode="word")
        join = PrefixFilterRSJoin(left, right, scheme="adapt")
        with enabled_metrics() as registry:
            pairs = join.join(0.5)
            decoded_lists = registry.counter("online.list_decodes")
        assert len(pairs) >= 40  # each copy matches left_strings[0]
        assert decoded_lists <= len(join._lists)


class TestTokenizePair:
    def test_shared_dictionary(self):
        left, right = tokenize_pair(["a b"], ["b c"], mode="word")
        assert left.dictionary is right.dictionary
        assert left.num_tokens == 3

    def test_frequencies_counted_over_union(self):
        left, right = tokenize_pair(["x y"], ["x", "x z"], mode="word")
        dictionary = left.dictionary
        # x appears in 3 records, y and z in one each: x gets the largest id
        assert dictionary.id_of("x") > dictionary.id_of("y")
        assert dictionary.id_of("x") > dictionary.id_of("z")

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            tokenize_pair(["a"], ["b"], mode="bpe")
