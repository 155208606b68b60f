"""Tests for the q-gram count-filter edit-distance join (Gravano et al.)."""

import numpy as np
import pytest

from repro.join import JOIN_FILTERS, SegmentFilterJoin, brute_edit_distance_join
from repro.join.edcount import EDCountFilterJoin


@pytest.mark.parametrize("scheme", ["uncomp", "fix", "vari", "adapt"])
@pytest.mark.parametrize("delta", [0, 1, 2])
class TestCorrectness:
    def test_matches_brute_force(self, char_strings, scheme, delta):
        got = EDCountFilterJoin(char_strings, q=2, scheme=scheme).join(delta)
        assert got == brute_edit_distance_join(char_strings, delta)

    def test_agrees_with_segment_filter(self, char_strings, scheme, delta):
        count = EDCountFilterJoin(char_strings, q=2, scheme=scheme).join(delta)
        segment = SegmentFilterJoin(char_strings, scheme=scheme).join(delta)
        assert count == segment


class TestThresholds:
    """One validator for every filter (``join.base.check_threshold``): the
    edit-distance joins take what the edit-distance searcher takes."""

    @pytest.mark.parametrize("name", ["segment", "edcount"])
    def test_integral_float_is_an_edit_count(self, char_strings, name):
        join = JOIN_FILTERS[name](char_strings)
        assert join.join(1.0) == brute_edit_distance_join(char_strings, 1)

    @pytest.mark.parametrize("name", ["segment", "edcount"])
    def test_fractional_delta_rejected_not_truncated(self, char_strings, name):
        with pytest.raises(ValueError, match="integral"):
            JOIN_FILTERS[name](char_strings).join(1.5)

    @pytest.mark.parametrize("name", ["segment", "edcount"])
    def test_a_collection_is_joined_by_its_strings(
        self, char_strings, qgram_collection, name
    ):
        filter_cls = JOIN_FILTERS[name]
        assert filter_cls(qgram_collection).join(1) == (
            filter_cls(char_strings).join(1)
        )


class TestBehaviour:
    def test_short_string_fallback(self):
        # pairs that share zero grams but are within distance: 'cbd'/'cdd'
        strings = ["cbd", "cdd", "zzzz"]
        assert EDCountFilterJoin(strings, q=2).join(1) == [(0, 1)]

    def test_empty_strings(self):
        strings = ["", "", "a", "ab"]
        assert EDCountFilterJoin(strings, q=2).join(1) == (
            brute_edit_distance_join(strings, 1)
        )

    def test_q_three(self, char_strings):
        got = EDCountFilterJoin(char_strings, q=3).join(1)
        assert got == brute_edit_distance_join(char_strings, 1)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            EDCountFilterJoin(["a"], q=0)
        with pytest.raises(ValueError):
            EDCountFilterJoin(["a"]).join(-1)

    def test_stats_and_compression(self, char_strings):
        join = EDCountFilterJoin(char_strings, q=2, scheme="adapt")
        pairs = join.join(1)
        assert join.last_stats.pairs == len(pairs)
        assert join.last_stats.index_bits > 0
        uncomp = EDCountFilterJoin(char_strings, q=2, scheme="uncomp")
        uncomp.join(1)
        # count-filter lists are dense: compression pays off
        assert join.last_stats.index_bits < uncomp.last_stats.index_bits
