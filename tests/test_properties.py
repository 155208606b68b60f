"""Property-based tests (hypothesis) on the core invariants.

The invariants mirror the paper's correctness requirements: compression is
lossless (requirement iii of Chapter 1), operations on compressed lists
agree with uncompressed semantics (requirement i), and online construction
yields the same content as offline (requirement ii).
"""

import bisect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import (
    CSSList,
    EliasFanoList,
    MILCList,
    PForDeltaList,
    RoaringList,
    UncompressedList,
    VByteList,
)
from repro.compression.bitpack import BitBuffer, width_for
from repro.compression.online import AdaptList, FixList, ModelList, VariList
from repro.compression.online.positions import FixedWidthVector
from repro.core.framework import UncompressedOnlineList
from repro.similarity.edit_distance import edit_distance
from repro.similarity.measures import (
    jaccard,
    length_bounds,
    prefix_length,
    required_overlap,
)
from repro.similarity.verify import overlap_reaches, verify_overlap_from

sorted_ids = st.lists(
    st.integers(min_value=0, max_value=2**32 - 1),
    min_size=0,
    max_size=300,
    unique=True,
).map(sorted)

OFFLINE = [
    UncompressedList,
    MILCList,
    CSSList,
    PForDeltaList,
    VByteList,
    EliasFanoList,
    RoaringList,
]
ONLINE = [FixList, VariList, AdaptList]


@pytest.mark.parametrize("cls", OFFLINE)
class TestOfflineLossless:
    @given(values=sorted_ids)
    @settings(max_examples=25, deadline=None)
    def test_roundtrip(self, cls, values):
        assert cls(values).to_array().tolist() == values

    @given(values=sorted_ids, key=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_lower_bound_agrees_with_bisect(self, cls, values, key):
        assert cls(values).lower_bound(key) == bisect.bisect_left(values, key)

    @given(values=sorted_ids)
    @settings(max_examples=15, deadline=None)
    def test_size_accounting_non_negative(self, cls, values):
        assert cls(values).size_bits() >= 0


@pytest.mark.parametrize("cls", ONLINE)
class TestOnlineMatchesOffline:
    @given(values=sorted_ids)
    @settings(max_examples=25, deadline=None)
    def test_online_content_equals_input(self, cls, values):
        lst = cls()
        lst.extend(values)
        lst.finalize()
        assert lst.to_array().tolist() == values

    @given(values=sorted_ids, key=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_lower_bound_before_finalize(self, cls, values, key):
        lst = cls()
        lst.extend(values)
        assert lst.lower_bound(key) == bisect.bisect_left(values, key)

    @given(values=sorted_ids)
    @settings(max_examples=15, deadline=None)
    def test_cursor_full_scan(self, cls, values):
        lst = cls()
        lst.extend(values)
        cursor = lst.cursor()
        seen = []
        while not cursor.exhausted:
            seen.append(cursor.value())
            cursor.advance()
        assert seen == values


@pytest.mark.parametrize("cls", ONLINE + [ModelList, UncompressedOnlineList])
class TestOnlineSuffixRead:
    """``suffix(key)`` is ``(lower_bound(key), the decoded ids >= key)``
    whichever region the key falls in."""

    @given(values=sorted_ids, data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_suffix_is_lower_bound_and_tail(self, cls, values, data):
        lst = cls()
        # a sealed head, then a tail the seal policy may or may not seal
        split = data.draw(st.integers(0, len(values)))
        lst.extend(values[:split])
        lst.finalize()
        lst.extend(values[split:])
        decoded = lst.to_array().tolist()
        sealed = lst.compressed_length
        # below, at and just past both ends of each region, and anywhere
        edges = [
            decoded[index] + shift
            for index in (0, sealed - 1, sealed, len(decoded) - 1)
            if 0 <= index < len(decoded)
            for shift in (-1, 0, 1)
        ]
        keys = [0, 2**32] + edges + data.draw(
            st.lists(st.integers(0, 2**32 - 1), max_size=5)
        )
        for key in keys:
            start, ids = lst.suffix(key)
            assert ids == [x for x in decoded if x >= key], key
            assert start == lst.lower_bound(key), key


class TestBitPackProperties:
    @given(
        st.integers(1, 32).flatmap(
            lambda w: st.tuples(
                st.just(w),
                st.lists(st.integers(0, 2**w - 1), min_size=0, max_size=200),
            )
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_pack_unpack_roundtrip(self, width_and_values):
        width, values = width_and_values
        buf = BitBuffer()
        buf.append(np.asarray(values, dtype=np.uint64), width)
        assert buf.read(0, width, len(values)).tolist() == values

    @given(st.integers(0, 2**32 - 1))
    def test_width_for_is_minimal(self, value):
        width = width_for(value)
        assert value < 2**width
        if width > 1:
            assert value >= 2 ** (width - 1)


class TestPositionVectorProperties:
    @given(st.lists(st.integers(0, 2**31 - 1), max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_any_order(self, values):
        vec = FixedWidthVector()
        vec.extend(values)
        assert vec.to_list() == values


class TestMeasureProperties:
    token_sets = st.lists(
        st.integers(0, 100), min_size=0, max_size=40, unique=True
    ).map(sorted)

    @given(left=token_sets, right=token_sets)
    @settings(max_examples=60, deadline=None)
    def test_jaccard_symmetric_and_bounded(self, left, right):
        a = np.asarray(left, dtype=np.int64)
        b = np.asarray(right, dtype=np.int64)
        assert jaccard(a, b) == jaccard(b, a)
        assert 0.0 <= jaccard(a, b) <= 1.0

    @given(
        left=token_sets.filter(len),
        right=token_sets.filter(len),
        tau=st.floats(0.1, 0.99),
    )
    @settings(max_examples=60, deadline=None)
    def test_filter_bounds_sound(self, left, right, tau):
        """Any pair at/above the threshold satisfies every filter bound."""
        a = np.asarray(left, dtype=np.int64)
        b = np.asarray(right, dtype=np.int64)
        if jaccard(a, b) < tau:
            return
        shared = len(set(left) & set(right))
        assert shared >= required_overlap(a.size, b.size, tau)
        low, high = length_bounds(a.size, tau)
        assert low <= b.size <= high
        prefix_a = set(left[: prefix_length(a.size, tau)])
        prefix_b = set(right[: prefix_length(b.size, tau)])
        assert prefix_a & prefix_b, "Lemma 1 violated"


class TestSetVerifyProperties:
    """A search verifies against the query's token set
    (:func:`overlap_reaches`); it must accept exactly the records the
    merge (:func:`verify_overlap_from`) accepts, at every ``needed``."""

    token_sets = st.lists(
        st.integers(0, 60), min_size=0, max_size=30, unique=True
    ).map(sorted)

    @given(query=token_sets, record=token_sets)
    @settings(max_examples=150, deadline=None)
    def test_set_check_accepts_exactly_when_the_merge_does(self, query, record):
        q = np.asarray(query, dtype=np.int64)
        r = np.asarray(record, dtype=np.int64)
        tokens = set(query)
        for needed in range(-1, max(q.size, r.size) + 2):
            merged = verify_overlap_from(q, r, 0, 0, 0, needed) >= needed
            assert overlap_reaches(tokens, r, needed) == merged, needed


class TestSerializeProperties:
    @given(values=sorted_ids)
    @settings(max_examples=25, deadline=None)
    def test_store_arrays_roundtrip(self, values):
        from repro.compression import CSSList, TwoLayerStore

        lst = CSSList(values)
        rebuilt = TwoLayerStore.from_arrays(lst.store.to_arrays())
        assert rebuilt.to_array().tolist() == values
        assert rebuilt.size_bits() == lst.size_bits()


class TestEditDistanceProperties:
    words = st.text(alphabet="abcd", max_size=12)

    @given(a=words, b=words)
    @settings(max_examples=80, deadline=None)
    def test_triangle_inequality(self, a, b):
        assert edit_distance(a, b) <= len(a) + len(b)
        assert edit_distance(a, b) >= abs(len(a) - len(b))

    @given(a=words, b=words, c=words)
    @settings(max_examples=60, deadline=None)
    def test_metric_triangle(self, a, b, c):
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)

    @given(a=words)
    def test_identity(self, a):
        assert edit_distance(a, a) == 0
