"""Tests for the store's array form (arrays out and back without re-encoding)."""

import numpy as np
import pytest

from repro.compression import CSSList, MILCList, TwoLayerStore
from repro.compression.twolayer import LayoutError


def roundtrip(store, **kwargs):
    return TwoLayerStore.from_arrays(store.to_arrays(), **kwargs)


class TestStoreRoundtrip:
    def test_arrays_roundtrip(self, clustered_ids):
        lst = CSSList(clustered_ids)
        rebuilt = roundtrip(lst.store)
        assert np.array_equal(rebuilt.to_array(), clustered_ids)
        assert rebuilt.size_bits() == lst.size_bits()
        assert rebuilt.block_sizes() == lst.block_sizes()
        assert rebuilt.check() == []

    def test_lower_bound_after_roundtrip(self, random_ids):
        lst = MILCList(random_ids)
        rebuilt = roundtrip(lst.store)
        for key in (0, int(random_ids[50]) + 1, 10**9):
            assert rebuilt.lower_bound(key) == lst.lower_bound(key)

    def test_empty_store(self):
        store = TwoLayerStore()
        rebuilt = roundtrip(store)
        assert len(rebuilt) == 0

    def test_appendable_after_load(self, random_ids):
        lst = MILCList(random_ids[:100])
        rebuilt = roundtrip(lst.store)
        rebuilt.append_block(np.asarray([10**7, 10**7 + 5]))
        assert rebuilt.last_value() == 10**7 + 5

    def test_zero_copy_aliases_and_refuses_appends(self, clustered_ids):
        lst = CSSList(clustered_ids)
        arrays = lst.store.to_arrays()
        frozen = TwoLayerStore.from_arrays(arrays, copy=False)
        assert np.array_equal(frozen.to_array(), clustered_ids)
        # the vectors and the packed words *are* the caller's memory
        arrays["bases"][0] += 1
        assert frozen.get(0) == int(clustered_ids[0]) + 1
        arrays["words"][:] = 0
        assert frozen.get(1) == frozen.get(0)
        with pytest.raises(ValueError, match="frozen"):
            frozen.append_block(np.asarray([10**8]))

    def test_short_words_rejected(self, clustered_ids):
        arrays = CSSList(clustered_ids).store.to_arrays()
        arrays["words"] = arrays["words"][:-1]
        for copy in (True, False):
            with pytest.raises(LayoutError, match="fewer than") as excinfo:
                TwoLayerStore.from_arrays(arrays, copy=copy)
            assert excinfo.value.key == "words"

    def test_zero_copy_needs_saved_dtypes(self, clustered_ids):
        arrays = CSSList(clustered_ids).store.to_arrays()
        arrays["widths"] = arrays["widths"].astype(np.int32)
        assert TwoLayerStore.from_arrays(arrays).check() == []
        with pytest.raises(ValueError, match="int64 'widths'"):
            TwoLayerStore.from_arrays(arrays, copy=False)
