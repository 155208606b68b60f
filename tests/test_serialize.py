"""Tests for store serialization (arrays out and back without re-encoding)."""

import numpy as np

from repro.compression import CSSList, MILCList, TwoLayerStore
from repro.compression.serialize import store_from_arrays, store_to_arrays


class TestStoreRoundtrip:
    def test_arrays_roundtrip(self, clustered_ids):
        lst = CSSList(clustered_ids)
        rebuilt = store_from_arrays(store_to_arrays(lst.store))
        assert np.array_equal(rebuilt.to_array(), clustered_ids)
        assert rebuilt.size_bits() == lst.size_bits()
        assert rebuilt.block_sizes() == lst.block_sizes()

    def test_lower_bound_after_roundtrip(self, random_ids):
        lst = MILCList(random_ids)
        rebuilt = store_from_arrays(store_to_arrays(lst.store))
        for key in (0, int(random_ids[50]) + 1, 10**9):
            assert rebuilt.lower_bound(key) == lst.lower_bound(key)

    def test_empty_store(self):
        store = TwoLayerStore()
        rebuilt = store_from_arrays(store_to_arrays(store))
        assert len(rebuilt) == 0

    def test_appendable_after_load(self, random_ids):
        lst = MILCList(random_ids[:100])
        rebuilt = store_from_arrays(store_to_arrays(lst.store))
        rebuilt.append_block(np.asarray([10**7, 10**7 + 5]))
        assert rebuilt.last_value() == 10**7 + 5
