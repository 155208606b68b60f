"""Tests for the online two-region lists: Fix, Vari, Adapt, Model."""

import numpy as np
import pytest

from repro.compression import METADATA_BITS
from repro.compression.online import (
    RHO,
    THEOREM_1_BUFFER,
    AdaptList,
    FixList,
    ModelList,
    OnlineSortedIDList,
    VariList,
)
from repro.core.framework import UncompressedOnlineList
from repro.obs import enabled_metrics

from conftest import EXAMPLE_5_LIST

ALL_ONLINE = [FixList, VariList, AdaptList, ModelList, UncompressedOnlineList]


@pytest.mark.parametrize("cls", ALL_ONLINE)
class TestOnlineCommonBehaviour:
    def test_roundtrip_with_finalize(self, cls, random_ids):
        lst = cls()
        lst.extend(random_ids.tolist())
        lst.finalize()
        assert np.array_equal(lst.to_array(), random_ids)

    def test_roundtrip_without_finalize(self, cls, clustered_ids):
        lst = cls()
        lst.extend(clustered_ids.tolist())
        assert np.array_equal(lst.to_array(), clustered_ids)

    def test_random_access_spans_regions(self, cls, random_ids):
        lst = cls()
        lst.extend(random_ids.tolist())
        for i in (0, 5, random_ids.size // 2, random_ids.size - 1):
            assert lst[i] == random_ids[i]

    def test_lower_bound_spans_regions(self, cls, clustered_ids):
        lst = cls()
        lst.extend(clustered_ids.tolist())
        for key in (
            0,
            int(clustered_ids[3]),
            int(clustered_ids[-2]),
            int(clustered_ids[-1]) + 1,
        ):
            assert lst.lower_bound(key) == int(
                np.searchsorted(clustered_ids, key, side="left")
            )

    def test_contains(self, cls):
        lst = cls()
        lst.extend([5, 10, 1000, 2000])
        assert lst.contains(10)
        assert lst.contains(2000)
        assert not lst.contains(11)

    def test_rejects_non_ascending(self, cls):
        lst = cls()
        lst.append(10)
        with pytest.raises(ValueError):
            lst.append(10)
        with pytest.raises(ValueError):
            lst.append(3)

    def test_rejects_out_of_universe(self, cls):
        lst = cls()
        with pytest.raises(ValueError):
            lst.append(-1)
        with pytest.raises(ValueError):
            lst.append(2**32)

    def test_empty_finalize(self, cls):
        lst = cls()
        lst.finalize()
        assert len(lst) == 0

    def test_length_tracks_regions(self, cls):
        lst = cls()
        for i, value in enumerate([1, 100, 10_000, 10_001, 10_002], start=1):
            lst.append(value)
            assert len(lst) == i
            assert len(lst) == lst.compressed_length + lst.buffer_length

    def test_size_bits_monotone_reporting(self, cls, random_ids):
        lst = cls()
        lst.extend(random_ids[:500].tolist())
        before = lst.final_size_bits()
        lst.finalize()
        assert lst.size_bits() > 0
        assert before > 0


class TestSuffixTelemetry:
    @pytest.mark.parametrize("cls", ALL_ONLINE)
    def test_one_decode_of_the_ids_returned(self, cls):
        lst = cls()
        lst.extend(range(0, 3000, 7))
        lst.finalize()
        lst.extend(range(5000, 5100, 3))
        for key in (0, 1500, 2996, 5050, 9000):
            with enabled_metrics() as registry:
                _, ids = lst.suffix(key)
                assert registry.counter("online.list_decodes") == 1
                assert registry.counter("online.elements_decoded") == len(ids)

    def test_decodes_blocks_only_when_the_seek_lands_in_them(self):
        lst = FixList(block_size=16)
        lst.extend(range(0, 16 * 10 * 2, 2))  # ten 16-id blocks
        lst.finalize()
        lst.extend(range(1000, 1010))  # buffered
        for key in (0, 16 * 2 * 7, 16 * 2 * 10 - 2):
            with enabled_metrics() as registry:
                lst.suffix(key)
                assert registry.counter("twolayer.blocks_decoded") == 10
        for key in (16 * 2 * 10 - 1, 1005):  # in the buffer
            with enabled_metrics() as registry:
                lst.suffix(key)
                assert registry.counter("twolayer.blocks_decoded") == 0
        with enabled_metrics() as registry:
            lst.suffix(10**6)  # past every id: nothing is decoded
            assert registry.counter("twolayer.blocks_decoded") == 0


class TestFix:
    def test_seals_at_block_size(self):
        lst = FixList(block_size=4)
        lst.extend([1, 2, 3, 4])
        assert lst.buffer_length == 4
        lst.append(5)  # fifth arrival seals the first four
        assert lst.compressed_length == 4
        assert lst.buffer_length == 1

    def test_all_blocks_fixed_size(self, random_ids):
        lst = FixList(block_size=8)
        lst.extend(random_ids[:100].tolist())
        assert lst._store.block_sizes() == [8] * 12
        lst.finalize()
        assert lst._store.block_sizes() == [8] * 12 + [4]

    def test_invalid_block_size(self):
        with pytest.raises(ValueError):
            FixList(block_size=0)


class TestVari:
    def test_theorem_1_default_buffer(self):
        assert THEOREM_1_BUFFER == 2 * METADATA_BITS == 138
        assert VariList().buffer_capacity == 138

    def test_example_4_size(self):
        lst = VariList()
        lst.extend(EXAMPLE_5_LIST)
        lst.finalize()
        assert lst.size_bits() == 215
        assert lst._store.block_sizes() == [10, 5]

    def test_seals_only_first_dp_block(self):
        lst = VariList(buffer_capacity=12)
        # eleven near-dense values, then a jump (Example 4's structure)
        lst.extend([15, 17, 18, 19, 20, 23, 33, 37, 39, 40, 4058])
        lst.append(4152)  # buffer is full: DP runs, first block sealed
        assert lst.compressed_length == 10
        assert lst.buffer_length == 2

    def test_dp_sees_the_filling_arrival(self):
        # regression: sealing used to trigger at len(buffer)+1 >= capacity,
        # so the DP ran over capacity-1 elements and a sealed block could
        # never reach the buffer capacity itself
        lst = VariList(buffer_capacity=4)
        lst.extend([1, 2, 3, 4])  # dense run: the DP keeps it as one block
        assert lst._store.block_sizes() == [4]
        assert lst.buffer_length == 0

    def test_sealed_block_can_fill_the_whole_buffer(self):
        # the DP may decide the whole buffer is one optimal block, so a
        # sealed block of exactly buffer_capacity elements must be reachable
        # (pre-fix it was capped at capacity - 1)
        lst = VariList(buffer_capacity=16)
        lst.extend(range(100, 116))  # dense: one optimal block of 16
        assert lst._store.block_sizes() == [16]
        assert lst.buffer_length == 0

    def test_default_capacity_drains_fully_on_dense_run(self):
        lst = VariList()
        lst.extend(range(138))  # the 138th arrival fills the Theorem-1 buffer
        assert lst.compressed_length + lst.buffer_length == 138
        assert lst.compressed_length > 0
        # the DP ran over all 138 elements; its blocks cover a prefix of them
        assert sum(lst._store.block_sizes()) == lst.compressed_length

    def test_seal_waits_for_full_buffer(self):
        lst = VariList(buffer_capacity=6)
        lst.extend([10, 20, 30, 40, 50])  # capacity - 1 arrivals
        assert lst.compressed_length == 0  # nothing seals before the fill
        lst.append(60)
        assert lst.compressed_length > 0

    def test_matches_offline_css_when_finalized_in_one_shot(self, clustered_ids):
        from repro.compression import CSSList

        online = VariList(buffer_capacity=10**9)  # never auto-seals
        online.extend(clustered_ids.tolist())
        online.finalize()
        offline = CSSList(clustered_ids, max_block=None)
        assert online.size_bits() == offline.size_bits()

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            VariList(buffer_capacity=1)


class TestAdapt:
    def test_rho_constant(self):
        assert RHO == 37  # 69-bit metadata minus the absorbed 32-bit base

    def test_example_5_walkthrough(self):
        lst = AdaptList()
        lst.extend(EXAMPLE_5_LIST[:10])
        assert lst.compressed_length == 0  # still buffered
        lst.append(4058)  # paper: benefit delta 43 > rho -> seal
        assert lst.compressed_length == 10
        assert lst.buffer_length == 1

    def test_example_5_final_size(self):
        lst = AdaptList()
        lst.extend(EXAMPLE_5_LIST)
        lst.finalize()
        assert lst.size_bits() == 215
        assert lst.compression_ratio() == pytest.approx(480 / 215, abs=1e-6)

    def test_dense_stream_compresses_well(self):
        lst = AdaptList()
        lst.extend(range(1000, 3000))
        lst.finalize()
        # Algorithm 3 seals dense runs at delta-width boundaries (every ~2^k
        # elements the width grows by one bit, flipping the predicate), which
        # is consistent with Theorem 1's <= 138-element optimal blocks
        assert lst.compression_ratio() > 3
        assert max(lst._store.block_sizes()) <= 2 * METADATA_BITS

    def test_max_buffer_forces_seal(self):
        lst = AdaptList(max_buffer=16)
        lst.extend(range(0, 100, 2))
        assert lst.num_blocks >= 2

    def test_invalid_max_buffer(self):
        with pytest.raises(ValueError):
            AdaptList(max_buffer=1)

    def test_close_to_vari_on_clustered_data(self, clustered_ids):
        adapt = AdaptList()
        adapt.extend(clustered_ids.tolist())
        adapt.finalize()
        vari = VariList()
        vari.extend(clustered_ids.tolist())
        vari.finalize()
        # Table 7.3: Adapt within a modest factor of Vari
        assert adapt.size_bits() <= 1.35 * vari.size_bits()


class TestModel:
    def test_example_5_size(self):
        lst = ModelList(seed=0)
        lst.extend(EXAMPLE_5_LIST)
        lst.finalize()
        assert lst.size_bits() == 215

    def test_deterministic_given_seed(self, clustered_ids):
        sizes = []
        for _ in range(2):
            lst = ModelList(seed=7)
            lst.extend(clustered_ids.tolist())
            lst.finalize()
            sizes.append(lst.size_bits())
        assert sizes[0] == sizes[1]

    def test_invalid_sample_paths(self):
        with pytest.raises(ValueError):
            ModelList(sample_paths=0)

    def test_compresses_clustered_data(self, clustered_ids):
        lst = ModelList(seed=1)
        lst.extend(clustered_ids.tolist())
        lst.finalize()
        assert lst.compression_ratio() > 1.5


class TestInterleavedReadsAndWrites:
    """The join access pattern: probe, append, probe again — continuously."""

    @pytest.mark.parametrize("cls", [FixList, VariList, AdaptList])
    def test_reads_correct_after_every_append(self, cls, clustered_ids):
        lst = cls()
        seen = []
        for value in clustered_ids[:400].tolist():
            lst.append(value)
            seen.append(value)
            if len(seen) % 37 == 0:
                assert lst.to_array().tolist() == seen
                probe = seen[len(seen) // 2]
                assert lst.contains(probe)
                assert lst.lower_bound(probe) == seen.index(probe)

    @pytest.mark.parametrize("cls", [FixList, VariList, AdaptList])
    def test_cursor_snapshot_between_appends(self, cls):
        lst = cls()
        lst.extend([1, 5, 9, 200, 300])
        cursor = lst.cursor()
        cursor.seek(9)
        assert cursor.value() == 9

    def test_vari_seals_repeatedly(self):
        lst = VariList(buffer_capacity=8)
        # three bursts separated by big jumps: multiple partial seals
        values = []
        base = 0
        for _ in range(6):
            base += 100_000
            values.extend(range(base, base + 6))
        lst.extend(values)
        lst.finalize()
        assert lst.to_array().tolist() == values
        assert lst.num_blocks >= 3


class TestUncompressedOnline:
    def test_never_compresses(self, random_ids):
        lst = UncompressedOnlineList()
        lst.extend(random_ids[:200].tolist())
        lst.finalize()
        assert lst.compressed_length == 0
        assert lst.size_bits() == 32 * 200
