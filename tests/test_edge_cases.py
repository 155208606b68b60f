"""Edge-case and cross-cutting tests the module suites don't cover."""

import numpy as np
import pytest

from repro import storage
from repro.bench.tables import format_value
from repro.compression import (
    CSSList,
    MILCList,
    UncompressedList,
    block_cost_bits,
)
from repro.compression.base import MAX_ELEMENT, ListCursor
from repro.compression.online import AdaptList, FixList
from repro.search import InvertedIndex, JaccardSearcher, merge_skip


class TestUniverseBoundaries:
    @pytest.mark.parametrize("cls", [UncompressedList, MILCList, CSSList])
    def test_max_32bit_ids(self, cls):
        values = [MAX_ELEMENT - 3, MAX_ELEMENT - 1, MAX_ELEMENT]
        lst = cls(values)
        assert lst.to_array().tolist() == values
        assert lst.contains(MAX_ELEMENT)
        assert lst.lower_bound(MAX_ELEMENT + 1) == 3

    def test_online_accepts_max_id(self):
        lst = AdaptList()
        lst.append(MAX_ELEMENT)
        assert lst[0] == MAX_ELEMENT

    def test_id_zero_everywhere(self):
        for cls in (UncompressedList, MILCList, CSSList):
            assert cls([0])[0] == 0
        online = FixList()
        online.append(0)
        assert online.contains(0)


class TestBaseCursor:
    def test_default_cursor_on_uncompressed(self):
        cursor = ListCursor(UncompressedList([2, 4, 6]))
        cursor.seek(5)
        assert cursor.value() == 6
        cursor.advance()
        assert cursor.exhausted

    def test_seek_never_moves_backwards(self):
        cursor = ListCursor(UncompressedList([1, 5, 9]))
        cursor.seek(9)
        cursor.seek(2)
        assert cursor.value() == 9

    def test_cursor_on_empty_list(self):
        cursor = ListCursor(UncompressedList([]))
        assert cursor.exhausted
        cursor.seek(5)  # no-op
        assert cursor.remaining() == 0


class TestLoadedIndexBehaviour:
    def test_mergeskip_runs_on_loaded_index(self, tmp_path, word_collection):
        """Cursors (and therefore MergeSkip) must work on deserialized lists."""
        index = InvertedIndex(word_collection, scheme="css")
        loaded = storage.open_index(storage.save_index(index, tmp_path / "i"))
        lists = list(loaded.lists.values())[:6]
        populated = [l for l in lists if len(l) >= 1]
        out = merge_skip(populated, 1)
        expected = sorted(
            set(int(x) for l in populated for x in l.to_array())
        )
        assert out.tolist() == expected

    def test_loaded_searcher_stats(self, tmp_path, word_collection):
        index = InvertedIndex(word_collection, scheme="milc")
        loaded = storage.open_index(storage.save_index(index, tmp_path / "i"))
        searcher = JaccardSearcher(loaded)
        result = searcher.search(word_collection.strings[0], 0.8)
        assert result.stats.lists_probed > 0


class TestBlockCostIdentities:
    def test_cost_plus_saving_is_uncompressed(self):
        from repro.compression import block_saving_bits

        for count, delta in ((1, 0), (5, 100), (138, 2**20)):
            assert (
                block_cost_bits(count, delta)
                + block_saving_bits(count, delta)
                == 32 * count
            )

    def test_final_size_bits_matches_finalize(self):
        values = [3, 9, 15, 800, 801, 9000]
        preview = AdaptList()
        preview.extend(values)
        predicted = preview.final_size_bits()
        actual = AdaptList()
        actual.extend(values)
        actual.finalize()
        # final_size_bits models sealing the buffer as ONE block; finalize
        # on Adapt does exactly that, so the numbers agree
        assert predicted == actual.size_bits()


class TestTableFormatting:
    def test_format_value_branches(self):
        assert format_value(0.0) == "0"
        assert format_value(3.14159) == "3.142"
        assert format_value(42.0) == "42.0"
        assert format_value(1234567.0) == "1,234,567"
        assert format_value("text") == "text"
        assert format_value(7) == "7"


class TestCLIErrors:
    def test_missing_corpus_file(self, tmp_path):
        from repro.cli import main

        with pytest.raises(FileNotFoundError):
            main(["stats", str(tmp_path / "nope.txt")])

    def test_empty_corpus(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "empty.txt"
        path.write_text("", encoding="utf-8")
        assert main(["stats", path.as_posix()]) == 0
        assert "0 records" in capsys.readouterr().out


class TestSearcherExactThreshold:
    def test_threshold_one_means_equality(self, word_collection):
        searcher = JaccardSearcher(InvertedIndex(word_collection, scheme="css"))
        query = word_collection.strings[2]
        hits = searcher.search(query, 1.0)
        query_set = set(word_collection.records[2].tolist())
        for hit in hits:
            assert set(word_collection.records[hit].tolist()) == query_set
