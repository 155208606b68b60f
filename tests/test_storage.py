"""Tests for the unified persistence subsystem (repro.storage).

Covers the bundle directory format end to end: round-trips (eager and
zero-copy mmap), the engine-level save/open API, the refusal of the
removed sharded and dynamic layouts, and the contract that every load
error names the offending file and array key.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from repro import storage
from repro.cli import main as cli_main
from repro.engine import SimilarityEngine
from repro.search import (
    DynamicInvertedIndex,
    InvertedIndex,
    JaccardSearcher,
    brute_similarity_search,
)


def _mmap_base(array):
    """The np.memmap at the bottom of ``array``'s view chain (None if the
    array is an ordinary in-memory buffer)."""
    base = array
    while base is not None:
        if isinstance(base, np.memmap):
            return base
        base = getattr(base, "base", None)
    return None


def _answers(index, word_strings, taus=(0.6, 0.9)):
    searcher = JaccardSearcher(index, algorithm="mergeskip")
    out = []
    for qid in (0, 17, 40):
        for tau in taus:
            out.append(searcher.search(word_strings[qid], tau))
    return out


# ---------------------------------------------------------------------- #
# static bundles
# ---------------------------------------------------------------------- #
class TestStaticBundle:
    @pytest.mark.parametrize("scheme", ["uncomp", "milc", "css"])
    @pytest.mark.parametrize("mmap", [False, True])
    def test_roundtrip_bit_identical(
        self, tmp_path, word_collection, word_strings, scheme, mmap
    ):
        index = InvertedIndex(word_collection, scheme=scheme)
        path = storage.save_index(index, tmp_path / "bundle")
        loaded = storage.open_index(path, mmap=mmap)
        assert loaded.scheme == scheme
        assert set(loaded.lists) == set(index.lists)
        assert loaded.size_bits() == index.size_bits()
        assert loaded.supports_random_access is index.supports_random_access
        for token in list(index.lists)[:20]:
            assert np.array_equal(
                loaded.lists[token].to_array(), index.lists[token].to_array()
            )
        assert _answers(loaded, word_strings) == _answers(index, word_strings)

    def test_collection_travels_with_the_bundle(
        self, tmp_path, word_collection
    ):
        index = InvertedIndex(word_collection, scheme="css")
        path = storage.save_index(index, tmp_path / "bundle")
        loaded = storage.open_index(path)
        assert loaded.collection.strings == word_collection.strings
        for rid in (0, 5, len(word_collection) - 1):
            assert np.array_equal(
                loaded.collection.records[rid], word_collection.records[rid]
            )
        dictionary = loaded.collection.dictionary
        for token in ("tok0", "tok5", "tok40"):
            assert dictionary.id_of(token) == (
                word_collection.dictionary.id_of(token)
            )

    def test_mmap_serves_posting_lists_off_disk(
        self, tmp_path, word_collection
    ):
        index = InvertedIndex(word_collection, scheme="css")
        path = storage.save_index(index, tmp_path / "bundle")
        loaded = storage.open_index(path, mmap=True)
        token = next(iter(loaded.lists))
        store = loaded.lists[token].store
        # the packed data words must alias the on-disk file, not a copy
        assert _mmap_base(store._data._words) is not None
        assert _mmap_base(store._bases_np) is not None

    def test_mmap_opens_share_one_on_disk_copy(
        self, tmp_path, word_collection
    ):
        index = InvertedIndex(word_collection, scheme="css")
        path = storage.save_index(index, tmp_path / "bundle")
        first = storage.open_index(path, mmap=True)
        second = storage.open_index(path, mmap=True)
        token = next(iter(first.lists))
        words_file = str(path / "words.npy")
        for loaded in (first, second):
            mapped = _mmap_base(loaded.lists[token].store._data._words)
            assert mapped is not None
            assert str(mapped.filename) == words_file

    def test_mmap_store_is_frozen_eager_is_appendable(
        self, tmp_path, word_collection
    ):
        index = InvertedIndex(word_collection, scheme="css")
        path = storage.save_index(index, tmp_path / "bundle")
        frozen = storage.open_index(path, mmap=True)
        token = next(iter(frozen.lists))
        with pytest.raises(ValueError, match="frozen"):
            frozen.lists[token].store.append_block(np.asarray([10**8]))
        eager = storage.open_index(path, mmap=False)
        eager.lists[token].store.append_block(np.asarray([10**8]))
        assert eager.lists[token].store.last_value() == 10**8

    def test_manifest_kind_and_version(self, tmp_path, word_collection):
        index = InvertedIndex(word_collection, scheme="css")
        path = storage.save_index(index, tmp_path / "bundle")
        manifest = storage.read_manifest(path, storage.BUNDLE_KIND)
        assert manifest["kind"] == storage.BUNDLE_KIND
        assert manifest["version"] == storage.BUNDLE_VERSION
        manifest["version"] = 999
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="version"):
            storage.open_index(path)

    def test_unsupported_scheme_rejected(self, tmp_path, word_collection):
        index = InvertedIndex(word_collection, scheme="pfordelta")
        with pytest.raises(TypeError, match="serialize"):
            storage.save_index(index, tmp_path / "bundle")

    def test_empty_collection_roundtrip(self, tmp_path):
        from repro.similarity import tokenize_collection

        collection = tokenize_collection([], mode="word")
        index = InvertedIndex(collection, scheme="css")
        path = storage.save_index(index, tmp_path / "empty")
        loaded = storage.open_index(path)
        assert loaded.lists == {}
        assert list(JaccardSearcher(loaded).search("anything", 0.5).ids) == []


# ---------------------------------------------------------------------- #
# the on-disk format is a contract: docs/api.md's table, not to_arrays()
# ---------------------------------------------------------------------- #
def _documented_arrays():
    """``{file stem: dtype name}`` parsed from docs/api.md's table."""
    text = (Path(__file__).parent.parent / "docs" / "api.md").read_text(
        encoding="utf-8"
    )
    rows = re.findall(r"^\| `(\w+)\.npy` \| `(\w+)` \|", text, re.M)
    assert len(rows) == 15
    return dict(rows)


def _saved_arrays(path):
    return {file.stem: np.load(file).dtype.name for file in path.glob("*.npy")}


def _write_handmade_bundle(path, collection):
    """A static css bundle written file by file from the documented format
    — no ``save_index``, no ``to_arrays``: every list is one block whose
    deltas are packed into a single word with plain integer arithmetic."""
    postings = {}
    for record_id, record in enumerate(collection.records):
        for token in record.tolist():
            postings.setdefault(token, []).append(record_id)
    columns = {name: [] for name in _documented_arrays()}
    for token, ids in postings.items():
        deltas = [rid - ids[0] for rid in ids[1:]]
        width = max(1, max(deltas, default=0).bit_length())
        assert width * len(deltas) <= 64  # fits the one hand-packed word
        packed = sum(delta << (width * i) for i, delta in enumerate(deltas))
        columns["tokens"].append(token)
        columns["kinds"].append(0)
        columns["block_counts"].append(1)
        columns["start_counts"].append(2)
        columns["word_counts"].append(2)
        columns["bit_counts"].append(width * len(deltas))
        columns["bases"].append(ids[0])
        columns["offsets"].append(0)
        columns["widths"].append(width)
        columns["starts"] += [0, len(ids)]
        columns["words"] += [packed, 0]  # the data word, plus one past the end
    sizes = [record.size for record in collection.records]
    columns["records_values"] = np.concatenate(collection.records).tolist()
    columns["records_offsets"] = np.cumsum([0] + sizes).tolist()
    path.mkdir()
    for name, dtype in _documented_arrays().items():
        np.save(path / f"{name}.npy", np.asarray(columns[name], dtype=dtype))
    dictionary = collection.dictionary
    ids = range(len(dictionary))
    (path / "strings.json").write_text(json.dumps(collection.strings))
    (path / "dictionary.json").write_text(
        json.dumps(
            {
                "tokens": [dictionary.token_of(i) for i in ids],
                "frequencies": [dictionary.frequency_of(i) for i in ids],
            }
        )
    )
    (path / "manifest.json").write_text(
        json.dumps(
            {
                "kind": "repro.index_bundle",
                "version": 1,
                "dynamic": False,
                "scheme": "css",
                "mode": collection.mode,
                "q": collection.q,
                "num_records": len(collection),
                "num_lists": len(postings),
            }
        )
    )


class TestFormatContract:
    def test_saved_arrays_match_the_documented_table(
        self, tmp_path, word_collection
    ):
        path = storage.save_index(
            InvertedIndex(word_collection, scheme="css"), tmp_path / "bundle"
        )
        assert _saved_arrays(path) == _documented_arrays()

    @pytest.mark.parametrize("mmap", [False, True])
    def test_handmade_bundle_opens_and_answers(self, tmp_path, mmap):
        from repro.similarity import tokenize_collection

        strings = ["a b c", "a b d", "b c d e", "a e", "c d e f", "a b c d"]
        collection = tokenize_collection(strings, mode="word")
        _write_handmade_bundle(tmp_path / "handmade", collection)
        assert storage.check_path(tmp_path / "handmade") == []
        index = storage.open_index(tmp_path / "handmade", mmap=mmap)
        assert index.num_postings() == sum(r.size for r in collection.records)
        searcher = JaccardSearcher(index)
        for query in strings:
            assert searcher.search(query, 0.5) == brute_similarity_search(
                collection, query, 0.5
            )


# ---------------------------------------------------------------------- #
# load errors name the offending file and array key
# ---------------------------------------------------------------------- #
class TestLoadErrorsNameTheFile:
    def _bundle(self, tmp_path, word_collection, scheme="css"):
        index = InvertedIndex(word_collection, scheme=scheme)
        return storage.save_index(index, tmp_path / "bundle")

    def test_missing_array_file(self, tmp_path, word_collection):
        path = self._bundle(tmp_path, word_collection)
        (path / "words.npy").unlink()
        with pytest.raises(ValueError, match=r"words\.npy"):
            storage.open_index(path)

    def test_garbage_array_file(self, tmp_path, word_collection):
        path = self._bundle(tmp_path, word_collection)
        (path / "starts.npy").write_bytes(b"not a numpy file")
        with pytest.raises(ValueError, match=r"starts\.npy"):
            storage.open_index(path)

    def test_wrong_dtype_names_file_and_key(self, tmp_path, word_collection):
        path = self._bundle(tmp_path, word_collection)
        widths = np.load(path / "widths.npy")
        np.save(path / "widths.npy", widths.astype(np.float64))
        with pytest.raises(ValueError) as excinfo:
            storage.open_index(path)
        assert "widths" in str(excinfo.value)
        assert "widths.npy" in str(excinfo.value)

    def test_truncated_words_named(self, tmp_path, word_collection):
        path = self._bundle(tmp_path, word_collection)
        words = np.load(path / "words.npy")
        np.save(path / "words.npy", words[:-1])
        with pytest.raises(ValueError, match=r"words\.npy"):
            storage.open_index(path)

    def test_corrupt_widths_rejected(self, tmp_path, word_collection):
        path = self._bundle(tmp_path, word_collection)
        widths = np.load(path / "widths.npy").copy()
        widths[0] = 50  # encoder never emits widths above 32
        np.save(path / "widths.npy", widths)
        with pytest.raises(ValueError, match="delta width"):
            storage.open_index(path)


# ---------------------------------------------------------------------- #
# the engine-level unified API
# ---------------------------------------------------------------------- #
class TestEnginePersistenceAPI:
    def test_static_save_open_mmap(
        self, tmp_path, word_collection, word_strings
    ):
        engine = SimilarityEngine(word_collection, scheme="css")
        path = engine.save(tmp_path / "engine")
        reopened = SimilarityEngine.open(path, mmap=True)
        query = word_strings[3]
        assert reopened.search(query, 0.7) == engine.search(query, 0.7)
        engine.close()
        reopened.close()

    def test_open_round_trip_has_one_surface(self, tmp_path, word_collection):
        """A reopened engine has the saved one's surface and answers, with
        the serving knobs given to ``open``."""
        queries = word_collection.strings[:8] + ["tok0 tok1 tok2"]
        with SimilarityEngine(word_collection) as engine:
            expected = [engine.search(q, 0.6).ids for q in queries]
            stat_names = set(engine.cache_stats())
            path = engine.save(tmp_path / "bundle")
        with SimilarityEngine.open(path, algorithm="scancount") as opened:
            assert opened.algorithm == "scancount"
            assert opened.num_records == len(word_collection)
            assert opened._pool._workers == 0
            assert [opened.search(q, 0.6).ids for q in queries] == expected
            batch = opened.search_batch(queries, 0.6, workers=2)
            assert [result.ids for result in batch] == expected
            assert set(opened.cache_stats()) == stat_names

    def test_open_rejects_a_foreign_directory(self, tmp_path):
        (tmp_path / "manifest.json").write_text(json.dumps({"kind": "exotic"}))
        with pytest.raises(ValueError, match="not a repro.index_bundle .*exotic"):
            SimilarityEngine.open(tmp_path)
        with pytest.raises(ValueError, match="no manifest.json"):
            SimilarityEngine.open(tmp_path / "missing")


# ---------------------------------------------------------------------- #
# the removed sharded and dynamic layouts
# ---------------------------------------------------------------------- #
def _open_bundle(path):
    SimilarityEngine.open(path)


def _cli(*argv):
    def run(path):
        code = cli_main([arg.format(path=path) for arg in argv])
        assert code != 0
    return run


_ENTRY_POINTS = pytest.mark.parametrize(
    "enter",
    [
        _open_bundle,
        _cli("search", "{path}/corpus.txt", "q", "--load-index", "{path}"),
        _cli("serve", "{path}"),
        _cli("check", "{path}"),
    ],
    ids=["open", "search", "serve", "check"],
)


def _refusal(path, enter, capsys):
    """What entering ``path`` through ``enter`` reports."""
    (path / "corpus.txt").write_text("a b c\n")
    try:
        enter(path)
    except ValueError as error:
        return str(error)
    return capsys.readouterr().out


class TestRemovedShardedBundle:
    """A bundle of a removed layout left on disk by an older version — a
    sharded directory, or a dynamic snapshot (``"dynamic": true``) — fails
    cleanly everywhere a bundle goes in: an error naming the layout and the
    rebuild, never a traceback or a ``KeyError``."""

    @pytest.fixture
    def old_bundle(self, tmp_path):
        path = tmp_path / "old.bundle"
        (path / "shard-00000").mkdir(parents=True)
        manifest = {
            "kind": "repro.sharded_bundle",
            "version": 1,
            "dynamic": False,
            "shards": 1,
            "routing": "contiguous",
            "scheme": "css",
            "num_records": 0,
            "shard_records": [0],
        }
        (path / "manifest.json").write_text(json.dumps(manifest))
        return path

    @pytest.fixture
    def old_dynamic_bundle(self, tmp_path):
        path = tmp_path / "dyn.bundle"
        path.mkdir()
        manifest = {
            "kind": "repro.index_bundle",
            "version": 1,
            "dynamic": True,
            "scheme": "adapt",
            "scheme_kwargs": {},
            "mode": "word",
            "q": 0,
            "num_records": 0,
            "num_lists": 0,
        }
        (path / "manifest.json").write_text(json.dumps(manifest))
        (path / "log.jsonl").write_text("")
        return path

    @_ENTRY_POINTS
    def test_fails_cleanly(self, old_bundle, enter, capsys):
        message = _refusal(old_bundle, enter, capsys)
        assert "repro.sharded_bundle" in message
        assert "rebuild it with `repro index CORPUS OUT`" in message

    @_ENTRY_POINTS
    def test_dynamic_snapshot_fails_cleanly(
        self, old_dynamic_bundle, enter, capsys
    ):
        message = _refusal(old_dynamic_bundle, enter, capsys)
        assert "is a dynamic index bundle" in message
        assert "rebuild it with `repro index CORPUS OUT`" in message

    @pytest.mark.parametrize("layout", ["old_bundle", "old_dynamic_bundle"])
    def test_check_exits_1(self, layout, request, capsys):
        path = request.getfixturevalue(layout)
        assert cli_main(["check", str(path)]) == 1
        assert "rebuild it with `repro index CORPUS OUT`" in (
            capsys.readouterr().out
        )

    def test_saving_a_dynamic_index_raises(self, tmp_path, word_strings):
        index = DynamicInvertedIndex(mode="word", scheme="adapt")
        index.add_many(word_strings[:40])
        with pytest.raises(ValueError, match="in-memory only"):
            storage.save_index(index, tmp_path / "dyn")
        assert not (tmp_path / "dyn").exists()


# ---------------------------------------------------------------------- #
# structural checking (repro check)
# ---------------------------------------------------------------------- #
class TestCheckBundle:
    def test_clean_static_bundle(self, tmp_path, word_collection):
        index = InvertedIndex(word_collection, scheme="css")
        path = storage.save_index(index, tmp_path / "bundle")
        assert storage.check_bundle(path) == []
