"""The directory-bundle index format: mmap-able and self-contained.

One bundle directory holds everything an engine needs to come back up —
``manifest.json``, the consolidated posting-list arrays as *plain* ``.npy``
files (an ``.npz`` is a zip archive, which numpy cannot memory-map), and
the tokenized collection (strings, dictionary in id order, per-record
token arrays) of an offline :class:`~repro.search.searcher.InvertedIndex`.
Opened with ``mmap=True`` every array is ``np.load(..., mmap_mode='r')``
and the per-list stores are zero-copy, read-only
:meth:`TwoLayerStore.from_arrays(..., copy=False)
<repro.compression.twolayer.TwoLayerStore.from_arrays>` views, so N fork
workers (or N processes opening the same bundle) share one on-disk copy of
the posting-list payloads through the page cache.

A :class:`~repro.search.dynamic.DynamicInvertedIndex` is in-memory only:
saving one is a ``ValueError``, and so is opening a bundle whose manifest
says ``"dynamic": true`` (a removed layout).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

import numpy as np

from ..compression.online import OnlineSortedIDList
from ..compression.twolayer import LayoutError, TwoLayerList, TwoLayerStore
from ..compression.uncompressed import UncompressedList
from ..similarity.tokenize import TokenDictionary, TokenizedCollection

__all__ = [
    "corruption_error",
    "require",
    "BUNDLE_KIND",
    "BUNDLE_VERSION",
    "save_index",
    "open_index",
    "read_manifest",
    "write_manifest",
]

BUNDLE_KIND = "repro.index_bundle"
BUNDLE_VERSION = 1
#: the kind of a removed bundle layout (one sub-bundle per shard), refused
#: by name so an old directory fails with a way out, not a bare mismatch
_REMOVED_KIND = "repro.sharded_bundle"
#: the rebuild hint every refused layout ends with
_REBUILD = "rebuild it with `repro index CORPUS OUT`"
MANIFEST_NAME = "manifest.json"

_KIND_TWOLAYER = 0
_KIND_UNCOMP = 1

# every consolidated array in the bundle, with its required dtype
_ARRAY_DTYPES = {
    "tokens": np.int64,
    "kinds": np.uint8,
    "block_counts": np.int64,
    "start_counts": np.int64,
    "word_counts": np.int64,
    "bit_counts": np.int64,
    "uncomp_counts": np.int64,
    "bases": np.int64,
    "offsets": np.int64,
    "widths": np.int64,
    "starts": np.int64,
    "words": np.uint64,
    "uncomp_values": np.int64,
    "records_values": np.int64,
    "records_offsets": np.int64,
}


def corruption_error(
    what: str,
    *,
    file: Optional[object] = None,
    key: Optional[str] = None,
    token: Optional[int] = None,
) -> ValueError:
    """A load-time integrity error that names where the corruption sits.

    ``file`` is the container path (``None`` for in-memory arrays), ``key``
    the offending array inside it, ``token`` the list the extent belongs
    to.  Every loader funnels through here so a failed ``repro check`` or
    ``open()`` pinpoints the byte range to inspect instead of reporting a
    bare token id.
    """
    parts = ["corrupted index file"]
    if file is not None:
        parts.append(str(file))
    message = " ".join(parts)
    if key is not None:
        message += f": array {key!r}"
    if token is not None:
        message += f": list for token {token}"
    return ValueError(f"{message}: {what}")


def require(
    condition: bool,
    what: str,
    *,
    file: Optional[object] = None,
    key: Optional[str] = None,
    token: Optional[int] = None,
) -> None:
    if not condition:
        raise corruption_error(what, file=file, key=key, token=token)


def read_manifest(
    path: Union[str, Path], kind: Optional[str] = None
) -> Dict[str, Any]:
    """Parse ``manifest.json`` of the bundle directory at ``path``.

    With ``kind`` the manifest must declare that kind at the version this
    code reads; without it the caller dispatches on ``manifest["kind"]``.
    A manifest of the removed multi-shard layout is always a
    ``ValueError`` that names the kind and how to rebuild, and so is a
    dynamic snapshot (``"dynamic": true``), a layout that is also gone.
    """
    path = Path(path)
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.is_file():
        raise ValueError(f"{path} is not an index bundle (no {MANIFEST_NAME})")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    if manifest.get("kind") == _REMOVED_KIND:
        raise ValueError(
            f"{path} is a {_REMOVED_KIND} directory, a layout this version "
            f"no longer reads; {_REBUILD}"
        )
    if manifest.get("dynamic"):
        raise ValueError(
            f"{path} is a dynamic index bundle (snapshot plus append log), "
            f"a layout this version no longer reads; {_REBUILD}"
        )
    if kind is not None:
        if manifest.get("kind") != kind:
            raise ValueError(
                f"{manifest_path} is not a {kind} manifest "
                f"(kind={manifest.get('kind')!r})"
            )
        if manifest.get("version") != BUNDLE_VERSION:
            raise ValueError(
                f"unsupported {kind} version {manifest.get('version')} "
                f"in {manifest_path}"
            )
    return manifest


def write_manifest(path: Path, manifest: Dict[str, Any]) -> None:
    (path / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
    )


# ---------------------------------------------------------------------- #
# save
# ---------------------------------------------------------------------- #
def _collect_store_arrays(
    items: List,
) -> Dict[str, np.ndarray]:
    """Consolidate (token, kind, store-or-values) rows into the bundle's
    flat arrays."""
    tokens: List[int] = []
    kinds: List[int] = []
    bases, offsets, widths, starts = [], [], [], []
    block_counts, start_counts = [], []
    word_chunks, word_counts, bit_counts = [], [], []
    uncomp_values, uncomp_counts = [], []
    for token, kind, payload in items:
        tokens.append(int(token))
        kinds.append(kind)
        if kind == _KIND_TWOLAYER:
            arrays = payload.to_arrays()
            bases.append(arrays["bases"])
            offsets.append(arrays["offsets"])
            widths.append(arrays["widths"])
            starts.append(arrays["starts"])
            block_counts.append(arrays["bases"].size)
            start_counts.append(arrays["starts"].size)
            word_chunks.append(arrays["words"])
            word_counts.append(arrays["words"].size)
            bit_counts.append(int(arrays["num_bits"][0]))
        else:
            values = np.asarray(payload, dtype=np.int64)
            uncomp_values.append(values)
            uncomp_counts.append(values.size)

    def _concat(chunks: List[np.ndarray], dtype: type) -> np.ndarray:
        if not chunks:
            return np.empty(0, dtype=dtype)
        return np.concatenate(chunks).astype(dtype)

    return {
        "tokens": np.asarray(tokens, dtype=np.int64),
        "kinds": np.asarray(kinds, dtype=np.uint8),
        "block_counts": np.asarray(block_counts, dtype=np.int64),
        "start_counts": np.asarray(start_counts, dtype=np.int64),
        "word_counts": np.asarray(word_counts, dtype=np.int64),
        "bit_counts": np.asarray(bit_counts, dtype=np.int64),
        "uncomp_counts": np.asarray(uncomp_counts, dtype=np.int64),
        "bases": _concat(bases, np.int64),
        "offsets": _concat(offsets, np.int64),
        "widths": _concat(widths, np.int64),
        "starts": _concat(starts, np.int64),
        "words": _concat(word_chunks, np.uint64),
        "uncomp_values": _concat(uncomp_values, np.int64),
    }


def _collection_arrays(collection: Any) -> Dict[str, np.ndarray]:
    offsets = np.zeros(len(collection.records) + 1, dtype=np.int64)
    if collection.records:
        offsets[1:] = np.cumsum(
            [record.size for record in collection.records], dtype=np.int64
        )
        values = np.concatenate(
            [np.asarray(r, dtype=np.int64) for r in collection.records]
        )
    else:
        values = np.empty(0, dtype=np.int64)
    return {"records_values": values, "records_offsets": offsets}


def _write_collection_json(path: Path, collection: Any) -> None:
    (path / "strings.json").write_text(
        json.dumps(collection.strings), encoding="utf-8"
    )
    dictionary = collection.dictionary
    (path / "dictionary.json").write_text(
        json.dumps(
            {
                "tokens": [
                    dictionary.token_of(i) for i in range(len(dictionary))
                ],
                "frequencies": [
                    dictionary.frequency_of(i) for i in range(len(dictionary))
                ],
            }
        ),
        encoding="utf-8",
    )


def _prepare_directory(path: Union[str, Path]) -> Path:
    path = Path(path)
    if path.exists() and not path.is_dir():
        raise ValueError(
            f"{path} exists and is not a directory (bundles are directories)"
        )
    path.mkdir(parents=True, exist_ok=True)
    return path


def _save_arrays(path: Path, arrays: Dict[str, np.ndarray]) -> None:
    for key, array in arrays.items():
        np.save(path / f"{key}.npy", array)


def save_index(index: Any, path: Union[str, Path]) -> Path:
    """Persist an offline :class:`~repro.search.searcher.InvertedIndex` to
    a bundle directory at ``path``; returns ``path``.

    An index of online (two-region) lists, such as a
    :class:`~repro.search.dynamic.DynamicInvertedIndex`, is in-memory only
    and raises ``ValueError``.
    """
    if any(
        isinstance(lst, OnlineSortedIDList) for lst in index.lists.values()
    ):
        raise ValueError(
            "dynamic indexes (online two-region lists) are in-memory only "
            "and cannot be saved; build an offline index with "
            "`repro index CORPUS OUT`"
        )
    items = []
    for token, lst in index.lists.items():
        if isinstance(lst, TwoLayerList):
            items.append((token, _KIND_TWOLAYER, lst.store))
        elif isinstance(lst, UncompressedList):
            items.append((token, _KIND_UNCOMP, lst.to_array()))
        else:
            raise TypeError(
                f"cannot serialize scheme {type(lst).__name__}; only "
                "two-layer (MILC/CSS) and uncompressed lists are persistent"
            )
    path = _prepare_directory(path)
    collection = index.collection
    manifest = {
        "kind": BUNDLE_KIND,
        "version": BUNDLE_VERSION,
        "dynamic": False,
        "scheme": index.scheme,
        "mode": collection.mode,
        "q": int(collection.q),
        "num_records": len(collection),
        "num_lists": len(index.lists),
    }
    _save_arrays(path, _collect_store_arrays(items))
    _save_arrays(path, _collection_arrays(collection))
    _write_collection_json(path, collection)
    write_manifest(path, manifest)
    return path


# ---------------------------------------------------------------------- #
# open
# ---------------------------------------------------------------------- #
def _load_arrays(
    path: Path, names: Dict[str, type], *, mmap: bool
) -> Dict[str, np.ndarray]:
    arrays: Dict[str, np.ndarray] = {}
    for key, dtype in names.items():
        file = path / f"{key}.npy"
        if not file.is_file():
            raise corruption_error("array file is missing", file=file, key=key)
        try:
            array = np.load(file, mmap_mode="r" if mmap else None)
        except Exception as error:  # repro: noqa RA07 -- numpy raises a
            # zoo of types for bad .npy headers; re-raise with the file named
            raise corruption_error(
                f"unreadable .npy file ({error})", file=file, key=key
            ) from error
        require(
            array.dtype == dtype,
            f"expected dtype {np.dtype(dtype).name}, found {array.dtype}",
            file=file,
            key=key,
        )
        require(
            array.ndim == 1,
            f"expected a 1-d array, found shape {array.shape}",
            file=file,
            key=key,
        )
        # downcast np.memmap to a plain ndarray view over the same mapping:
        # every per-list/per-record slice below would otherwise run memmap's
        # __array_finalize__ and allocate a heavyweight memmap instance —
        # tens of thousands of them cost more memory than the index itself.
        # The view's .base keeps the mapping (and the file) alive.
        arrays[key] = array.view(np.ndarray) if mmap else array
    return arrays


def _load_collection(
    path: Path, manifest: Dict[str, Any], arrays: Dict[str, np.ndarray]
) -> TokenizedCollection:
    strings_path = path / "strings.json"
    dictionary_path = path / "dictionary.json"
    for file in (strings_path, dictionary_path):
        if not file.is_file():
            raise corruption_error("collection file is missing", file=file)
    strings = json.loads(strings_path.read_text(encoding="utf-8"))
    saved = json.loads(dictionary_path.read_text(encoding="utf-8"))
    dictionary = TokenDictionary.from_id_order(
        saved["tokens"], saved["frequencies"]
    )
    values = arrays["records_values"]
    offsets = arrays["records_offsets"]
    require(
        offsets.size == len(strings) + 1,
        f"{offsets.size} record offsets for {len(strings)} strings",
        file=path / "records_offsets.npy",
        key="records_offsets",
    )
    require(
        offsets.size >= 1
        and int(offsets[0]) == 0
        and int(offsets[-1]) == values.size
        and (offsets.size < 2 or bool(np.all(np.diff(offsets) >= 0))),
        "record offsets are not a monotone ramp over records_values",
        file=path / "records_offsets.npy",
        key="records_offsets",
    )
    records = [
        values[int(offsets[i]) : int(offsets[i + 1])]
        for i in range(len(strings))
    ]
    return TokenizedCollection(
        strings=strings,
        records=records,
        dictionary=dictionary,
        mode=manifest["mode"],
        q=int(manifest["q"]),
    )


def _iter_lists(path: Path, arrays: Dict[str, np.ndarray], *, copy: bool):
    """Yield ``(token, kind, store_or_values)`` per list,
    validating the consolidated extents.

    Two-layer lists arrive as stores rebuilt by
    :meth:`TwoLayerStore.from_arrays` (``copy=False``: aliasing the
    consolidated arrays); a layout invariant the store finds broken is
    re-raised naming the token and the ``<key>.npy`` file it sits in.
    """
    tokens = arrays["tokens"]
    kinds = arrays["kinds"]
    block_counts = arrays["block_counts"]
    start_counts = arrays["start_counts"]
    word_counts = arrays["word_counts"]
    bit_counts = arrays["bit_counts"]
    uncomp_counts = arrays["uncomp_counts"]
    bases, offsets = arrays["bases"], arrays["offsets"]
    widths, starts = arrays["widths"], arrays["starts"]
    words, uncomp_values = arrays["words"], arrays["uncomp_values"]

    num_twolayer = int((kinds == _KIND_TWOLAYER).sum())
    num_uncomp = int(kinds.size - num_twolayer)
    require(
        tokens.size == kinds.size,
        "tokens/kinds mismatch",
        file=path / "kinds.npy",
        key="kinds",
    )
    require(
        block_counts.size == num_twolayer
        and start_counts.size == num_twolayer
        and word_counts.size == num_twolayer
        and bit_counts.size == num_twolayer
        and uncomp_counts.size == num_uncomp,
        "per-list count arrays disagree with the token listing",
        file=path / "block_counts.npy",
        key="block_counts/start_counts/word_counts/bit_counts",
    )
    # each consolidated array must be exactly as long as the per-list
    # counts claim; a mismatch names the one file that disagrees
    for key, array, expected in (
        ("bases", bases, int(block_counts.sum())),
        ("offsets", offsets, int(block_counts.sum())),
        ("widths", widths, int(block_counts.sum())),
        ("starts", starts, int(start_counts.sum())),
        ("words", words, int(word_counts.sum())),
        ("uncomp_values", uncomp_values, int(uncomp_counts.sum())),
    ):
        require(
            array.size == expected,
            "consolidated array extent disagrees with the per-list counts",
            file=path / f"{key}.npy",
            key=key,
        )

    b = s = w = u = 0
    twolayer_seen = 0
    for position, token in enumerate(tokens.tolist()):
        if kinds[position] == _KIND_TWOLAYER:
            nb = int(block_counts[twolayer_seen])
            ns = int(start_counts[twolayer_seen])
            nw = int(word_counts[twolayer_seen])
            store_arrays = {
                "bases": bases[b : b + nb],
                "offsets": offsets[b : b + nb],
                "widths": widths[b : b + nb],
                "starts": starts[s : s + ns],
                "words": words[w : w + nw],
                "num_bits": np.asarray(
                    [bit_counts[twolayer_seen]], dtype=np.int64
                ),
            }
            try:
                store = TwoLayerStore.from_arrays(store_arrays, copy=copy)
            except LayoutError as error:
                raise corruption_error(
                    error.what,
                    file=path / f"{error.key.split('/')[0]}.npy",
                    key=error.key,
                    token=token,
                ) from error
            yield token, _KIND_TWOLAYER, store
            b += nb
            s += ns
            w += nw
            twolayer_seen += 1
        else:
            count = int(uncomp_counts[position - twolayer_seen])
            require(
                count >= 0 and u + count <= uncomp_values.size,
                "uncompressed extent out of range",
                file=path / "uncomp_values.npy",
                key="uncomp_values",
                token=token,
            )
            yield token, _KIND_UNCOMP, uncomp_values[u : u + count]
            u += count


def open_index(path: Union[str, Path], *, mmap: bool = True) -> Any:
    """Reconstitute the index saved in the bundle at ``path``.

    ``mmap=True`` (the default) serves every posting-list payload
    zero-copy off the memory-mapped files; ``False`` loads the arrays into
    memory.
    """
    from ..search.searcher import InvertedIndex

    path = Path(path)
    manifest = read_manifest(path, BUNDLE_KIND)
    arrays = _load_arrays(path, _ARRAY_DTYPES, mmap=mmap)
    collection = _load_collection(path, manifest, arrays)
    require(
        len(collection) == int(manifest["num_records"]),
        f"manifest says {manifest['num_records']} records, bundle holds "
        f"{len(collection)}",
        file=path / MANIFEST_NAME,
    )
    index = InvertedIndex.__new__(InvertedIndex)
    index.collection = collection
    index.scheme = manifest["scheme"]
    index.build_seconds = 0.0
    index.lists = {}
    for token, kind, payload in _iter_lists(path, arrays, copy=not mmap):
        if kind == _KIND_TWOLAYER:
            index.lists[token] = TwoLayerList.from_store(
                payload, manifest["scheme"]
            )
        elif mmap:
            index.lists[token] = UncompressedList.from_array(payload)
        else:
            index.lists[token] = UncompressedList(payload)
    index.supports_random_access = all(
        lst.supports_random_access for lst in index.lists.values()
    )
    return index
