"""Array-form (de)serialization of two-layer stores.

The paper's SSD discussion (§6.1) assumes the offline index is "constructed
in the offline step and dumped to SSD at once" and later queried in place.
:func:`store_to_arrays` / :func:`store_from_arrays` are the primitive that
makes this possible without re-encoding: a store flattens to a handful of
named numpy arrays (metadata vectors + packed data words) and rebuilds from
them verbatim.  With ``copy=False`` the rebuild is *zero-copy*: the store's
layout vectors alias the caller's arrays, which is how
:mod:`repro.storage` serves memory-mapped bundles — N engines opened from
one on-disk bundle share a single file-backed copy of the posting-list
payloads.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from .bitpack import BitBuffer
from .twolayer import FrozenTwoLayerStore, TwoLayerStore

__all__ = ["store_to_arrays", "store_from_arrays"]


def store_to_arrays(store: TwoLayerStore) -> Dict[str, np.ndarray]:
    """Flatten one two-layer store into named numpy arrays (no re-encoding)."""
    store._sync()
    words_needed = store._data.num_bits // 64 + 2
    return {
        "bases": np.asarray(store._bases, dtype=np.int64),
        "offsets": np.asarray(store._offsets, dtype=np.int64),
        "widths": np.asarray(store._widths, dtype=np.int64),
        "starts": np.asarray(store._starts, dtype=np.int64),
        "words": np.asarray(store._data._words[:words_needed]).copy(),
        "num_bits": np.asarray([store._data.num_bits], dtype=np.int64),
    }


def store_from_arrays(
    arrays: Dict[str, np.ndarray], *, copy: bool = True
) -> TwoLayerStore:
    """Rebuild a two-layer store from :func:`store_to_arrays` output.

    With ``copy=True`` (the default) the arrays are copied into a fresh,
    appendable store.  With ``copy=False`` the returned store is a
    read-only :class:`FrozenTwoLayerStore` whose layout vectors *are* the
    passed arrays — hand it ``np.load(..., mmap_mode='r')`` slices and
    every read goes straight to the page cache, shared across processes.
    """
    if not copy:
        return _frozen_store_from_arrays(arrays)
    store = TwoLayerStore()
    store._bases = arrays["bases"].astype(np.int64).tolist()
    store._offsets = arrays["offsets"].astype(np.int64).tolist()
    store._widths = arrays["widths"].astype(np.int64).tolist()
    store._starts = arrays["starts"].astype(np.int64).tolist()
    words = arrays["words"].astype(np.uint64)
    data = BitBuffer(initial_words=max(2, words.size + 2))
    data._words[: words.size] = words
    data._num_bits = int(arrays["num_bits"][0])
    store._data = data
    store._dirty = True
    return store


def _frozen_store_from_arrays(
    arrays: Dict[str, np.ndarray],
) -> FrozenTwoLayerStore:
    num_bits = int(arrays["num_bits"][0])
    for key in ("bases", "offsets", "widths", "starts"):
        if arrays[key].dtype != np.int64:
            raise ValueError(
                f"zero-copy store needs int64 {key!r}, got "
                f"{arrays[key].dtype} (re-save the bundle or pass copy=True)"
            )
    words = arrays["words"]
    if words.dtype != np.uint64:
        raise ValueError(
            f"zero-copy store needs uint64 'words', got {words.dtype}"
        )
    # the bit-reader's one-past-end invariant: reads may touch the word
    # after the last data bit, so the saved region must extend past it
    if int(words.size) < num_bits // 64 + 2:
        raise ValueError(
            f"'words' holds {int(words.size)} words, fewer than the "
            f"{num_bits // 64 + 2} the bit reader needs for "
            f"num_bits={num_bits}"
        )
    return FrozenTwoLayerStore(
        bases=arrays["bases"],
        offsets=arrays["offsets"],
        widths=arrays["widths"],
        starts=arrays["starts"],
        words=words,
        num_bits=num_bits,
    )
