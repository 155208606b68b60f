"""Dynamic similarity-search index: append records without rebuilding.

The conclusion of the paper points out that its online compression
algorithms "can be applied to other problems that require on-the-fly list
construction".  This module is that application inside the search path: an
inverted index whose posting lists are the *online* two-region lists
(Fix/Vari/Adapt), so new records stream in — ids ascend by construction —
while queries keep running over the already-compressed blocks.

This is what an ingesting service (log search, streaming dedup) deploys:
the offline :class:`~repro.search.searcher.InvertedIndex` requires the full
corpus up front; :class:`DynamicInvertedIndex` does not, at a small
compression-ratio cost (exactly the offline-vs-online gap of
Tables 7.2/7.3).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ..compression.css import CSSList
from ..compression.online import OnlineSortedIDList
from ..core.framework import online_factory
from ..similarity.tokenize import TokenizedCollection, qgrams, word_tokens
from .searcher import PostingIndex

__all__ = ["DynamicInvertedIndex"]


class DynamicInvertedIndex(PostingIndex):
    """Appendable inverted index over online compressed posting lists.

    The same :class:`~repro.search.searcher.PostingIndex` protocol as the
    offline :class:`~repro.search.searcher.InvertedIndex`, so the existing
    searchers run on it unchanged.  It lives in memory only: grow it with
    :meth:`add`, query it through a searcher built without a decode cache
    (``add`` appends to lists in place, so a cached decode would go
    stale), and :meth:`compact` it to the offline layout.
    """

    supports_random_access = True

    def __init__(
        self,
        mode: str = "word",
        q: int = 3,
        scheme: str = "adapt",
        **scheme_kwargs,
    ) -> None:
        if mode not in ("word", "qgram"):
            raise ValueError(f"mode must be 'word' or 'qgram', got {mode!r}")
        self.mode = mode
        self.q = q if mode == "qgram" else 0
        self.scheme = scheme
        self._factory = online_factory(scheme)
        self._scheme_kwargs = scheme_kwargs
        self.lists: Dict[int, OnlineSortedIDList] = {}
        self.build_seconds = 0.0
        # a TokenizedCollection grown record by record; the searchers consume
        # its records/lengths/dictionary exactly as in the offline path
        from ..similarity.tokenize import TokenDictionary

        self.collection = TokenizedCollection(
            strings=[],
            records=[],
            dictionary=TokenDictionary([]),
            mode=mode,
            q=self.q,
        )
        # note: new tokens get ids in arrival order rather than global
        # frequency order — harmless for the count-filter searchers (they
        # only need one consistent order), but this index is not a substrate
        # for prefix-filter joins, which require the frequency order.
        self._lengths: List[int] = []
        self._lengths_dirty = False

    # ------------------------------------------------------------------ #
    @property
    def num_records(self) -> int:
        return len(self.collection.records)

    def add(self, text: str) -> int:
        """Ingest one record; returns its id (ids ascend by insertion)."""
        record_id = len(self.collection.strings)
        tokens = (
            qgrams(text, self.q) if self.mode == "qgram" else word_tokens(text)
        )
        token_ids = self.collection.dictionary.encode(tokens, add_missing=True)
        self.collection.strings.append(text)
        self.collection.records.append(token_ids)
        self._lengths.append(int(token_ids.size))
        self._lengths_dirty = True
        for token in token_ids.tolist():
            posting = self.lists.get(token)
            if posting is None:
                posting = self._factory(**self._scheme_kwargs)
                self.lists[token] = posting
            posting.append(record_id)
        return record_id

    def add_many(self, texts: Sequence[str]) -> List[int]:
        return [self.add(text) for text in texts]

    def _refresh_lengths(self) -> None:
        if self._lengths_dirty:
            self.collection.lengths = np.asarray(self._lengths, dtype=np.int64)
            self._lengths_dirty = False

    def posting_lists(self, tokens: Sequence[int]) -> List[OnlineSortedIDList]:
        self._refresh_lengths()
        return super().posting_lists(tokens)

    def compact(self) -> None:
        """Seal every online list into offline CSS blocks (DP re-partition).

        Each compactable list is decoded once and re-partitioned with the
        paper's Algorithm-2 dynamic program, replacing whatever block
        boundaries the online seal policy happened to produce with the
        space-optimal offline ones; the buffered tail folds into the
        blocks.  The list objects survive with new stores, so the index
        stays appendable and answers queries bit-identically.  Lists that
        are uncompressed by contract (``uncomp``) are skipped.
        """
        for lst in self.lists.values():
            if lst.compactable:
                lst.load_state(CSSList(lst.to_array()).store, [])
