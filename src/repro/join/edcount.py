"""q-gram Count Filter join for edit distance (Gravano et al. [21]).

The original "approximate string joins in a database (almost) for free"
setting: signatures are character q-grams and the count filter bound comes
from edit operations destroying grams.  With the set semantics the paper's
inverted lists use (unique record ids), one edit operation touches at most
``q`` *distinct* gram types of either string, so ``ed(r, s) <= delta``
implies

    |Sig(r) ∩ Sig(s)|  >=  max(|Sig(r)|, |Sig(s)|) − q·delta.

Complements :class:`~repro.join.segment.SegmentFilterJoin` (PassJoin): same
answers, different filter — the count filter indexes every gram (dense
lists, strong compression) while the segment filter indexes d+1 substrings
(sparse lists, stronger pruning).  Both run over the online compressed
schemes.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Sequence, Union

from ..similarity.edit_distance import within_edit_distance
from ..similarity.tokenize import TokenDictionary, TokenizedCollection, qgrams
from .base import SelfJoin

__all__ = ["EDCountFilterJoin"]


class EDCountFilterJoin(SelfJoin):
    """Self-join ``ed(r, s) <= delta`` via q-gram counting.

    ``collection`` is a tokenized collection (its ``strings`` are joined,
    re-tokenized into ``q``-grams here) or the strings themselves.
    """

    def __init__(
        self,
        collection: Union[TokenizedCollection, Sequence[str]],
        q: int = 2,
        scheme: str = "adapt",
        **scheme_kwargs,
    ) -> None:
        if q < 1:
            raise ValueError(f"q must be >= 1, got {q}")
        super().__init__(collection, scheme, "ed", **scheme_kwargs)
        self.strings = list(getattr(collection, "strings", collection))
        self.q = q

    def _items(self) -> List[str]:
        return self.strings

    def _begin(self) -> None:
        gram_sets = [qgrams(text, self.q) for text in self._records]
        dictionary = TokenDictionary(gram_sets)
        # gram-id signatures, parallel to _records (processing order)
        self._gram_ids = [dictionary.encode(grams) for grams in gram_sets]
        self._by_length: Dict[int, List[int]] = {}  # fallback directory

    def _probe(self, sid: int, text: str) -> List[int]:
        strings, gram_ids, stats = self._records, self._gram_ids, self._stats
        delta, slack, results = (
            self._threshold,
            self.q * self._threshold,
            self._results,
        )
        record = gram_ids[sid]
        tokens = record.tolist()
        if record.size - slack >= 1:
            # every qualifying partner must share >= 1 gram with s, so
            # the gram lists enumerate all candidates; strings arrive
            # length-ascending and rid order is length order, so the
            # length filter |r| >= |s| - delta is a seek
            lists = self._lists
            first = bisect_left(self._sizes, len(text) - delta)
            counts: Dict[int, int] = {}
            for token in tokens:
                posting = lists.get(token)
                if posting is None:
                    continue
                for rid in posting.suffix(first)[1]:
                    counts[rid] = counts.get(rid, 0) + 1
            stats.candidates += len(counts)
            for rid, shared in counts.items():
                other = strings[rid]
                if shared < max(record.size, gram_ids[rid].size) - slack:
                    continue
                stats.verifications += 1
                if within_edit_distance(other, text, delta):
                    results.append((rid, sid))
        else:
            # the destruction bound degenerates (short string): partners
            # may share no gram at all — scan the length window instead
            by_length = self._by_length
            for length in range(len(text) - delta, len(text) + delta + 1):
                for rid in by_length.get(length, ()):
                    stats.verifications += 1
                    if within_edit_distance(strings[rid], text, delta):
                        results.append((rid, sid))
        return tokens

    def _index(self, sid: int, signatures: List[int]) -> None:
        self._by_length.setdefault(len(self._records[sid]), []).append(sid)
        super()._index(sid, signatures)
