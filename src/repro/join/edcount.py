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

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..similarity.edit_distance import within_edit_distance
from ..similarity.tokenize import TokenDictionary, qgrams
from .base import (
    JoinStats,
    OnlineIndexMixin,
    normalize_pairs,
    traced_join,
)

__all__ = ["EDCountFilterJoin"]


class EDCountFilterJoin(OnlineIndexMixin):
    """Self-join ``ed(r, s) <= delta`` via q-gram counting."""

    def __init__(
        self, strings: Sequence[str], q: int = 2, scheme: str = "adapt", **scheme_kwargs
    ) -> None:
        if q < 1:
            raise ValueError(f"q must be >= 1, got {q}")
        self.strings = list(strings)
        self.q = q
        self.scheme = scheme
        self._scheme_kwargs = scheme_kwargs
        self.last_stats = JoinStats()

    @traced_join
    def join(self, delta: int) -> List[Tuple[int, int]]:
        """All pairs with ``ed <= delta`` as sorted original-id tuples."""
        if delta < 0:
            raise ValueError(f"delta must be non-negative, got {delta}")
        self._init_index(self.scheme, **self._scheme_kwargs)
        stats = JoinStats()
        gram_sets = [qgrams(text, self.q) for text in self.strings]
        dictionary = TokenDictionary(gram_sets)
        records = [dictionary.encode(grams) for grams in gram_sets]
        lengths = np.asarray([len(text) for text in self.strings])
        order = np.argsort(lengths, kind="stable")
        results: List[Tuple[int, int]] = []
        by_length: Dict[int, List[int]] = {}  # fallback directory

        for sid, original in enumerate(order.tolist()):
            text = self.strings[original]
            record = records[original]
            signature_size = record.size

            if signature_size - self.q * delta >= 1:
                # every qualifying partner must share >= 1 gram with s, so
                # the gram lists enumerate all candidates
                counts: Dict[int, int] = {}
                for token in record.tolist():
                    posting = self._lists.get(token)
                    if posting is None:
                        continue
                    for rid in posting.to_array().tolist():
                        counts[rid] = counts.get(rid, 0) + 1
                stats.candidates += len(counts)
                for rid, shared in counts.items():
                    other = self.strings[order[rid]]
                    if abs(len(other) - len(text)) > delta:
                        continue
                    other_size = records[order[rid]].size
                    needed = max(signature_size, other_size) - self.q * delta
                    if shared < needed:
                        continue
                    stats.verifications += 1
                    if within_edit_distance(other, text, delta):
                        results.append((rid, sid))
            else:
                # the destruction bound degenerates (short string): partners
                # may share no gram at all — scan the length window instead
                for length in range(len(text) - delta, len(text) + delta + 1):
                    for rid in by_length.get(length, ()):
                        stats.verifications += 1
                        if within_edit_distance(
                            self.strings[order[rid]], text, delta
                        ):
                            results.append((rid, sid))

            by_length.setdefault(len(text), []).append(sid)
            for token in record.tolist():
                self._list_for(token).append(sid)

        self._finalize_index(stats)
        stats.pairs = len(results)
        self.last_stats = stats
        return normalize_pairs(results, order)