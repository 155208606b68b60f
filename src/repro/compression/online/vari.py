"""Vari: the online extension of CSS's variable-length scheme (Section 5.2).

The buffer is capped at ``2 * |M| = 138`` elements — Theorem 1 proves an
optimal variable-length block never exceeds that cardinality, so a larger
buffer cannot improve the partition.  When the buffer fills, the dynamic
program of Algorithm 2 runs over it and **only the first block** it produces
is sealed; the remaining elements stay buffered awaiting more arrivals (the
tail of the buffer may still merge better with future elements).

Highest compression ratio of the online trio, at the cost of the per-seal
DP — visible as Vari's extra join time in Figure 7.3.
"""

from __future__ import annotations

import numpy as np

from ..constants import THEOREM_1_BUFFER
from ..partition import optimal_partition
from ..registry import register_scheme
from .base import OnlineSortedIDList

__all__ = ["VariList", "THEOREM_1_BUFFER"]


@register_scheme("vari", kind="online")
class VariList(OnlineSortedIDList):
    """Online two-region list sealing DP-optimal leading blocks."""

    scheme_name = "vari"

    def __init__(self, buffer_capacity: int = THEOREM_1_BUFFER) -> None:
        if buffer_capacity < 2:
            raise ValueError(
                f"buffer_capacity must be >= 2, got {buffer_capacity}"
            )
        super().__init__()
        self.buffer_capacity = buffer_capacity

    def append(self, value: int) -> None:
        # Example 4: the arrival that *fills* the buffer triggers the DP, so
        # the DP always sees the full Theorem-1 horizon (138 elements with
        # the default capacity) including that arrival.  Sealing before the
        # append — as the other policies do — would cap the DP's input at
        # ``capacity - 1`` and make the Theorem-1 block size unreachable.
        super().append(value)
        if len(self._buffer) >= self.buffer_capacity:
            self._seal()

    def _should_seal(self, incoming: int) -> bool:
        return False  # Vari seals after the filling arrival, never before

    def _seal(self) -> None:
        values = np.asarray(self._buffer, dtype=np.int64)
        boundaries = optimal_partition(values, max_block=None)
        first_block_end = boundaries[1] if len(boundaries) > 1 else len(self._buffer)
        self._record_seal(len(self._buffer))
        self._store.append_block(self._buffer[:first_block_end])
        del self._buffer[:first_block_end]
