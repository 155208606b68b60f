"""The CSS framework: a registry of compression schemes.

The paper's framing is that CSS is a *flexible framework* — any filtering
technique keeps its algorithm and swaps the posting-list representation.
This module provides the registry search and join engines are parameterized
with, keyed by the scheme names used throughout the evaluation chapter:

* offline (similarity search): ``uncomp``, ``pfordelta``, ``milc``, ``css``
  (+ ablation codecs ``vbyte``, ``eliasfano``, ``roaring``),
* online (similarity join): ``uncomp``, ``fix``, ``vari``, ``adapt``
  (+ the ablation policy ``model``).

Third-party and ablation codecs plug in without editing this module::

    from repro.core.framework import register_scheme

    @register_scheme("mycodec", kind="offline")
    class MyList(SortedIDList): ...

``offline_factory`` / ``online_factory`` are :func:`scheme_factory` with
the kind fixed.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

# importing the packages executes every scheme module, which is what fills
# the registry: each codec registers itself at definition time (rule RA05)
from .. import compression as _compression  # noqa: F401
from ..compression import SortedIDList
from ..compression.online import OnlineSortedIDList
from ..compression.registry import (
    OFFLINE_SCHEMES,
    ONLINE_SCHEMES,
    offline_scheme_names,
    online_scheme_names,
    register_scheme,
    scheme_factory,
)
from ..obs import METRICS as _METRICS

__all__ = [
    "OFFLINE_SCHEMES",
    "ONLINE_SCHEMES",
    "register_scheme",
    "scheme_factory",
    "offline_factory",
    "online_factory",
    "UncompressedOnlineList",
]

OfflineFactory = Callable[[Sequence[int]], SortedIDList]
OnlineFactory = Callable[[], OnlineSortedIDList]


@register_scheme("uncomp", kind="online")
class UncompressedOnlineList(OnlineSortedIDList):
    """Appendable plain array: the ``Uncomp`` baseline of the join tables.

    Ids accumulate in the uncompressed buffer forever — the seal predicate
    never fires and ``finalize`` is a no-op, so ``size_bits`` stays at
    32 bits per element.
    """

    scheme_name = "uncomp"
    compactable = False  # uncompressed by contract: compaction skips it

    def _should_seal(self, incoming: int) -> bool:
        return False

    def finalize(self) -> None:  # keep everything uncompressed
        return

    def to_array(self) -> np.ndarray:
        if _METRICS.enabled:
            _METRICS.inc("online.list_decodes")
            _METRICS.inc("online.elements_decoded", len(self._buffer))
        return np.asarray(self._buffer, dtype=np.int64)


def offline_factory(scheme: str) -> OfflineFactory:
    """Factory for an offline scheme by its evaluation-chapter name."""
    return scheme_factory(scheme, "offline")


def online_factory(scheme: str) -> OnlineFactory:
    """Factory for an online scheme by its evaluation-chapter name."""
    return scheme_factory(scheme, "online")
