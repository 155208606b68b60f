"""Array-level helpers of the bundle formats.

The bundle formats (:mod:`repro.storage.bundle`,
:mod:`repro.storage.sharded`) reduce a two-layer store to named arrays
(:func:`repro.compression.serialize.store_to_arrays`).  This module holds
the pieces they share: the corruption-error builder that names the
offending *file* and *array key* (not just a token), the store-array
consistency validator, and the reconstituted list wrappers.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional

import numpy as np

from ..compression.constants import MAX_DELTA_WIDTH
from ..compression.twolayer import TwoLayerList, TwoLayerStore
from ..compression.uncompressed import UncompressedList

__all__ = [
    "corruption_error",
    "require",
    "validate_store_arrays",
    "LoadedTwoLayerList",
    "LoadedUncompressedList",
]


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


def validate_store_arrays(
    arrays: Dict[str, np.ndarray],
    token: Optional[int],
    directory: Path,
) -> None:
    """Cheap consistency checks before trusting on-disk extents.

    A truncated or bit-flipped container must fail loudly at load time,
    not return garbage ids from a later ``gather``: block starts must be a
    monotone prefix-count ramp, every block's packed deltas must lie
    inside the data words, and widths must be in the encoder's [1, 32]
    range.  Violations name the array key they were found in and that
    key's ``<key>.npy`` file in the bundle ``directory``.
    """

    def _file(key: str) -> Path:
        return directory / f"{key.split('/')[0]}.npy"

    bases = arrays["bases"]
    offsets = arrays["offsets"]
    widths = arrays["widths"]
    starts = arrays["starts"]
    num_bits = int(arrays["num_bits"][0])
    require(
        bases.size == offsets.size == widths.size,
        "metadata arrays disagree on block count",
        file=_file("bases/offsets/widths"),
        key="bases/offsets/widths",
        token=token,
    )
    require(
        starts.size == bases.size + 1,
        "starts/blocks mismatch",
        file=_file("starts"),
        key="starts",
        token=token,
    )
    require(
        starts.size >= 1 and int(starts[0]) == 0,
        "starts[0] != 0",
        file=_file("starts"),
        key="starts",
        token=token,
    )
    counts = np.diff(starts)
    require(
        counts.size == 0 or int(counts.min()) >= 1,
        "non-positive block size",
        file=_file("starts"),
        key="starts",
        token=token,
    )
    require(
        0 <= num_bits <= 64 * int(arrays["words"].size),
        "num_bits exceeds stored data words",
        file=_file("words"),
        key="words",
        token=token,
    )
    if bases.size:
        require(
            int(widths.min()) >= 1 and int(widths.max()) <= MAX_DELTA_WIDTH,
            f"delta width outside [1, {MAX_DELTA_WIDTH}]",
            file=_file("widths"),
            key="widths",
            token=token,
        )
        require(
            int(bases.min()) >= 0,
            "negative base value",
            file=_file("bases"),
            key="bases",
            token=token,
        )
        require(
            int(offsets.min()) >= 0,
            "negative data offset",
            file=_file("offsets"),
            key="offsets",
            token=token,
        )
        # every block's packed deltas must end within the data region
        ends = offsets + widths * (counts - 1)
        require(
            int(ends.max()) <= num_bits,
            "block data extends past num_bits",
            file=_file("offsets"),
            key="offsets",
            token=token,
        )


class LoadedTwoLayerList(TwoLayerList):
    """A two-layer list reconstituted from disk (partitioning preserved)."""

    def __init__(self, store: TwoLayerStore, scheme_name: str) -> None:
        # bypass TwoLayerList.__init__: the store is already built
        self._store = store
        self.scheme_name = scheme_name


class LoadedUncompressedList(UncompressedList):
    """An uncompressed list whose values *are* the caller's array.

    Bypasses the copying/validating constructor so a memory-mapped bundle
    slice serves reads straight off the page cache; the bundle loader has
    already validated extents, and ``repro check`` re-validates contents.
    """

    def __init__(self, values: np.ndarray) -> None:
        self._values = values
