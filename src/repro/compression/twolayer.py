"""The two-layer (metadata + data) compressed layout of MILC and CSS.

Figure 2.1 of the paper: a list is partitioned into blocks.  For each block
the *metadata layer* stores ``(b, o, n)`` — the base value (the block's first
element), the bit offset of the block's packed deltas inside the data layer,
and the per-element delta width.  The *data layer* stores, for a block of
``m`` elements, the ``m - 1`` deltas ``v_t - b`` packed at ``n`` bits each
(the base itself lives only in the metadata block).

:class:`TwoLayerStore` is the shared engine: the offline schemes
(:mod:`repro.compression.milc`, :mod:`repro.compression.css`) build it from a
precomputed partitioning, and the online schemes append blocks one at a time
as their buffers seal.  All read operations (random access, lower bound,
block decode) work directly on the packed bits — no decompression step, which
is what lets MergeSkip run over the compressed index (Example 3).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Sequence, Tuple, Union

import numpy as np

from ..obs import METRICS as _METRICS
from .base import SortedIDList, as_id_array, check_sorted_id_list, check_sorted_ids
from .bitpack import BitBuffer, width_for
from .constants import ELEMENT_BITS, MAX_DELTA_WIDTH, METADATA_BITS

__all__ = [
    "DECODE_CHUNK_ELEMENTS",
    "LayoutError",
    "SCALAR_DECODE_ELEMENTS",
    "TwoLayerStore",
    "TwoLayerList",
    "block_cost_bits",
    "block_saving_bits",
    "decode_stores",
]

#: element budget of one :func:`decode_stores` gather pass.  ~16k ids keep
#: every int64 temporary of the pass at <= 128 KiB; one gather over a whole
#: 190k-id batch (or 64k-id chunks) raised a cold batch's peak RSS by ~16%.
DECODE_CHUNK_ELEMENTS = 1 << 14

#: a chunk of fewer ids decodes in plain integer arithmetic: a numpy pass
#: spends tens of µs on per-call set-up before it reads a bit, more than
#: the scalar loop needs for a chunk this small.  A large cold batch
#: almost never makes such a chunk; a small served batch on a warm cache,
#: whose misses are a few short lists, nearly always does.
SCALAR_DECODE_ELEMENTS = 256


def block_cost_bits(count: int, max_delta: int) -> int:
    """Total bits to store ``count`` elements as one block.

    One metadata block (69 bits) plus ``count - 1`` packed deltas at
    ``ceil(log2(max_delta + 1))`` bits each.
    """
    if count <= 0:
        raise ValueError("a block must contain at least one element")
    if count == 1:
        return METADATA_BITS
    return METADATA_BITS + (count - 1) * width_for(max_delta)


def block_saving_bits(count: int, max_delta: int) -> int:
    """Bits saved vs. uncompressed storage: the paper's ``G[x, y]``.

    For a block spanning elements ``x..y`` (``count = y - x + 1`` elements,
    ``max_delta = L[y] - L[x]``) the paper computes
    ``G = (y - x) * (32 - b) + 32 - 69`` where ``b`` is the delta width:
    every non-base element shrinks from 32 to ``b`` bits, the base moves into
    the metadata block for free (+32), and the metadata block costs 69.
    """
    return ELEMENT_BITS * count - block_cost_bits(count, max_delta)


class LayoutError(ValueError):
    """A broken invariant of the two-layer layout, naming the array it sits in."""

    def __init__(self, key: str, what: str) -> None:
        super().__init__(f"array {key!r}: {what}")
        self.key = key
        self.what = what


def _layout_violations(
    bases: np.ndarray,
    offsets: np.ndarray,
    widths: np.ndarray,
    starts: np.ndarray,
    words: np.ndarray,
    num_bits: int,
) -> Iterator[LayoutError]:
    """Every invariant of the layout, checked on its raw vectors.

    A truncated or bit-flipped container must fail loudly at load time,
    not return garbage ids from a later ``gather``: the metadata vectors
    agree on the block count, block starts are a prefix-count ramp from 0,
    bases ascend, every block's packed deltas lie inside the data words at
    a width the encoder can emit, and the words extend one past the last
    data bit.  A shape violation ends the enumeration (the value checks
    would index out of range); value violations are all reported.
    """
    if not bases.size == offsets.size == widths.size:
        yield LayoutError(
            "bases/offsets/widths", "metadata arrays disagree on block count"
        )
        return
    if starts.size != bases.size + 1:
        yield LayoutError("starts", "starts/blocks mismatch")
        return
    if int(starts[0]) != 0:
        yield LayoutError("starts", "starts[0] != 0")
    counts = starts[1:] - starts[:-1]
    if counts.size and int(counts.min()) < 1:
        yield LayoutError("starts", "non-positive block size")
    if not 0 <= num_bits <= 64 * int(words.size):
        yield LayoutError("words", "num_bits exceeds stored data words")
    elif int(words.size) < num_bits // 64 + 2:
        # the bit reader's two-word reads may touch the word after the
        # last data bit
        yield LayoutError(
            "words",
            f"holds {int(words.size)} words, fewer than the "
            f"{num_bits // 64 + 2} the bit reader needs for "
            f"num_bits={num_bits}",
        )
    if not bases.size:
        return
    if int(widths.min()) < 1 or int(widths.max()) > MAX_DELTA_WIDTH:
        yield LayoutError(
            "widths", f"delta width outside [1, {MAX_DELTA_WIDTH}]"
        )
    if int(bases.min()) < 0:
        yield LayoutError("bases", "negative base value")
    if not bool((bases[1:] > bases[:-1]).all()):
        yield LayoutError("bases", "metadata bases not strictly increasing")
    if int(offsets.min()) < 0:
        yield LayoutError("offsets", "negative data offset")
    if not bool((offsets[1:] >= offsets[:-1]).all()):
        yield LayoutError("offsets", "data-layer offsets not monotone")
    if int((offsets + widths * (counts - 1)).max()) > num_bits:
        yield LayoutError("offsets", "block data extends past num_bits")


_METADATA_KEYS = ("bases", "offsets", "widths", "starts")


def _decode_runs(
    data: BitBuffer,
    bases: np.ndarray,
    offsets: np.ndarray,
    widths: np.ndarray,
    counts: np.ndarray,
) -> np.ndarray:
    """The gather core: decode blocks given as parallel per-block vectors.

    Block *i* holds ``counts[i]`` ids: ``bases[i]``, then ``counts[i] - 1``
    deltas packed at ``widths[i]`` bits from bit ``offsets[i]`` of
    ``data``.  Blocks pack at different widths, so every delta of every
    block is read by one :meth:`BitBuffer.gather_runs` — decode cost is
    paid once per call, not once per block.
    """
    total = int(counts.sum())
    if _METRICS.enabled:
        _METRICS.inc("twolayer.blocks_decoded", int(counts.size))
        _METRICS.inc("twolayer.elements_decoded", total)
    out = np.repeat(bases, counts)
    if total > counts.size:  # some block holds deltas
        deltas = data.gather_runs(offsets, widths, counts - 1)
        # non-base slots are everything except each block's first slot
        mask = np.ones(total, dtype=bool)
        mask[np.cumsum(counts) - counts] = False
        out[mask] += deltas.view(np.int64)  # fields < 2**32: exact
    return out


class TwoLayerStore:
    """Growable sequence of compressed blocks with direct read access.

    Metadata is held in parallel numpy arrays (``bases``, ``offsets``,
    ``widths``) plus a prefix-count array ``starts`` mapping block index to
    the global index of its first element; the packed deltas live in one
    shared :class:`~repro.compression.bitpack.BitBuffer`.  Appending a block
    is O(block size); reads never touch more than one block.
    """

    def __init__(self) -> None:
        self._bases: List[int] = []
        self._offsets: List[int] = []
        self._widths: List[int] = []
        self._starts: List[int] = [0]
        self._data = BitBuffer()
        # numpy mirrors of the metadata, rebuilt lazily for fast searchsorted
        # and batch decodes.
        self._bases_np: np.ndarray = np.empty(0, dtype=np.int64)
        self._starts_np: np.ndarray = np.zeros(1, dtype=np.int64)
        self._offsets_np: np.ndarray = np.empty(0, dtype=np.int64)
        self._widths_np: np.ndarray = np.empty(0, dtype=np.int64)
        self._dirty = False
        # set by from_arrays(copy=False): the vectors alias caller-owned
        # (typically memory-mapped, read-only) arrays
        self._frozen = False

    # ------------------------------------------------------------------ #
    # array form
    # ------------------------------------------------------------------ #
    def _vectors(self) -> List[np.ndarray]:
        """The metadata vectors in ``_METADATA_KEYS`` order, as ``int64``."""
        return [
            np.asarray(vector, dtype=np.int64)
            for vector in (self._bases, self._offsets, self._widths, self._starts)
        ]

    def to_arrays(self) -> Dict[str, np.ndarray]:
        """Flatten the store into its named arrays (no re-encoding).

        The array contract, stated here once: ``bases`` / ``offsets`` /
        ``widths`` hold one ``int64`` per block, ``starts`` the
        ``num_blocks + 1`` ``int64`` prefix counts from 0, ``words`` the
        packed deltas as ``uint64`` extending one word past the last data
        bit (``num_bits // 64 + 2`` words — two-word reads may touch it),
        and ``num_bits`` is ``int64[1]``.
        """
        words_needed = self._data.num_bits // 64 + 2
        arrays = dict(zip(_METADATA_KEYS, self._vectors()))
        arrays["words"] = self._data._words[:words_needed].copy()
        arrays["num_bits"] = np.asarray([self._data.num_bits], dtype=np.int64)
        return arrays

    @classmethod
    def from_arrays(
        cls, arrays: Dict[str, np.ndarray], *, copy: bool = True
    ) -> "TwoLayerStore":
        """Rebuild a store from :meth:`to_arrays` output, verbatim.

        Raises :class:`LayoutError` when the arrays break a layout
        invariant.  With ``copy=True`` the arrays are copied into a fresh,
        appendable store.  With ``copy=False`` the store is read-only and
        its vectors *are* the passed arrays — hand it
        ``np.load(..., mmap_mode='r')`` slices and every read goes straight
        to the page cache, so N engines (or fork-pool workers) opened from
        one bundle share a single file-backed copy; the arrays must then
        already have the :meth:`to_arrays` dtypes.
        """
        num_bits = int(arrays["num_bits"][0])
        words = arrays["words"]
        if copy:
            vectors = [arrays[key].astype(np.int64) for key in _METADATA_KEYS]
        else:
            vectors = [arrays[key] for key in _METADATA_KEYS]
            for key, vector in zip(_METADATA_KEYS, vectors):
                if vector.dtype != np.int64:
                    raise ValueError(
                        f"zero-copy store needs int64 {key!r}, got "
                        f"{vector.dtype} (re-save the bundle or pass copy=True)"
                    )
            if words.dtype != np.uint64:
                raise ValueError(
                    f"zero-copy store needs uint64 'words', got {words.dtype}"
                )
        for error in _layout_violations(*vectors, words, num_bits):
            raise error
        store = cls.__new__(cls)
        (
            store._bases_np,
            store._offsets_np,
            store._widths_np,
            store._starts_np,
        ) = vectors
        if copy:
            store._bases, store._offsets, store._widths, store._starts = (
                vector.tolist() for vector in vectors
            )
            data = BitBuffer(initial_words=int(words.size) + 2)
            data._words[: words.size] = words
        else:
            # the lists' read surface (index, len) is the arrays' too
            store._bases, store._offsets, store._widths, store._starts = (
                vectors  # type: ignore[assignment]
            )
            data = BitBuffer()
            data._words = words
        data._num_bits = num_bits
        store._data = data
        store._dirty = False
        store._frozen = not copy
        return store

    def check(self) -> List[LayoutError]:
        """Violations of the layout's invariants (empty = healthy)."""
        return list(
            _layout_violations(
                *self._vectors(), self._data._words, self._data.num_bits
            )
        )

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def append_block(self, values: Union[List[int], np.ndarray]) -> None:
        """Seal ``values`` (sorted ids, all greater than the current tail) as a block.

        A Python list is validated and packed in integer arithmetic
        (:meth:`BitBuffer.append_ints`: an online list sealing a short
        buffer); any other input takes the vectorized path.  Both raise the
        same errors and write the same words.
        """
        if self._frozen:
            raise ValueError(
                "this store is frozen (opened zero-copy over on-disk arrays); "
                "reopen with mmap=False to get an appendable in-memory copy"
            )
        if isinstance(values, list):
            ids = [int(value) for value in values]
            if not ids:
                raise ValueError("cannot append an empty block")
            check_sorted_id_list(ids)
            base, count = ids[0], len(ids)
            self._check_tail(base)
            width = width_for(ids[-1] - base) if count > 1 else 1
            offset = self._data.append_ints([value - base for value in ids[1:]], width)
        else:
            values = as_id_array(values)
            if values.size == 0:
                raise ValueError("cannot append an empty block")
            check_sorted_ids(values)
            base, count = int(values[0]), int(values.size)
            self._check_tail(base)
            deltas = (values[1:] - base).astype(np.uint64)
            width = width_for(int(values[-1]) - base) if count > 1 else 1
            offset = self._data.append(deltas, width)
        self._bases.append(base)
        self._offsets.append(offset)
        self._widths.append(width)
        self._starts.append(self._starts[-1] + count)
        self._dirty = True

    def _check_tail(self, first: int) -> None:
        if self.num_blocks and first <= self.last_value():
            raise ValueError(
                "blocks must be appended in ascending id order "
                f"({first} <= {self.last_value()})"
            )

    def _sync(self) -> None:
        if self._dirty:
            self._bases_np = np.asarray(self._bases, dtype=np.int64)
            self._starts_np = np.asarray(self._starts, dtype=np.int64)
            self._offsets_np = np.asarray(self._offsets, dtype=np.int64)
            self._widths_np = np.asarray(self._widths, dtype=np.int64)
            self._dirty = False

    # ------------------------------------------------------------------ #
    # shape
    # ------------------------------------------------------------------ #
    @property
    def num_blocks(self) -> int:
        return len(self._bases)

    def __len__(self) -> int:
        return int(self._starts[-1])

    def last_value(self) -> int:
        """Largest id stored; raises ``IndexError`` when empty."""
        if not self.num_blocks:
            raise IndexError("store is empty")
        block = self.num_blocks - 1
        count = int(self._starts[block + 1]) - int(self._starts[block])
        if count == 1:
            return int(self._bases[block])
        return int(self._bases[block]) + self._data.read_one(
            self._offsets[block], self._widths[block], count - 2
        )

    def block_sizes(self) -> List[int]:
        """Element count of every block (used by tests and ablations)."""
        return [
            int(self._starts[i + 1]) - int(self._starts[i])
            for i in range(self.num_blocks)
        ]

    def block_widths(self) -> List[int]:
        """Per-element delta width of every block.

        With :meth:`block_sizes` the public face of the metadata: cost
        models and dashboards come through here instead of reading the
        private ``_widths`` array (lint rule RA08).
        """
        return [int(width) for width in self._widths]

    def max_width_bits(self) -> int:
        """Largest per-element delta width over all blocks (0 when empty)."""
        return max(self.block_widths(), default=0)

    def size_bits(self) -> int:
        """Paper accounting: 69 bits per metadata block + packed data bits."""
        return METADATA_BITS * self.num_blocks + self._data.num_bits

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #
    def _block_of(self, index: int) -> int:
        self._sync()
        return int(np.searchsorted(self._starts_np, index, side="right")) - 1

    def get(self, index: int) -> int:
        """Random access to the ``index``-th id."""
        if not 0 <= index < len(self):
            raise IndexError(f"index {index} out of range for length {len(self)}")
        block = self._block_of(index)
        within = index - int(self._starts[block])
        if within == 0:
            return int(self._bases[block])
        return int(self._bases[block]) + self._data.read_one(
            self._offsets[block], self._widths[block], within - 1
        )

    def decode_block(self, block: int) -> np.ndarray:
        """Decode one block to an ``int64`` array (vectorized)."""
        count = self._starts[block + 1] - self._starts[block]
        if _METRICS.enabled:
            _METRICS.inc("twolayer.blocks_decoded")
            _METRICS.inc("twolayer.elements_decoded", count)
        out = np.empty(count, dtype=np.int64)
        out[0] = self._bases[block]
        if count > 1:
            deltas = self._data.read(
                self._offsets[block], self._widths[block], count - 1
            )
            out[1:] = self._bases[block] + deltas.astype(np.int64)
        return out

    def to_array(self) -> np.ndarray:
        """Decode the whole store in one vectorized pass."""
        if not self.num_blocks:
            return np.empty(0, dtype=np.int64)
        self._sync()
        starts = self._starts_np
        return _decode_runs(
            self._data,
            self._bases_np,
            self._offsets_np,
            self._widths_np,
            starts[1:] - starts[:-1],
        )

    def lower_bound(self, key: int) -> int:
        """Global index of the first id ``>= key``.

        Two binary searches, both on compressed data: first over the metadata
        bases to locate the candidate block, then over the packed deltas
        inside it (the paper's *metadata lookup* / *data lookup*).
        """
        if not self.num_blocks:
            return 0
        self._sync()
        block = int(np.searchsorted(self._bases_np, key, side="right")) - 1
        if block < 0:
            return 0
        base = int(self._bases[block])
        start = int(self._starts[block])
        count = int(self._starts[block + 1]) - start
        if key <= base:
            return start
        target = key - base
        offset, width = self._offsets[block], self._widths[block]
        lo, hi = 0, count - 1  # searching within deltas[0 .. count-2]
        while lo < hi:
            mid = (lo + hi) // 2
            if self._data.read_one(offset, width, mid) < target:
                lo = mid + 1
            else:
                hi = mid
        # lo in [0, count-1]; delta index lo corresponds to global start+1+lo
        if lo == count - 1:
            return start + count  # key greater than everything in this block
        return start + 1 + lo


def decode_stores(stores: Sequence[TwoLayerStore]) -> List[np.ndarray]:
    """Decode many stores together: ``[store.to_array() for store in stores]``.

    The stores are cut, in order, into chunks of at most
    :data:`DECODE_CHUNK_ELEMENTS` ids (a larger store is a chunk of its
    own).  A chunk concatenates its stores' data words, rebases every
    block's bit offset by its store's word base and decodes every block of
    every store with one gather, so the numpy set-up that
    :meth:`TwoLayerStore.to_array` pays per list is paid per chunk; a
    chunk of fewer than :data:`SCALAR_DECODE_ELEMENTS` ids skips numpy's
    set-up altogether.  A store's array may be a view into its chunk's.
    """
    arrays: List[np.ndarray] = []
    chunk: List[TwoLayerStore] = []
    sizes: List[int] = []
    elements = 0
    for store in stores:
        size = len(store)
        if chunk and elements + size > DECODE_CHUNK_ELEMENTS:
            arrays += _decode_chunk(chunk, sizes, elements)
            chunk, sizes, elements = [], [], 0
        chunk.append(store)
        sizes.append(size)
        elements += size
    if chunk:
        arrays += _decode_chunk(chunk, sizes, elements)
    return arrays


def _decode_chunk(
    stores: List[TwoLayerStore], sizes: List[int], elements: int
) -> List[np.ndarray]:
    """Every block of ``stores`` (``sizes`` ids each) in one pass."""
    if elements < SCALAR_DECODE_ELEMENTS:
        out = _decode_scalar(stores)
    elif len(stores) == 1:
        return [stores[0].to_array()]
    else:
        out = _gather_stores(stores)
    arrays: List[np.ndarray] = []
    start = 0
    for size in sizes:
        arrays.append(out[start : start + size])
        start += size
    return arrays


def _gather_stores(stores: List[TwoLayerStore]) -> np.ndarray:
    """The numpy pass: concatenated words, rebased offsets, one gather."""
    bases: List[np.ndarray] = []
    offsets: List[np.ndarray] = []
    widths: List[np.ndarray] = []
    firsts: List[np.ndarray] = []  # starts[:-1] and starts[1:], per store
    lasts: List[np.ndarray] = []
    words: List[np.ndarray] = []
    blocks: List[int] = []  # per store
    num_bits: List[int] = []
    word_bits: List[int] = []  # first bit of the store's words in the chunk
    word_base = 0
    for store in stores:
        store._sync()
        starts = store._starts_np
        bases.append(store._bases_np)
        offsets.append(store._offsets_np)
        widths.append(store._widths_np)
        firsts.append(starts[:-1])
        lasts.append(starts[1:])
        bits = store._data.num_bits
        used = store._data._words[: (bits + 63) // 64]
        words.append(used)
        blocks.append(starts.size - 1)
        num_bits.append(bits)
        word_bits.append(64 * word_base)
        word_base += used.size
    # one zero word past the end: the reader's two-word reads may touch it
    words.append(np.zeros(1, dtype=np.uint64))
    counts = np.concatenate(lasts) - np.concatenate(firsts)
    local = np.concatenate(offsets)
    width = np.concatenate(widths)
    limits, rebase = np.repeat(
        np.asarray([num_bits, word_bits], dtype=np.int64), blocks, axis=1
    )
    # the gather's own bound is the concatenated buffer's end; a block must
    # stay inside *its own* store's bits, or it would read a neighbour's
    if bool(((local < 0) | (local + width * (counts - 1) > limits)).any()):
        raise IndexError("block data lies outside its store's num_bits")
    data = BitBuffer()
    data._words = np.concatenate(words)
    data._num_bits = 64 * word_base
    return _decode_runs(
        data, np.concatenate(bases), local + rebase, width, counts
    )


def _decode_scalar(stores: List[TwoLayerStore]) -> np.ndarray:
    """Every id of ``stores``, concatenated, in plain integer arithmetic."""
    ids: List[int] = []
    blocks = 0
    for store in stores:
        data = store._data
        bits = data.num_bits
        # the data words as one integer: bit t of the stream is bit t here
        words = data._words[: (bits + 63) // 64].astype("<u8", copy=False)
        stream = int.from_bytes(words.tobytes(), "little")
        starts = store._starts
        for block in range(store.num_blocks):
            base = int(store._bases[block])
            ids.append(base)
            count = int(starts[block + 1]) - int(starts[block])
            if count == 1:
                continue
            offset = int(store._offsets[block])
            width = int(store._widths[block])
            if offset < 0 or offset + width * (count - 1) > bits:
                raise IndexError("block data lies outside its store's num_bits")
            mask = (1 << width) - 1
            run = stream >> offset
            ids += [
                base + ((run >> shift) & mask)
                for shift in range(0, width * (count - 1), width)
            ]
        blocks += store.num_blocks
    if _METRICS.enabled:
        _METRICS.inc("twolayer.blocks_decoded", blocks)
        _METRICS.inc("twolayer.elements_decoded", len(ids))
    return np.asarray(ids, dtype=np.int64)


class TwoLayerCursor:
    """Block-local forward cursor over a :class:`TwoLayerStore`.

    Keeps (block, within-block) coordinates so ``value``/``advance`` are O(1)
    bit reads and ``seek`` restarts its metadata binary search from the
    current block instead of the list head.  This is what makes MergeSkip on
    the compressed layout competitive with uncompressed cursors.
    """

    __slots__ = ("_store", "_block", "_within", "_count")

    def __init__(self, store: TwoLayerStore) -> None:
        self._store = store
        self._block = 0
        self._within = 0
        self._count = (
            int(store._starts[1]) - int(store._starts[0])
            if store.num_blocks
            else 0
        )

    @property
    def exhausted(self) -> bool:
        return self._block >= self._store.num_blocks

    @property
    def position(self) -> int:
        if self.exhausted:
            return len(self._store)
        return int(self._store._starts[self._block]) + self._within

    def value(self) -> int:
        if self.exhausted:
            raise IndexError("cursor exhausted")
        store = self._store
        if self._within == 0:
            return int(store._bases[self._block])
        return int(store._bases[self._block]) + store._data.read_one(
            store._offsets[self._block],
            store._widths[self._block],
            self._within - 1,
        )

    def _enter_block(self, block: int) -> None:
        self._block = block
        self._within = 0
        store = self._store
        if block < store.num_blocks:
            self._count = int(store._starts[block + 1]) - int(
                store._starts[block]
            )

    def advance(self) -> None:
        self._within += 1
        if self._within >= self._count:
            self._enter_block(self._block + 1)

    def seek(self, key: int) -> None:
        if self.exhausted or self.value() >= key:
            return
        if _METRICS.enabled:
            _METRICS.inc("cursor.seeks")
        store = self._store
        store._sync()
        block = (
            int(
                np.searchsorted(
                    store._bases_np[self._block :], key, side="right"
                )
            )
            + self._block
            - 1
        )
        if block != self._block:
            self._enter_block(block)
        if self.exhausted:
            return
        base = int(store._bases[block])
        if key <= base:
            return
        target = key - base
        offset, width = store._offsets[block], store._widths[block]
        lo = max(self._within - 1, 0)
        hi = self._count - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if store._data.read_one(offset, width, mid) < target:
                lo = mid + 1
            else:
                hi = mid
        if lo == self._count - 1 and (
            self._count == 1
            or store._data.read_one(offset, width, self._count - 2) < target
        ):
            self._enter_block(block + 1)
        else:
            self._within = lo + 1

    def remaining(self) -> int:
        return len(self._store) - self.position


# repro: noqa RA05 -- building block, not a scheme: needs explicit boundaries
class TwoLayerList(SortedIDList):
    """Offline two-layer compressed list built from an explicit partitioning.

    ``boundaries`` gives the start index of every block; MILC computes them
    with a fixed stride, CSS with the dynamic program of Algorithm 2.
    """

    scheme_name = "twolayer"

    def __init__(self, values: Sequence[int], boundaries: Iterable[int]) -> None:
        values = as_id_array(values)
        check_sorted_ids(values)
        self._store = TwoLayerStore()
        bounds = list(boundaries)
        if values.size and (not bounds or bounds[0] != 0):
            raise ValueError("boundaries must start at 0")
        edges: List[Tuple[int, int]] = list(
            zip(bounds, bounds[1:] + [int(values.size)])
        )
        for start, end in edges:
            if end <= start:
                raise ValueError(f"invalid block boundaries: [{start}, {end})")
            self._store.append_block(values[start:end])

    @classmethod
    def from_store(cls, store: TwoLayerStore, scheme_name: str) -> "TwoLayerList":
        """Adopt an already-built store (partitioning preserved)."""
        lst = cls.__new__(cls)
        lst._store = store
        lst.scheme_name = scheme_name
        return lst

    @property
    def store(self) -> TwoLayerStore:
        return self._store

    @property
    def num_blocks(self) -> int:
        return self._store.num_blocks

    def block_sizes(self) -> List[int]:
        return self._store.block_sizes()

    def max_width_bits(self) -> int:
        return self._store.max_width_bits()

    def __len__(self) -> int:
        return len(self._store)

    def __getitem__(self, index: int) -> int:
        return self._store.get(index)

    def to_array(self) -> np.ndarray:
        return self._store.to_array()

    def lower_bound(self, key: int) -> int:
        return self._store.lower_bound(key)

    def size_bits(self) -> int:
        return self._store.size_bits()

    def cursor(self) -> TwoLayerCursor:
        return TwoLayerCursor(self._store)
