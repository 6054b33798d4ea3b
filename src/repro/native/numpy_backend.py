"""Pure-numpy reference implementation of the native kernel contract.

This backend is the semantic ground truth of :mod:`repro.native`: the
compiled C backend must be bit-identical to the functions here, and the
dispatch layer enforces that with a probe run before trusting the compiled
library.  It is also the operative backend under
``REPRO_NATIVE=0`` and on hosts with no C compiler, so it is written with
the same per-node numpy discipline the pre-native enumeration core used —
fused word loops over transposed planes, no Python-int bitmask churn.

Two layers share this module:

* **Flat kernels** (:class:`NumpyKernels`) — stateless array-in/array-out
  functions: the tile pass, the tile fold and the row dedup mirror C entry
  points one to one, and are what the hypothesis identity tests and the
  dispatch probe exercise; ``intersection_counts`` is the workspace's
  overlap count.
* **Search workspace** (:class:`NumpySearchWorkspace`) — the arena the
  explicit-stack ``ADCEnum._search`` drives.  One workspace owns per-depth
  slots of reusable buffers (evidence plane, overlap counters, candidate
  planes, criticality rows) so a search node allocates nothing; the
  compiled workspaces implement the same interface with the buffers handed
  to C.
"""

from __future__ import annotations

import numpy as np

NAME = "numpy"

#: ``try_hit`` outcomes (shared by every backend).
PRUNED = 0
DESCENDED = 1

#: Selection-rule codes of ``expand`` (shared by every backend).
SELECT_MAX = 0
SELECT_MIN = 1
SELECT_RANDOM = 2

#: Participation keys of ``fold_tiles`` pack ``evidence << 32 | tuple``
#: (the layout of :mod:`repro.engine.partial`).
_TUPLE_BITS = 32
_TUPLE_MASK = (1 << _TUPLE_BITS) - 1

_SELECTION_CODES = {"max": SELECT_MAX, "min": SELECT_MIN, "random": SELECT_RANDOM}


def selection_code(selection: str) -> int:
    """Map an ADCEnum selection-strategy name to its kernel code."""
    return _SELECTION_CODES[selection]


# ---------------------------------------------------------------------------
# Flat kernels
# ---------------------------------------------------------------------------
class NumpyKernels:
    """Stateless reference kernels (see the C source for the contracts)."""

    name = NAME

    @staticmethod
    def intersection_counts(ev_planes: np.ndarray, mask_words: np.ndarray) -> np.ndarray:
        """Per-column ``|evidence ∩ mask|`` over a transposed word plane.

        ``ev_planes`` is ``(n_words, E)`` uint64, ``mask_words`` ``(n_words,)``;
        returns uint32 counts of length ``E``.  Unrolled over the (short)
        word axis so each pass is one contiguous 1-D popcount.
        """
        n_words = ev_planes.shape[0]
        counts = np.bitwise_count(ev_planes[0] & mask_words[0]).astype(np.uint32)
        for word in range(1, n_words):
            counts += np.bitwise_count(ev_planes[word] & mask_words[word])
        return counts

    @staticmethod
    def tile_plane(
        kinds: np.ndarray,
        a: np.ndarray,
        b: np.ndarray,
        lookup: np.ndarray,
        i0: int,
        i1: int,
        j0: int,
        j1: int,
        n_words: int,
    ) -> np.ndarray:
        """Evidence-word plane of one ordered-pair tile.

        ``kinds[g]`` selects group ``g``'s category rule (0 single-tuple,
        1 numeric pair, 2 string pair) over the per-row float64 vectors
        ``a[g]``/``b[g]``; ``lookup`` is ``(G, 3, n_words)``.  Returns the
        ``(tile_area, n_words)`` uint64 plane in pair-major order.
        """
        height, width = i1 - i0, j1 - j0
        plane = np.zeros((height, width, n_words), dtype=np.uint64)
        for g in range(len(kinds)):
            kind = int(kinds[g])
            if kind == 0:
                categories = np.broadcast_to(
                    a[g, i0:i1].astype(np.int64)[:, None], (height, width)
                )
            elif kind == 1:
                # LESS, EQUAL, else GREATER — so a NaN difference is GREATER,
                # as in the compiled kernel.
                diff = a[g, i0:i1, None] - b[g, None, j0:j1]
                categories = 2 - 2 * (diff < 0).astype(np.int64) - (diff == 0)
            else:
                equal = a[g, i0:i1, None] == b[g, None, j0:j1]
                categories = equal.astype(np.int64)
            plane |= lookup[g][categories]
        return plane.reshape(-1, n_words)

    @staticmethod
    def fold_tiles(
        kinds: np.ndarray,
        a: np.ndarray,
        b: np.ndarray,
        lookup: np.ndarray,
        bounds: np.ndarray,
        n_words: int,
        participation: bool,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray | None] | None:
        """Fold a tile list into its distinct evidences and participation.

        ``bounds`` is the ``(T, 4)`` int64 array of tiles ``(i0, i1, j0,
        j1)``; diagonal pairs are skipped.  Returns ``None`` when no pair was
        folded, else ``(words, counts, part_keys, part_counts)``: the
        distinct words in canonical lexicographic order with their pair
        multiplicities, and — with ``participation``, else ``None`` — the
        call's aggregated tuple-participation histogram, keys
        ``rank << 32 | tuple`` ascending, where ``rank`` indexes ``words``.

        Each tile takes the per-tile steps (``tile_plane``, ``unique_rows``,
        ``np.unique`` over two keys per pair); the tiles' results are then
        deduplicated once more and their keys re-aggregated.
        """
        word_chunks: list[np.ndarray] = []
        count_chunks: list[np.ndarray] = []
        key_chunks: list[np.ndarray] = []
        key_count_chunks: list[np.ndarray] = []
        n_folded = 0
        for i0, i1, j0, j1 in np.asarray(bounds, dtype=np.int64).reshape(-1, 4).tolist():
            if i1 <= i0 or j1 <= j0:
                continue
            plane = NumpyKernels.tile_plane(kinds, a, b, lookup, i0, i1, j0, j1, n_words)
            left = np.repeat(np.arange(i0, i1, dtype=np.int64), j1 - j0)
            right = np.tile(np.arange(j0, j1, dtype=np.int64), i1 - i0)
            keep = left != right
            plane, left, right = plane[keep], left[keep], right[keep]
            if not len(plane):
                continue
            words, inverse, counts = NumpyKernels.unique_rows(plane)
            word_chunks.append(words)
            count_chunks.append(counts)
            if participation:
                ids = (inverse + n_folded) << _TUPLE_BITS
                keys, key_counts = np.unique(
                    np.concatenate([ids | left, ids | right]), return_counts=True
                )
                key_chunks.append(keys)
                key_count_chunks.append(key_counts)
            n_folded += len(words)
        if not word_chunks:
            return None
        words, inverse, _ = NumpyKernels.unique_rows(np.concatenate(word_chunks))
        counts = np.zeros(len(words), dtype=np.int64)
        np.add.at(counts, inverse, np.concatenate(count_chunks))
        if not participation:
            return words, counts, None, None
        keys = np.concatenate(key_chunks)
        keys = (inverse[keys >> _TUPLE_BITS] << _TUPLE_BITS) | (keys & _TUPLE_MASK)
        part_keys, key_inverse = np.unique(keys, return_inverse=True)
        part_counts = np.zeros(len(part_keys), dtype=np.int64)
        np.add.at(part_counts, key_inverse.ravel(), np.concatenate(key_count_chunks))
        return words, counts, part_keys, part_counts

    @staticmethod
    def unique_rows(words: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Distinct rows of a 2-D uint64 array: ``(rows, inverse, counts)``.

        Rows come back in the canonical lexicographic order (word 0
        primary), explicitly — not ``np.unique``'s byte order, which would
        depend on the platform's endianness.  This is the dedup step of
        the numpy fold and of the dense builder
        (:func:`repro.core.evidence.unique_word_rows` dispatches here),
        dominated by the sort; the compiled backend replaces it with a hash
        pass over the rows.
        """
        contiguous = np.ascontiguousarray(words, dtype=np.uint64)
        n, n_words = contiguous.shape
        if n == 0:
            return contiguous, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        void_view = contiguous.view([("", contiguous.dtype)] * n_words).ravel()
        _, first_index, inverse, counts = np.unique(
            void_view, return_index=True, return_inverse=True, return_counts=True
        )
        rows = contiguous[first_index]
        keys = tuple(rows[:, word] for word in range(n_words - 1, -1, -1))
        order = np.lexsort(keys)
        rank = np.empty(len(rows), dtype=np.int64)
        rank[order] = np.arange(len(rows), dtype=np.int64)
        return rows[order], rank[inverse.ravel()], counts[order]


# ---------------------------------------------------------------------------
# Search workspace
# ---------------------------------------------------------------------------
class _Slot:
    """Reusable buffers of one search depth, grown on demand.

    ``ev`` is the depth's transposed evidence plane stored in a
    ``(n_words, capacity)`` arena; the live view is ``ev[:, :E]`` with the
    arena width as row stride, which is exactly the layout the C kernels
    consume (stride in elements, rows contiguous).
    """

    __slots__ = (
        "capacity", "ev", "cin", "red", "pairs", "uncov",
        "cand_in", "to_try", "cand_loop", "uncov_bits",
        "block_capacity", "elements", "covers_block", "crit_block", "child_bits_block",
        "addr",  # compiled backends cache buffer addresses here (None = stale)
    )

    def __init__(self, n_words: int, n_ev_words: int, capacity: int, track_uncov: bool) -> None:
        self.capacity = capacity
        self.ev = np.zeros((n_words, capacity), dtype=np.uint64)
        self.cin = np.zeros(capacity, dtype=np.uint32)
        self.red = np.zeros(capacity, dtype=np.uint32)
        self.pairs = np.zeros(capacity, dtype=np.int64)
        self.uncov = np.zeros(capacity, dtype=np.int64) if track_uncov else None
        self.cand_in = np.zeros(n_words, dtype=np.uint64)
        self.to_try = np.zeros(n_words, dtype=np.uint64)
        self.cand_loop = np.zeros(n_words, dtype=np.uint64)
        self.uncov_bits = np.zeros(n_ev_words, dtype=np.uint64)
        self.block_capacity = 0
        self.elements = None
        self.covers_block = None
        self.crit_block = None
        self.child_bits_block = None
        self.addr = None

    def grow(self, n_words: int, capacity: int) -> None:
        self.capacity = capacity
        self.ev = np.zeros((n_words, capacity), dtype=np.uint64)
        self.cin = np.zeros(capacity, dtype=np.uint32)
        self.red = np.zeros(capacity, dtype=np.uint32)
        self.pairs = np.zeros(capacity, dtype=np.int64)
        if self.uncov is not None:
            self.uncov = np.zeros(capacity, dtype=np.int64)
        self.addr = None

    def grow_blocks(self, n_ev_words: int, capacity: int) -> None:
        self.block_capacity = capacity
        self.elements = np.zeros(capacity, dtype=np.int32)
        self.covers_block = np.zeros((capacity, n_ev_words), dtype=np.uint64)
        self.crit_block = np.zeros((capacity, n_ev_words), dtype=np.uint64)
        self.child_bits_block = np.zeros((capacity, n_ev_words), dtype=np.uint64)
        self.addr = None


class NumpySearchWorkspace:
    """Arena-backed search state driven by the explicit-stack ``_search``.

    The workspace owns one :class:`_Slot` per search depth plus the shared
    criticality plane; the driver threads only scalars (depth, evidence
    count, pair totals) through its stack frames.  Slot ``d + 1`` is always
    written by an operation on slot ``d`` (``skip_child`` / ``try_hit``), so
    aliasing between a node and any node below it is impossible by
    construction.

    Contracts (identical across backends; statuses/codes are the module
    constants):

    * ``expand(d, E, selection, call_index)`` → ``(chosen, n_selectable,
      lost_pairs, n_to_try)``: picks the evidence, fills the slot's
      ``to_try``/``cand_loop`` planes and reduced overlap counts.
    * ``skip_child(d, E, compact)`` → child evidence count; writes slot
      ``d + 1`` (candidate plane = parent's ``cand_loop``).
    * ``hit_prepare(d, E, k)``: extracts the ``k`` hit-loop elements with
      their coverage/criticality/child-uncovered rows.
    * ``try_hit(d, E, position)`` → ``(status, element, E_child,
      child_pairs)``: one hit-loop step — criticality push, then for a
      viable element the candidate re-add and the full child build in slot
      ``d + 1``.  ``DESCENDED`` leaves the criticality planes applied; the
      driver calls ``crit_pop`` when the subtree returns.
    """

    #: Whether the workspace runs the whole pair-determined search itself
    #: (``pair_search``); the numpy arena only serves the Python driver.
    native_driver = False

    def __init__(
        self,
        ev_planes: np.ndarray,
        counts: np.ndarray,
        contains_ev_words: np.ndarray,
        group_words_inv: np.ndarray,
        full_cand_words: np.ndarray,
        n_evidences: int,
        n_predicates: int,
        track_uncov: bool,
    ) -> None:
        self._ev_root = np.ascontiguousarray(ev_planes, dtype=np.uint64)
        self._counts_root = np.ascontiguousarray(counts, dtype=np.int64)
        self._contains = np.ascontiguousarray(contains_ev_words, dtype=np.uint64)
        self._group_inv = np.ascontiguousarray(group_words_inv, dtype=np.uint64)
        self._full_cand = np.ascontiguousarray(full_cand_words, dtype=np.uint64)
        self.n_evidences = int(n_evidences)
        self.n_predicates = int(n_predicates)
        self.n_words = self._ev_root.shape[0] if self._ev_root.ndim == 2 else 1
        self.n_ev_words = self._contains.shape[1]
        self._track_uncov = bool(track_uncov)
        self._slots: list[_Slot | None] = []
        # Criticality planes over evidence bits, one row per hitting-set
        # member; removed-token stacks are allocated per depth on first use.
        self._crit_rows = np.zeros((n_predicates + 1, self.n_ev_words), dtype=np.uint64)
        self._crit_depth = 0
        self._crit_removed: list[np.ndarray | None] = [None] * (n_predicates + 1)

    # -- slot management ----------------------------------------------------
    def _slot(self, depth: int, min_capacity: int) -> _Slot:
        while len(self._slots) <= depth:
            self._slots.append(None)
        slot = self._slots[depth]
        if slot is None:
            slot = _Slot(
                self.n_words, self.n_ev_words, max(min_capacity, 1), self._track_uncov
            )
            self._slots[depth] = slot
        elif slot.capacity < min_capacity:
            slot.grow(self.n_words, min_capacity)
        return slot

    def init_root(self) -> int:
        """Load the root node into slot 0; returns its evidence count."""
        n = self.n_evidences
        slot = self._slot(0, n)
        slot.ev[:, :n] = self._ev_root
        slot.pairs[:n] = self._counts_root
        slot.cin[:n] = NumpyKernels.intersection_counts(self._ev_root, self._full_cand)
        slot.cand_in[:] = self._full_cand
        slot.uncov_bits[:] = 0
        full_words, remainder = divmod(n, 64)
        slot.uncov_bits[:full_words] = np.uint64(0xFFFFFFFFFFFFFFFF)
        if remainder:
            slot.uncov_bits[full_words] = np.uint64((1 << remainder) - 1)
        if slot.uncov is not None:
            slot.uncov[:n] = np.arange(n, dtype=np.int64)
        self._crit_depth = 0
        return n

    # -- views (read-only use by the driver's cold paths) -------------------
    def cin_view(self, depth: int, n: int) -> np.ndarray:
        return self._slots[depth].cin[:n]

    def red_view(self, depth: int, n: int) -> np.ndarray:
        return self._slots[depth].red[:n]

    def uncov_view(self, depth: int, n: int) -> np.ndarray:
        return self._slots[depth].uncov[:n]

    def uncov_bits_view(self, depth: int) -> np.ndarray:
        return self._slots[depth].uncov_bits

    def elements_list(self, depth: int, k: int) -> list[int]:
        return self._slots[depth].elements[:k].tolist()

    def crit_active_rows(self) -> np.ndarray:
        return self._crit_rows[: self._crit_depth]

    @property
    def crit_depth(self) -> int:
        return self._crit_depth

    # -- node kernels -------------------------------------------------------
    def expand(
        self, depth: int, n: int, selection: int, call_index: int
    ) -> tuple[int, int, int, int]:
        slot = self._slots[depth]
        cin = slot.cin[:n]
        selectable = (cin > 0).nonzero()[0]
        n_sel = int(selectable.size)
        if n_sel == 0:
            return -1, 0, 0, 0
        if selection == SELECT_RANDOM:
            chosen = int(selectable[call_index % n_sel])
        elif selection == SELECT_MAX:
            chosen = int(selectable[int(cin[selectable].argmax())])
        else:
            chosen = int(selectable[int(cin[selectable].argmin())])
        chosen_words = slot.ev[:, chosen]
        np.bitwise_and(slot.cand_in, chosen_words, out=slot.to_try)
        np.bitwise_and(slot.cand_in, ~chosen_words, out=slot.cand_loop)
        red = slot.red[:n]
        red[:] = cin
        ev = slot.ev[:, :n]
        for word in range(self.n_words):
            mask = slot.to_try[word]
            if mask:
                red -= np.bitwise_count(ev[word] & mask)
        lost = int(slot.pairs[:n][red == 0].sum())
        n_to_try = int(np.bitwise_count(slot.to_try).sum())
        return chosen, n_sel, lost, n_to_try

    def skip_child(self, depth: int, n: int, compact: bool) -> int:
        slot = self._slots[depth]
        red = slot.red[:n]
        if compact:
            alive = (red > 0).nonzero()[0]
            m = int(alive.size)
            child = self._slot(depth + 1, m)
            child.ev[:, :m] = slot.ev[:, :n].take(alive, axis=1)
            child.cin[:m] = red.take(alive)
            child.pairs[:m] = slot.pairs[:n].take(alive)
            if child.uncov is not None:
                child.uncov[:m] = slot.uncov[:n].take(alive)
        else:
            m = n
            child = self._slot(depth + 1, m)
            child.ev[:, :m] = slot.ev[:, :n]
            child.cin[:m] = red
            child.pairs[:m] = slot.pairs[:n]
            if child.uncov is not None:
                child.uncov[:m] = slot.uncov[:n]
        child.cand_in[:] = slot.cand_loop
        child.uncov_bits[:] = slot.uncov_bits
        return m

    def hit_prepare(self, depth: int, n: int, k: int) -> int:
        slot = self._slots[depth]
        if slot.block_capacity < k:
            slot.grow_blocks(self.n_ev_words, max(k, 1))
        # Ascending set-bit positions of to_try, via the same bit-twiddling
        # walk the compiled kernels use.
        position = 0
        base = 0
        for word in slot.to_try.tolist():
            while word:
                low = word & -word
                slot.elements[position] = base + low.bit_length() - 1
                position += 1
                word ^= low
            base += 64
        elements = slot.elements[:position]
        covers = self._contains[elements]
        slot.covers_block[:position] = covers
        np.bitwise_and(covers, slot.uncov_bits, out=slot.crit_block[:position])
        np.bitwise_and(slot.uncov_bits, ~covers, out=slot.child_bits_block[:position])
        return position

    def try_hit(
        self, depth: int, n: int, position: int
    ) -> tuple[int, int, int, int]:
        slot = self._slots[depth]
        element = int(slot.elements[position])
        covers = slot.covers_block[position]
        crit_depth = self._crit_depth
        # Criticality push.  The removed token lands in the per-depth stack
        # slot: deeper applies use deeper slots, so the token survives the
        # whole child subtree untouched until crit_pop consumes it.
        removed = self._removed_buffer(crit_depth)
        members = self._crit_rows[:crit_depth]
        np.bitwise_and(members, covers, out=removed)
        members ^= removed
        viable = bool(members.any(axis=1).all()) if crit_depth else True
        self._crit_rows[crit_depth] = slot.crit_block[position]
        if not viable:
            members |= removed
            return PRUNED, element, 0, 0
        slot.cand_loop[element >> 6] |= np.uint64(1) << np.uint64(element & 63)
        self._crit_depth = crit_depth + 1

        bit = np.uint64(1) << np.uint64(element & 63)
        keep = ((slot.ev[element >> 6, :n] & bit) == 0).nonzero()[0]
        m = int(keep.size)
        child = self._slot(depth + 1, m)
        child.ev[:, :m] = slot.ev[:, :n].take(keep, axis=1)
        child.pairs[:m] = slot.pairs[:n].take(keep)
        if child.uncov is not None:
            child.uncov[:m] = slot.uncov[:n].take(keep)
        child_pairs = int(child.pairs[:m].sum())
        np.bitwise_and(slot.cand_loop, self._group_inv[element], out=child.cand_in)
        child.cin[:m] = NumpyKernels.intersection_counts(child.ev[:, :m], child.cand_in)
        child.uncov_bits[:] = slot.child_bits_block[position]
        return DESCENDED, element, m, child_pairs

    def crit_pop(self) -> None:
        """Undo the criticality push of the most recent ``DESCENDED`` hit."""
        self._crit_depth -= 1
        depth = self._crit_depth
        self._crit_rows[:depth] |= self._removed_buffer(depth)

    def _removed_buffer(self, crit_depth: int) -> np.ndarray:
        buffer = self._crit_removed[crit_depth]
        if buffer is None:
            buffer = np.zeros((crit_depth, self.n_ev_words), dtype=np.uint64)
            self._crit_removed[crit_depth] = buffer
        return buffer
