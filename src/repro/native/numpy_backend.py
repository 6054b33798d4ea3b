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
  functions mirroring the C entry points one to one (popcount,
  intersection counts, criticality apply/undo, the tile pass).  These are
  what the hypothesis identity tests and the dispatch probe exercise.
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
REPLAYED = 1
DESCENDED = 2

#: Selection-rule codes of ``expand`` (shared by every backend).
SELECT_MAX = 0
SELECT_MIN = 1
SELECT_RANDOM = 2

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
    def popcount(words: np.ndarray) -> np.ndarray:
        """Per-element popcount of a uint64 array (uint8 result)."""
        return np.bitwise_count(words)

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
    def crit_apply(
        rows: np.ndarray, depth: int, new_row: np.ndarray, covers: np.ndarray
    ) -> tuple[bool, np.ndarray]:
        """Criticality push: strip ``covers`` from ``rows[:depth]``, install
        ``new_row`` at ``depth``; returns ``(viable, removed)`` where
        ``removed`` restores the stripped bits via :meth:`crit_undo`."""
        members = rows[:depth]
        removed = members & covers
        members ^= removed
        viable = bool(members.any(axis=1).all()) if depth else True
        rows[depth] = new_row
        return viable, removed

    @staticmethod
    def crit_undo(rows: np.ndarray, depth: int, removed: np.ndarray) -> None:
        """Criticality pop: restore the bits ``crit_apply`` stripped."""
        rows[:depth] |= removed

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
                sign = np.sign(a[g, i0:i1, None] - b[g, None, j0:j1])
                categories = (sign + 1).astype(np.int64)
            else:
                equal = a[g, i0:i1, None] == b[g, None, j0:j1]
                categories = equal.astype(np.int64)
            plane |= lookup[g][categories]
        return plane.reshape(-1, n_words)

    @staticmethod
    def unique_rows(words: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Distinct rows of a 2-D uint64 array: ``(rows, inverse, counts)``.

        Rows come back in the canonical lexicographic order (word 0
        primary), explicitly — not ``np.unique``'s byte order, which would
        depend on the platform's endianness.  This is the dedup step of
        every evidence builder (:func:`repro.core.evidence.unique_word_rows`
        dispatches here), dominated by the sort; the compiled backend
        replaces it with a hash pass over the rows.
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
    aliasing between a node and its descendants is impossible by
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
    * ``try_hit(d, E, position, descend)`` → ``(status, element, E_child,
      child_pairs)``: one hit-loop step — criticality push, candidate
      re-add, and (when descending) the full child build in slot ``d + 1``.
      ``DESCENDED`` leaves the criticality planes applied; the driver calls
      ``crit_pop`` when the subtree returns.
    """

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

    def pairs_view(self, depth: int, n: int) -> np.ndarray:
        return self._slots[depth].pairs[:n]

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
        self, depth: int, n: int, position: int, descend: bool
    ) -> tuple[int, int, int, int]:
        slot = self._slots[depth]
        element = int(slot.elements[position])
        covers = slot.covers_block[position]
        crit_depth = self._crit_depth
        # Criticality push.  The removed token lands in the per-depth stack
        # slot: deeper applies use deeper slots, so the token survives the
        # whole descended subtree untouched until crit_pop consumes it.
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
        if not descend:
            members |= removed
            return REPLAYED, element, 0, 0
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
