"""The numpy reference of the native kernel layer: the oracle of the C kernels.

The library has one kernel backend, the compiled C library of
:mod:`repro.native.cext`.  This module is its pure-numpy twin, kept as a
test oracle: the bit-identity suites run the compiled kernels and the
compiled search against it, and it regenerates the golden digests of
:mod:`repro.native.selfcheck`.  It is written with the per-node numpy
discipline of the pre-native enumeration core: fused word loops over
transposed planes, no Python-int bitmask churn.

Two layers:

* **Flat kernels** (:class:`NumpyKernels`): stateless array-in/array-out
  functions that mirror the C entry points one to one (the tile pass,
  the tile fold and the row dedup), plus ``intersection_counts``, the
  search's overlap count.
* **Search workspace** (:class:`NumpySearchWorkspace`): the per-depth
  search arena, the five per-node operations the compiled driver runs as
  static C steps, and ``search``, the Python driver that composes them
  node for node as ``adc_enum_run`` does.

:data:`NUMPY_BACKEND` bundles both for :func:`repro.native.dispatch.
use_backend`.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator

import numpy as np

from repro.core.bitset import unpack_bits
from repro.native.dispatch import Backend

#: Participation keys of ``fold_tiles`` pack ``evidence << 32 | tuple``
#: (the layout of :mod:`repro.engine.partial`).
_TUPLE_BITS = 32
_TUPLE_MASK = (1 << _TUPLE_BITS) - 1


# ---------------------------------------------------------------------------
# Flat kernels
# ---------------------------------------------------------------------------
class NumpyKernels:
    """Stateless reference kernels (see the C source for the contracts)."""

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
        the numpy fold and, under this backend, of the dense builder
        (:func:`repro.core.evidence.unique_word_rows`), dominated by the
        sort; the compiled kernel replaces it with a hash pass over the
        rows.
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
#: ``try_hit`` outcomes.
PRUNED = 0
DESCENDED = 1

#: Selection-rule codes of ``expand`` (those of the compiled driver).
SELECT_MAX = 0
SELECT_MIN = 1
SELECT_RANDOM = 2


class _Slot:
    """Reusable buffers of one search depth, grown on demand.

    ``ev`` is the depth's transposed evidence plane stored in a
    ``(n_words, capacity)`` arena; the live view is ``ev[:, :E]`` with the
    arena width as row stride, the layout of the C driver's slots.
    """

    __slots__ = (
        "capacity", "ev", "cin", "red", "pairs", "uncov",
        "cand_in", "to_try", "cand_loop", "uncov_bits",
        "block_capacity", "elements", "covers_block", "crit_block", "child_bits_block",
    )

    def __init__(self, n_words: int, n_ev_words: int, capacity: int, track_uncov: bool) -> None:
        self.uncov = np.zeros(0, dtype=np.int64) if track_uncov else None
        self.grow(n_words, capacity)
        self.cand_in = np.zeros(n_words, dtype=np.uint64)
        self.to_try = np.zeros(n_words, dtype=np.uint64)
        self.cand_loop = np.zeros(n_words, dtype=np.uint64)
        self.uncov_bits = np.zeros(n_ev_words, dtype=np.uint64)
        self.block_capacity = 0
        self.elements = None
        self.covers_block = None
        self.crit_block = None
        self.child_bits_block = None

    def grow(self, n_words: int, capacity: int) -> None:
        self.capacity = capacity
        self.ev = np.zeros((n_words, capacity), dtype=np.uint64)
        self.cin = np.zeros(capacity, dtype=np.uint32)
        self.red = np.zeros(capacity, dtype=np.uint32)
        self.pairs = np.zeros(capacity, dtype=np.int64)
        if self.uncov is not None:
            self.uncov = np.zeros(capacity, dtype=np.int64)

    def grow_blocks(self, n_ev_words: int, capacity: int) -> None:
        self.block_capacity = capacity
        self.elements = np.zeros(capacity, dtype=np.int32)
        self.covers_block = np.zeros((capacity, n_ev_words), dtype=np.uint64)
        self.crit_block = np.zeros((capacity, n_ev_words), dtype=np.uint64)
        self.child_bits_block = np.zeros((capacity, n_ev_words), dtype=np.uint64)


class _Frame:
    """One frame of :meth:`NumpySearchWorkspace.search` (pooled per depth).

    Frames carry only scalars; the array state of the node lives in the
    arena slot of the same depth.  ``phase`` sequences the node through
    enter/base-case (0), hit-loop setup (1) and the hit loop itself (2);
    ``returning`` marks that the frame is being resumed after its hit
    child returned, so the loop runs the post-child bookkeeping
    (criticality pop, hitting-set pop) before advancing.
    """

    __slots__ = ("n", "uncovered", "dead", "phase", "n_to_try", "k", "position", "returning")

    def enter(self, n: int, uncovered: int, dead: int) -> "_Frame":
        self.n, self.uncovered, self.dead = n, uncovered, dead
        self.phase, self.returning = 0, False
        return self


class NumpySearchWorkspace:
    """The search workspace in numpy: the per-depth arena, the per-node
    operations and the driver over them.

    The arena owns one :class:`_Slot` per search depth plus the shared
    criticality plane; the driver threads only scalars (depth, evidence
    count, pair totals) through its stack frames.  Slot ``d + 1`` is always
    written by an operation on slot ``d`` (``skip_child`` / ``try_hit``), so
    aliasing between a node and any node below it is impossible by
    construction.

    Contracts of the per-node operations (statuses and codes are the
    module constants):

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
        # Each evidence's overlap with the full candidate plane.
        cin = slot.cin[:n]
        cin[:] = 0
        for word in range(self._ev_root.shape[0]):
            cin += np.bitwise_count(self._ev_root[word] & self._full_cand[word])
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

    def elements_list(self, depth: int, k: int) -> list[int]:
        return self._slots[depth].elements[:k].tolist()

    def crit_active_rows(self) -> np.ndarray:
        return self._crit_rows[: self._crit_depth]

    @property
    def crit_depth(self) -> int:
        return self._crit_depth


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


    def search(
        self,
        bound: int | None,
        passes: Callable[[np.ndarray, int], bool],
        selection: int,
        max_dc_size: int | None,
        progress_interval: int,
    ) -> Iterator[tuple[list[tuple[list[int], int]], list[int], int, bool]]:
        """The Figure 4/5 search as an explicit frame stack, node for node
        the compiled driver's (``adc_enum_run``).

        Yields what :meth:`repro.native.cext.CextSearchWorkspace.search`
        yields: at each progress report and at the end, the outputs since
        the last yield, the six search counters, the deepest stack and
        whether a report is due.  Every pass test calls ``passes`` (with
        the same ids the compiled driver writes: the node's uncovered ids,
        the ids the skip branch dooms, the node's ids plus a member's
        critical ids) and ``bound`` is not read, so a search held to the
        compiled one also checks its integer bound against the score.
        """
        del bound
        track = self._track_uncov
        no_ids = np.zeros(0, dtype=np.int64)
        # recursive_calls, hit_branches, skip_branches, pruned_by_willcover,
        # pruned_by_criticality, minimality_checks.
        counters = [0] * 6
        next_progress = progress_interval or math.inf
        outputs: list[tuple[list[int], int]] = []
        s_elements: list[int] = []
        n_root = self.init_root()
        frames = [_Frame().enter(n_root, int(self._counts_root.sum()) if n_root else 0, 0)]
        depth = max_depth = 0

        def descend(n: int, uncovered: int, dead: int) -> None:
            nonlocal depth, max_depth
            depth += 1
            max_depth = max(max_depth, depth)
            if len(frames) <= depth:
                frames.append(_Frame())
            frames[depth].enter(n, uncovered, dead)

        while depth >= 0:
            frame = frames[depth]
            if frame.phase == 2:
                # Hit loop (Figure 4 lines 13-22).  Resuming after a hit
                # child returned runs the post-child bookkeeping first.
                if frame.returning:
                    frame.returning = False
                    self.crit_pop()
                    s_elements.pop()
                    frame.position += 1
                while frame.position < frame.k:
                    status, element, child_n, child_pairs = self.try_hit(
                        depth, frame.n, frame.position
                    )
                    if status == DESCENDED:
                        counters[1] += 1
                        s_elements.append(element)
                        frame.returning = True
                        descend(child_n, frame.dead + child_pairs, frame.dead)
                        break
                    counters[4] += 1
                    frame.position += 1
                else:
                    depth -= 1
                continue

            if frame.phase == 0:
                counters[0] += 1
                if counters[0] >= next_progress:
                    next_progress = counters[0] + progress_interval
                    yield outputs, list(counters), max_depth, True
                    outputs = []
                n = frame.n
                slot = self._slots[depth]
                uncov = slot.uncov[:n] if track else no_ids
                # Base case (lines 1-3): report S when it passes and is
                # minimal; no strict superset of a passing S is minimal.
                if passes(uncov, frame.uncovered):
                    counters[5] += 1
                    if self._is_minimal(passes, uncov, frame.uncovered):
                        outputs.append((list(s_elements), frame.uncovered))
                    depth -= 1
                    continue
                # Line 4: choose an uncovered evidence that may still be hit.
                _, n_selectable, lost_pairs, n_to_try = self.expand(
                    depth, n, selection, counters[0]
                )
                if n_selectable == 0:
                    depth -= 1
                    continue
                frame.n_to_try = n_to_try
                frame.phase = 1
                # Skip branch (lines 7-12), guarded by WillCover.  Without
                # ids the child drops the evidences the skip dooms, and
                # their pairs join the dead count.
                will_cover = frame.dead + lost_pairs
                doomed = uncov[slot.red[:n] == 0] if track else no_ids
                if passes(doomed, will_cover):
                    counters[2] += 1
                    child_n = self.skip_child(depth, n, not track)
                    descend(child_n, frame.uncovered, frame.dead if track else will_cover)
                    continue
                counters[3] += 1
                continue

            # phase 1: the skip subtree (if any) has returned; set up the
            # hit loop over the chosen evidence's candidate predicates.
            if max_dc_size is not None and len(s_elements) >= max_dc_size:
                depth -= 1
                continue
            frame.k = self.hit_prepare(depth, frame.n, frame.n_to_try)
            frame.position = 0
            frame.returning = False
            frame.phase = 2
        yield outputs, counters, max_depth, False

    def _is_minimal(self, passes, uncov: np.ndarray, uncovered: int) -> bool:
        """IsMinimal (Figure 5): dropping member ``d`` un-covers exactly the
        evidences of its criticality row."""
        crit_bools = unpack_bits(self.crit_active_rows(), self.n_evidences)
        extra_pairs = crit_bools @ self._counts_root
        for depth in range(self._crit_depth):
            ids = (
                np.concatenate([uncov, np.flatnonzero(crit_bools[depth])])
                if self._track_uncov
                else uncov
            )
            if passes(ids, uncovered + int(extra_pairs[depth])):
                return False
        return True


NUMPY_BACKEND = Backend(
    name="numpy", kernels=NumpyKernels(), workspace_factory=NumpySearchWorkspace
)
