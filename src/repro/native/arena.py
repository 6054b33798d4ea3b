"""The search arena: per-depth buffers of the explicit-stack ADCEnum search.

:class:`SearchArena` owns one :class:`_Slot` of reusable buffers per search
depth (evidence plane, overlap counters, candidate planes) plus the shared
criticality plane, so a search node allocates nothing.  It loads the root
node and exposes read-only views; the per-node operations that fill the
slots are the compiled workspace's (:class:`repro.native.cext.
CextSearchWorkspace`), each a single C call.

The module also holds the codes the driver and the kernels share: the
``try_hit`` outcomes and the selection rules of ``expand``.
"""

from __future__ import annotations

import numpy as np

#: ``try_hit`` outcomes.
PRUNED = 0
DESCENDED = 1

#: Selection-rule codes of ``expand``.
SELECT_MAX = 0
SELECT_MIN = 1
SELECT_RANDOM = 2

_SELECTION_CODES = {"max": SELECT_MAX, "min": SELECT_MIN, "random": SELECT_RANDOM}


def selection_code(selection: str) -> int:
    """Map an ADCEnum selection-strategy name to its kernel code."""
    return _SELECTION_CODES[selection]


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
        "addr",  # the compiled workspace caches buffer addresses here (None = stale)
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
        self.addr = None

    def grow_blocks(self, n_ev_words: int, capacity: int) -> None:
        self.block_capacity = capacity
        self.elements = np.zeros(capacity, dtype=np.int32)
        self.covers_block = np.zeros((capacity, n_ev_words), dtype=np.uint64)
        self.crit_block = np.zeros((capacity, n_ev_words), dtype=np.uint64)
        self.child_bits_block = np.zeros((capacity, n_ev_words), dtype=np.uint64)
        self.addr = None


class SearchArena:
    """Arena-backed search state driven by the explicit-stack ``_search``.

    The arena owns one :class:`_Slot` per search depth plus the shared
    criticality plane; the driver threads only scalars (depth, evidence
    count, pair totals) through its stack frames.  Slot ``d + 1`` is always
    written by an operation on slot ``d`` (``skip_child`` / ``try_hit``), so
    aliasing between a node and any node below it is impossible by
    construction.

    Contracts of the per-node operations a workspace adds (statuses and
    codes are the module constants):

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
    #: (``pair_search``) rather than only serving the Python driver.
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
