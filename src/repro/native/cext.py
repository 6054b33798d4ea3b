"""The compiled kernels behind integer-address ctypes calls.

The shared object built by :mod:`repro.native.build` is bound through
ctypes from one signature table, :data:`_SIGNATURES`.  All kernel entry
points take ``intptr_t`` addresses, declared ``c_void_p``: ctypes passes a
Python int to such a parameter without building a buffer object, so the
hot path never constructs FFI objects.  :class:`CextSearchWorkspace`
caches each buffer's ``.ctypes.data`` once at allocation and every
per-node call passes cached integers and scalars only.

:meth:`CKernels.fold_tiles` folds a whole tile list in one call
(``adc_fold_tiles``).  The kernel learns its output size only at the end,
so it asks for the output through a ctypes callback that allocates one
numpy buffer: no output is over-allocated, and none is owned by C.  The
fold and the row dedup number rows with uint32 ids, so each refuses an
input past :data:`MAX_DEDUP_ROWS` rows; :func:`repro.engine.kernel.
fold_tiles` cuts longer tile lists into runs below the limit.

The search workspace has two compiled paths:

* :meth:`CextSearchWorkspace.pair_search` runs the whole ADCEnum frame stack
  in C (``adc_enum_run``) for pair-determined functions with an integer
  pass bound.  The C search state (frames, per-depth slots, criticality
  planes) lives in the workspace between calls and is freed with it.
* For the Python driver (f2, f3, f1' from ``epsilon = 0.5`` on), the
  workspace extends the arena (:class:`repro.native.arena.SearchArena`:
  slot management, views and the cold root setup) with the four per-node
  operations and the criticality pop, each a single C call — the same
  kernels the C driver composes.

The numpy reference these kernels are tested against lives with the
tests (``tests/numpy_backend.py``); the library checks a new build against
golden digests instead (:mod:`repro.native.selfcheck`).
"""

from __future__ import annotations

import ctypes
import weakref
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.native.arena import DESCENDED, SearchArena

NAME = "cext"

_ADDR, _I64, _I32 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_int32

#: ``(restype, argtypes)`` of every exported ``adc_*`` function of
#: ``csrc/kernels.c``.  An ``intptr_t`` address parameter is a ``c_void_p``:
#: the same width and register class on the LP64 hosts the library builds
#: on, and a cheaper conversion from a Python int than ``c_ssize_t``.
#: ``adc_enum_new`` returns its state as an integer, so that the NULL check
#: and the finalizer see 0 rather than ``None``.
_SIGNATURES = {
    "adc_crit_undo": (None, [_ADDR, _I64, _I32, _I64, _ADDR]),
    "adc_tile_plane": (_I32, [_ADDR, _I64, _ADDR, _ADDR, _I64, _ADDR, _I32,
                              _I64, _I64, _I64, _I64, _ADDR]),
    "adc_unique_rows": (_I64, [_ADDR, _I64, _I64, _ADDR, _ADDR, _ADDR]),
    "adc_fold_tiles": (_I32, [_ADDR, _I64, _ADDR, _ADDR, _I64, _ADDR, _I32,
                              _ADDR, _I64, _I32, _ADDR, _ADDR]),
    "adc_search_expand": (None, [_ADDR, _I64, _I32, _I64, _ADDR, _ADDR, _ADDR,
                                 _I32, _I32, _I64, _ADDR, _ADDR, _ADDR, _ADDR]),
    "adc_search_skip_child": (_I64, [_ADDR, _I64, _I32, _I64, _ADDR, _ADDR,
                                     _ADDR, _I32, _ADDR, _I64, _ADDR, _ADDR,
                                     _ADDR]),
    "adc_search_hit_prepare": (_I64, [_ADDR, _I32, _ADDR, _I64, _ADDR, _I32,
                                      _ADDR, _ADDR, _ADDR, _ADDR]),
    "adc_search_try_hit": (_I32, [_ADDR, _I64, _I32, _I64, _ADDR, _ADDR, _ADDR,
                                  _I32, _ADDR, _ADDR, _ADDR, _ADDR, _I32, _I64,
                                  _ADDR, _I64, _I64, _ADDR, _ADDR, _I64,
                                  _ADDR, _I64, _ADDR, _ADDR, _ADDR, _ADDR,
                                  _ADDR, _ADDR]),
    "adc_enum_new": (ctypes.c_ssize_t, [_ADDR, _ADDR, _ADDR, _ADDR, _ADDR,
                                        _I64, _I32, _I32, _I64]),
    "adc_enum_run": (_I32, [_ADDR, _I32, _I64, _I32, _I64, _I64, _ADDR, _I64,
                            _I64, _ADDR]),
    "adc_enum_free": (None, [_ADDR]),
}


def load_functions(library_path: Path) -> dict:
    """Bind the kernel entry points of the library at ``library_path``.

    Each function pointer holds a reference to its ``CDLL``, and ctypes
    never unloads a library, so the returned dict is all a caller keeps.
    """
    lib = ctypes.CDLL(str(library_path))
    functions = {}
    for name, (restype, argtypes) in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.restype, fn.argtypes = restype, argtypes
        functions[name] = fn
    return functions


#: Most rows ``adc_unique_rows`` takes, and most pairs (diagonal cells
#: included) ``adc_fold_tiles`` takes: both number rows with uint32 ids.
MAX_DEDUP_ROWS = 2**32 - 2

#: The output allocator ``adc_fold_tiles`` calls back into: bytes in, the
#: address of a fresh buffer (or 0) out.
_FOLD_ALLOC = ctypes.CFUNCTYPE(ctypes.c_ssize_t, ctypes.c_int64)

#: Outputs the compiled search buffers before it returns them to Python.
_OUTPUT_ROWS = 64

#: ``adc_enum_run`` statuses.
_ENUM_DONE, _ENUM_PAUSED = 0, 1


def _addr(array: np.ndarray) -> int:
    return array.ctypes.data


# ---------------------------------------------------------------------------
# Flat kernels
# ---------------------------------------------------------------------------
class CKernels:
    """Numpy-signature wrappers over the compiled flat kernels."""

    def __init__(self, functions: dict) -> None:
        self._fn = functions

    def tile_plane(
        self,
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
        # The per-row planes may be views of wider buffers; the kernel walks
        # both with one row stride over contiguous rows.
        if a.strides != b.strides or (a.size and a.strides[1] != a.itemsize):
            a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
        # The kernel writes every word, so the plane starts uninitialized.
        out = np.empty(((i1 - i0) * (j1 - j0), n_words), dtype=np.uint64)
        if self._fn["adc_tile_plane"](
            _addr(kinds), len(kinds), _addr(a), _addr(b), a.strides[0] // a.itemsize,
            _addr(lookup), n_words, i0, i1, j0, j1, _addr(out),
        ):
            raise MemoryError("tile_plane could not allocate its scratch buffers")
        return out

    def fold_tiles(
        self,
        kinds: np.ndarray,
        a: np.ndarray,
        b: np.ndarray,
        lookup: np.ndarray,
        bounds: np.ndarray,
        n_words: int,
        participation: bool,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray | None] | None:
        bounds = np.ascontiguousarray(bounds, dtype=np.int64).reshape(-1, 4)
        if len(bounds) and (bounds.min() < 0 or bounds[:, [1, 3]].max() > a.shape[1]):
            raise ValueError("tile bounds reach outside the kernel's rows")
        heights = np.maximum(bounds[:, 1] - bounds[:, 0], 0)
        widths = np.maximum(bounds[:, 3] - bounds[:, 2], 0)
        if int((heights * widths).sum()) > MAX_DEDUP_ROWS:
            raise ValueError(
                f"fold_tiles takes at most MAX_DEDUP_ROWS = {MAX_DEDUP_ROWS} pairs per call"
            )
        if a.strides != b.strides or (a.size and a.strides[1] != a.itemsize):
            a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
        # The kernel sizes its output only at the end, so it asks for it
        # through this callback: one buffer, owned by numpy from the start.
        held: list[np.ndarray] = []

        def allocate(n_bytes: int) -> int:
            try:
                held.append(np.empty(n_bytes // 8, dtype=np.uint64))
            except MemoryError:
                return 0
            return _addr(held[-1])

        allocator = _FOLD_ALLOC(allocate)
        sizes = np.zeros(2, dtype=np.int64)
        if self._fn["adc_fold_tiles"](
            _addr(kinds), len(kinds), _addr(a), _addr(b), a.strides[0] // a.itemsize,
            _addr(lookup), n_words, _addr(bounds), len(bounds), int(participation),
            allocator, _addr(sizes),
        ):
            raise MemoryError("fold_tiles could not allocate its tables")
        n_unique, n_keys = sizes.tolist()
        if not n_unique:
            return None
        out = held[0]
        words = out[: n_unique * n_words].reshape(n_unique, n_words)
        # Partials keep the counts as chunks: copies, so that a chunk does
        # not pin the whole buffer (the words and keys are copied anyway).
        counts = out[n_unique * n_words : n_unique * (n_words + 1)].view(np.int64).copy()
        if not participation:
            return words, counts, None, None
        keys = out[n_unique * (n_words + 1) :].view(np.int64)
        return words, counts, keys[:n_keys], keys[n_keys:].copy()

    def unique_rows(self, words: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        flat = np.ascontiguousarray(words, dtype=np.uint64)
        n, n_words = flat.shape
        if n == 0:
            return flat, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        if n > MAX_DEDUP_ROWS:
            raise ValueError(
                f"unique_rows takes at most MAX_DEDUP_ROWS = {MAX_DEDUP_ROWS} rows"
            )
        uniq = np.empty((n, n_words), dtype=np.uint64)
        inverse = np.empty(n, dtype=np.int64)
        counts = np.empty(n, dtype=np.int64)
        n_unique = int(
            self._fn["adc_unique_rows"](
                _addr(flat), n, n_words, _addr(uniq), _addr(inverse), _addr(counts),
            )
        )
        if n_unique < 0:
            raise MemoryError("unique_rows could not grow its hash table")
        uniq = uniq[:n_unique]
        counts = counts[:n_unique]
        # The hash pass yields first-seen order; re-sort the (small) unique
        # set into the canonical lexicographic order and remap.
        keys = tuple(uniq[:, word] for word in range(n_words - 1, -1, -1))
        order = np.lexsort(keys)
        rank = np.empty(n_unique, dtype=np.int64)
        rank[order] = np.arange(n_unique, dtype=np.int64)
        return np.ascontiguousarray(uniq[order]), rank[inverse], counts[order]


# ---------------------------------------------------------------------------
# Search workspace
# ---------------------------------------------------------------------------
class CextSearchWorkspace(SearchArena):
    """Arena workspace with a compiled search driver and per-node kernels.

    :meth:`pair_search` runs the whole search in C for pair-determined
    functions.  The Python driver (every other function) calls the four
    per-node operations, each a single C call here.

    Address tuple layout per slot (cached on the slot, invalidated by the
    grow methods): ``(ev, cin, red, pairs, uncov, cand_in, to_try,
    cand_loop, uncov_bits, elements, covers, crit, child_bits)``.
    """

    native_driver = True

    def __init__(self, functions: dict, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._enum_new = functions["adc_enum_new"]
        self._enum_run = functions["adc_enum_run"]
        self._enum_free = functions["adc_enum_free"]
        self._search = 0
        self._expand_c = functions["adc_search_expand"]
        self._skip_c = functions["adc_search_skip_child"]
        self._prepare_c = functions["adc_search_hit_prepare"]
        self._try_hit_c = functions["adc_search_try_hit"]
        self._crit_undo_c = functions["adc_crit_undo"]
        self._contains_p = _addr(self._contains)
        self._group_inv_p = _addr(self._group_inv)
        self._crit_rows_p = _addr(self._crit_rows)
        self._out = np.zeros(4, dtype=np.int64)
        self._out_p = _addr(self._out)
        self._removed_p: list[int] = [0] * (self.n_predicates + 1)

    def _addresses(self, slot) -> tuple:
        addresses = slot.addr
        if addresses is None:
            addresses = slot.addr = (
                _addr(slot.ev), _addr(slot.cin), _addr(slot.red), _addr(slot.pairs),
                _addr(slot.uncov) if slot.uncov is not None else 0,
                _addr(slot.cand_in), _addr(slot.to_try), _addr(slot.cand_loop),
                _addr(slot.uncov_bits),
                _addr(slot.elements) if slot.elements is not None else 0,
                _addr(slot.covers_block) if slot.covers_block is not None else 0,
                _addr(slot.crit_block) if slot.crit_block is not None else 0,
                _addr(slot.child_bits_block) if slot.child_bits_block is not None else 0,
            )
        return addresses

    def expand(
        self, depth: int, n: int, selection: int, call_index: int
    ) -> tuple[int, int, int, int]:
        slot = self._slots[depth]
        a = self._addresses(slot)
        self._expand_c(
            a[0], slot.capacity, self.n_words, n, a[1], a[3], a[5],
            self.n_words, selection, call_index, a[6], a[7], a[2], self._out_p,
        )
        out = self._out.tolist()
        return out[0], out[1], out[2], out[3]

    def skip_child(self, depth: int, n: int, compact: bool) -> int:
        slot = self._slots[depth]
        child = self._slot(depth + 1, n)
        a = self._addresses(slot)
        c = self._addresses(child)
        m = self._skip_c(
            a[0], slot.capacity, self.n_words, n, a[2], a[3], a[4],
            1 if compact else 0, c[0], child.capacity, c[1], c[3], c[4],
        )
        child.cand_in[:] = slot.cand_loop
        child.uncov_bits[:] = slot.uncov_bits
        return m

    def hit_prepare(self, depth: int, n: int, k: int) -> int:
        slot = self._slots[depth]
        if slot.block_capacity < k:
            slot.grow_blocks(self.n_ev_words, max(k, 1))
        a = self._addresses(slot)
        return self._prepare_c(
            a[6], self.n_words, self._contains_p, self.n_ev_words, a[8],
            self.n_ev_words, a[9], a[10], a[11], a[12],
        )

    def try_hit(
        self, depth: int, n: int, position: int
    ) -> tuple[int, int, int, int]:
        slot = self._slots[depth]
        a = self._addresses(slot)
        crit_depth = self._crit_depth
        removed_p = self._removed_p[crit_depth]
        if not removed_p:
            removed_p = self._cext_removed(crit_depth)
        child = self._slot(depth + 1, n)
        c = self._addresses(child)
        status = self._try_hit_c(
            a[0], slot.capacity, self.n_words, n, a[3], a[4], a[7],
            self.n_words, a[9], a[10], a[11], a[12], self.n_ev_words,
            position, self._crit_rows_p, self.n_ev_words, crit_depth,
            removed_p, self._group_inv_p, self.n_words,
            c[0], child.capacity, c[1], c[3], c[4],
            c[5], c[8], self._out_p,
        )
        if status == DESCENDED:
            self._crit_depth = crit_depth + 1
        out = self._out.tolist()
        return status, out[0], out[1], out[2]

    def crit_pop(self) -> None:
        self._crit_depth -= 1
        depth = self._crit_depth
        self._crit_undo_c(
            self._crit_rows_p, self.n_ev_words, self.n_ev_words, depth,
            self._removed_p[depth],
        )

    def _cext_removed(self, crit_depth: int) -> int:
        buffer = np.zeros((max(crit_depth, 1), self.n_ev_words), dtype=np.uint64)
        self._crit_removed[crit_depth] = buffer
        address = _addr(buffer)
        self._removed_p[crit_depth] = address
        return address

    def pair_search(
        self,
        bound: int,
        selection: int,
        max_dc_size: int | None,
        progress_interval: int,
    ) -> Iterator[tuple[list[tuple[list[int], int]], list[int], int, bool]]:
        """Run the search in C with the pass test "uncovered pairs <= bound".

        The compiled driver returns to Python when the search ends, when
        ``progress_interval`` nodes have passed (0: never) and when
        :data:`_OUTPUT_ROWS` outputs are buffered.  Each return yields
        ``(outputs, counters, max_depth, paused)``: the new outputs as
        ``(hitting-set elements, uncovered pairs)``, the six
        :class:`~repro.core.adc_enum.EnumerationStatistics` search counters
        from ``recursive_calls`` to ``minimality_checks``, the deepest stack
        so far, and whether a progress report is due.  Frames and slots
        persist in the workspace between calls and between searches.
        """
        if not self._search:
            self._search = self._enum_new(
                _addr(self._ev_root), _addr(self._counts_root), _addr(self._contains),
                _addr(self._group_inv), _addr(self._full_cand), self.n_evidences,
                self.n_words, self.n_ev_words, self.n_predicates,
            )
            if not self._search:
                raise MemoryError("the compiled search could not allocate its state")
            # The C state borrows the root arrays this workspace owns, so it
            # is freed with the workspace, never before.
            weakref.finalize(self, self._enum_free, self._search)
        # A hitting set never outgrows the predicate count, so the cap is
        # clamped to it (an equivalent test that fits an int64).
        limit = self.n_predicates if max_dc_size is None else max_dc_size
        limit = min(max(limit, 0), self.n_predicates)
        rows = _OUTPUT_ROWS
        out = np.empty((rows, 2 + limit), dtype=np.int64)
        counters = np.empty(8, dtype=np.int64)
        restart = 1
        while True:
            status = self._enum_run(
                self._search, restart, bound, selection, limit, progress_interval,
                _addr(out), rows, 2 + limit, _addr(counters),
            )
            restart = 0
            if status < 0:
                raise MemoryError("the compiled search could not allocate a slot")
            values = counters.tolist()
            outputs = [(row[2 : 2 + row[1]], row[0]) for row in out[: values[7]].tolist()]
            yield outputs, values[:6], values[6], status == _ENUM_PAUSED
            if status == _ENUM_DONE:
                return
