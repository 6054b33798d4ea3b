"""C-extension backend: the compiled kernels behind integer-address FFI.

The shared object built by :mod:`repro.native.build` is loaded through cffi
when available (a direct ``dlopen`` costs ~0.5µs per call when every
argument is a plain integer) and through ctypes otherwise.  All kernel
entry points take ``intptr_t`` addresses, so the hot path never constructs
FFI buffer objects: :class:`CextSearchWorkspace` caches each buffer's
``.ctypes.data`` once at allocation and every per-node call passes cached
integers and scalars only.

The search workspace has two compiled paths:

* :meth:`CextSearchWorkspace.pair_search` runs the whole ADCEnum frame stack
  in C (``adc_enum_run``) for pair-determined functions with an integer
  pass bound.  The C search state (frames, per-depth slots, criticality
  planes) lives in the workspace between calls and is freed with it.
* For the Python driver (f2, f3, f1' from ``epsilon = 0.5`` on), the
  workspace subclasses the numpy reference
  (:class:`repro.native.numpy_backend.NumpySearchWorkspace`) for slot
  management, views and the cold root setup, overriding just the four
  per-node operations with single C calls — the same kernels the C driver
  composes.
"""

from __future__ import annotations

import ctypes
import weakref
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.native import numpy_backend
from repro.native.numpy_backend import DESCENDED, NumpySearchWorkspace

NAME = "cext"

_CDEF = """
void adc_popcount(intptr_t, int64_t, intptr_t);
void adc_intersection_counts(intptr_t, int64_t, int32_t, int64_t, intptr_t, intptr_t);
int32_t adc_crit_apply(intptr_t, int64_t, int32_t, int64_t, intptr_t, intptr_t, intptr_t);
void adc_crit_undo(intptr_t, int64_t, int32_t, int64_t, intptr_t);
int32_t adc_tile_plane(intptr_t, int64_t, intptr_t, intptr_t, int64_t, intptr_t,
                       int32_t, int64_t, int64_t, int64_t, int64_t, intptr_t);
int64_t adc_unique_rows(intptr_t, int64_t, int64_t, intptr_t, intptr_t, intptr_t);
void adc_search_expand(intptr_t, int64_t, int32_t, int64_t, intptr_t, intptr_t,
                       intptr_t, int32_t, int32_t, int64_t, intptr_t, intptr_t,
                       intptr_t, intptr_t);
int64_t adc_search_skip_child(intptr_t, int64_t, int32_t, int64_t, intptr_t,
                              intptr_t, intptr_t, int32_t, intptr_t, int64_t,
                              intptr_t, intptr_t, intptr_t);
int64_t adc_search_hit_prepare(intptr_t, int32_t, intptr_t, int64_t, intptr_t,
                               int32_t, intptr_t, intptr_t, intptr_t, intptr_t);
int32_t adc_search_try_hit(intptr_t, int64_t, int32_t, int64_t, intptr_t,
                           intptr_t, intptr_t, int32_t, intptr_t, intptr_t,
                           intptr_t, intptr_t, int32_t, int64_t, intptr_t,
                           int64_t, int64_t, intptr_t, intptr_t, int64_t,
                           intptr_t, int64_t, intptr_t, intptr_t,
                           intptr_t, intptr_t, intptr_t, intptr_t);
intptr_t adc_enum_new(intptr_t, intptr_t, intptr_t, intptr_t, intptr_t, int64_t,
                      int32_t, int32_t, int64_t);
int32_t adc_enum_run(intptr_t, int32_t, int64_t, int32_t, int64_t, int64_t,
                     intptr_t, int64_t, int64_t, intptr_t);
void adc_enum_free(intptr_t);
"""

_FUNCTIONS = (
    "adc_popcount",
    "adc_intersection_counts",
    "adc_crit_apply",
    "adc_crit_undo",
    "adc_tile_plane",
    "adc_unique_rows",
    "adc_search_expand",
    "adc_search_skip_child",
    "adc_search_hit_prepare",
    "adc_search_try_hit",
    "adc_enum_new",
    "adc_enum_run",
    "adc_enum_free",
)


# The dlopen handles must outlive the extracted function objects: cffi's
# library object dlcloses on garbage collection, unmapping the code pages
# the cached function pointers still reference (a crash that only shows up
# whenever cycle collection happens to run).  Loaded handles are therefore
# pinned for the process lifetime.
_KEEPALIVE: list = []


def _load_cffi(library_path: Path):
    import cffi

    ffi = cffi.FFI()
    ffi.cdef(_CDEF)
    lib = ffi.dlopen(str(library_path))
    _KEEPALIVE.append((ffi, lib))
    return {name: getattr(lib, name) for name in _FUNCTIONS}


def _load_ctypes(library_path: Path):
    lib = ctypes.CDLL(str(library_path))
    _KEEPALIVE.append(lib)
    intp, i64, i32 = ctypes.c_ssize_t, ctypes.c_int64, ctypes.c_int32
    signatures = {
        "adc_popcount": (None, [intp, i64, intp]),
        "adc_intersection_counts": (None, [intp, i64, i32, i64, intp, intp]),
        "adc_crit_apply": (i32, [intp, i64, i32, i64, intp, intp, intp]),
        "adc_crit_undo": (None, [intp, i64, i32, i64, intp]),
        "adc_tile_plane": (i32, [intp, i64, intp, intp, i64, intp, i32,
                                 i64, i64, i64, i64, intp]),
        "adc_unique_rows": (i64, [intp, i64, i64, intp, intp, intp]),
        "adc_search_expand": (None, [intp, i64, i32, i64, intp, intp, intp,
                                     i32, i32, i64, intp, intp, intp, intp]),
        "adc_search_skip_child": (i64, [intp, i64, i32, i64, intp, intp, intp,
                                        i32, intp, i64, intp, intp, intp]),
        "adc_search_hit_prepare": (i64, [intp, i32, intp, i64, intp, i32,
                                         intp, intp, intp, intp]),
        "adc_search_try_hit": (i32, [intp, i64, i32, i64, intp, intp, intp,
                                     i32, intp, intp, intp, intp, i32, i64,
                                     intp, i64, i64, intp, intp, i64,
                                     intp, i64, intp, intp, intp, intp, intp,
                                     intp]),
        "adc_enum_new": (intp, [intp, intp, intp, intp, intp, i64, i32, i32, i64]),
        "adc_enum_run": (i32, [intp, i32, i64, i32, i64, i64, intp, i64, i64,
                               intp]),
        "adc_enum_free": (None, [intp]),
    }
    functions = {}
    for name, (restype, argtypes) in signatures.items():
        fn = getattr(lib, name)
        fn.restype = restype
        fn.argtypes = argtypes
        functions[name] = fn
    return functions


def load_functions(library_path: Path) -> dict:
    """Bind the kernel entry points, preferring cffi for call overhead."""
    try:
        return _load_cffi(library_path)
    except ImportError:
        return _load_ctypes(library_path)


#: Most rows ``adc_unique_rows`` takes: its hash table stores uint32 row
#: indices.  Larger planes take the numpy reference path.
_MAX_DEDUP_ROWS = 2**32 - 2

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

    name = NAME

    def __init__(self, functions: dict) -> None:
        self._fn = functions

    def popcount(self, words: np.ndarray) -> np.ndarray:
        flat = np.ascontiguousarray(words, dtype=np.uint64)
        out = np.empty(flat.shape, dtype=np.uint8)
        self._fn["adc_popcount"](_addr(flat), flat.size, _addr(out))
        return out

    def intersection_counts(self, ev_planes: np.ndarray, mask_words: np.ndarray) -> np.ndarray:
        ev = np.ascontiguousarray(ev_planes, dtype=np.uint64)
        mask = np.ascontiguousarray(mask_words, dtype=np.uint64)
        n_words, n_cols = ev.shape
        out = np.empty(n_cols, dtype=np.uint32)
        self._fn["adc_intersection_counts"](
            _addr(ev), n_cols, n_words, n_cols, _addr(mask), _addr(out)
        )
        return out

    def crit_apply(
        self, rows: np.ndarray, depth: int, new_row: np.ndarray, covers: np.ndarray
    ) -> tuple[bool, np.ndarray]:
        n_words = rows.shape[1]
        new_row = np.ascontiguousarray(new_row, dtype=np.uint64)
        covers = np.ascontiguousarray(covers, dtype=np.uint64)
        removed = np.zeros((depth, n_words), dtype=np.uint64)
        viable = self._fn["adc_crit_apply"](
            _addr(rows), n_words, n_words, depth, _addr(new_row), _addr(covers),
            _addr(removed),
        )
        return bool(viable), removed

    def crit_undo(self, rows: np.ndarray, depth: int, removed: np.ndarray) -> None:
        n_words = rows.shape[1]
        self._fn["adc_crit_undo"](_addr(rows), n_words, n_words, depth, _addr(removed))

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

    def unique_rows(self, words: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        flat = np.ascontiguousarray(words, dtype=np.uint64)
        n, n_words = flat.shape
        if n == 0:
            return flat, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        if n > _MAX_DEDUP_ROWS:
            return numpy_backend.NumpyKernels.unique_rows(flat)
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
class CextSearchWorkspace(NumpySearchWorkspace):
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
