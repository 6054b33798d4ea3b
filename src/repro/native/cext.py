"""The compiled kernels behind integer-address ctypes calls.

The shared object built by :mod:`repro.native.build` is bound through
ctypes from one signature table, :data:`_SIGNATURES`.  All kernel entry
points take ``intptr_t`` addresses, declared ``c_void_p``: ctypes passes a
Python int to such a parameter without building a buffer object, so the
hot path never constructs FFI objects.

:meth:`CKernels.fold_tiles` folds a whole tile list in one call
(``adc_fold_tiles``).  The kernel learns its output size only at the end,
so it asks for the output through a ctypes callback that allocates one
numpy buffer: no output is over-allocated, and none is owned by C.  The
fold and the row dedup number rows with uint32 ids, so each refuses an
input past :data:`MAX_DEDUP_ROWS` rows; :func:`repro.engine.kernel.
fold_tiles` cuts longer tile lists into runs below the limit.

:meth:`CextSearchWorkspace.search` runs the whole ADCEnum frame stack in C
(``adc_enum_run``), for every approximation function.  The pass test is
an integer bound on the uncovered pairs when the function has one, else a
ctypes callback into the enumerator's scorer; the per-node steps are
internal to the library.  The C search state (frames, per-depth slots,
criticality planes) lives in the workspace between calls and is freed
with it.

The numpy reference these kernels are tested against lives with the
tests (``tests/numpy_backend.py``); the library checks a new build against
golden digests instead (:mod:`repro.native.selfcheck`).
"""

from __future__ import annotations

import ctypes
import weakref
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

NAME = "cext"

_ADDR, _I64, _I32 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_int32

#: ``(restype, argtypes)`` of every exported ``adc_*`` function of
#: ``csrc/kernels.c``.  An ``intptr_t`` address parameter is a ``c_void_p``:
#: the same width and register class on the LP64 hosts the library builds
#: on, and a cheaper conversion from a Python int than ``c_ssize_t``.
#: ``adc_enum_new`` returns its state as an integer, so that the NULL check
#: and the finalizer see 0 rather than ``None``.
_SIGNATURES = {
    "adc_tile_plane": (_I32, [_ADDR, _I64, _ADDR, _ADDR, _I64, _ADDR, _I32,
                              _I64, _I64, _I64, _I64, _ADDR]),
    "adc_unique_rows": (_I64, [_ADDR, _I64, _I64, _ADDR, _ADDR, _ADDR]),
    "adc_fold_tiles": (_I32, [_ADDR, _I64, _ADDR, _ADDR, _I64, _ADDR, _I32,
                              _ADDR, _I64, _I32, _ADDR, _ADDR]),
    "adc_enum_new": (ctypes.c_ssize_t, [_ADDR, _ADDR, _ADDR, _ADDR, _ADDR,
                                        _I64, _I32, _I32, _I64, _I32]),
    "adc_enum_run": (_I32, [_ADDR, _I32, _I64, _ADDR, _ADDR, _I32, _I64, _I64,
                            _ADDR, _I64, _I64, _ADDR]),
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

#: The pass test ``adc_enum_run`` calls back into when the function has
#: no integer pass bound: the number of candidate ids it wrote and the
#: uncovered pairs in; 1 (passes), 0 (fails) or -1 (the test raised) out.
_PASSES = ctypes.CFUNCTYPE(ctypes.c_int32, ctypes.c_int64, ctypes.c_int64)

#: ``adc_enum_run`` statuses.
_ENUM_DONE, _ENUM_PAUSED, _ENUM_ABORTED = 0, 1, -2


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
class CextSearchWorkspace:
    """The compiled ADCEnum search over one evidence set's planes.

    ``track_uncov`` threads the uncovered evidence ids through the search,
    for pass tests that need more than the uncovered pair count.
    """

    def __init__(
        self,
        functions: dict,
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
        # The candidate ids the compiled search writes before each callback;
        # the callback reads them through a read-only view.
        self._ids = np.zeros(max(self.n_evidences, 1), dtype=np.int64)
        self._ids_view = self._ids.view()
        self._ids_view.flags.writeable = False
        self._enum_new = functions["adc_enum_new"]
        self._enum_run = functions["adc_enum_run"]
        self._enum_free = functions["adc_enum_free"]
        self._search = 0

    def search(
        self,
        bound: int | None,
        passes: Callable[[np.ndarray, int], bool],
        selection: int,
        max_dc_size: int | None,
        progress_interval: int,
    ) -> Iterator[tuple[list[tuple[list[int], int]], list[int], int, bool]]:
        """Run the search in C.

        The pass test is "uncovered pairs <= bound", or, when ``bound`` is
        None, ``passes(ids, pairs)``: the candidate's uncovered evidence
        ids (empty without ``track_uncov``) and uncovered pair count.  An
        exception raised by ``passes`` stops the search and is re-raised
        here.  The compiled driver returns to Python when the search ends,
        when ``progress_interval`` nodes have passed (0: never) and when
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
                self.n_words, self.n_ev_words, self.n_predicates, int(self._track_uncov),
            )
            if not self._search:
                raise MemoryError("the compiled search could not allocate its state")
            # The C state borrows the root arrays this workspace owns, so it
            # is freed with the workspace, never before.
            weakref.finalize(self, self._enum_free, self._search)
        raised: list[BaseException] = []
        callback = None
        if bound is None:
            ids = self._ids_view

            def call(n_ids: int, pairs: int) -> int:
                # Nothing may escape into ctypes, which would print and
                # drop it: the error is kept and the search aborted.
                try:
                    return 1 if passes(ids[:n_ids], pairs) else 0
                except BaseException as error:
                    raised.append(error)
                    return -1

            # Referenced by this frame for as long as the search runs.
            callback = _PASSES(call)
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
                self._search, restart, bound or 0, callback, _addr(self._ids), selection,
                limit, progress_interval, _addr(out), rows, 2 + limit, _addr(counters),
            )
            restart = 0
            if status == _ENUM_ABORTED:
                raise raised.pop()
            if status < 0:
                raise MemoryError("the compiled search could not allocate a slot")
            values = counters.tolist()
            outputs = [(row[2 : 2 + row[1]], row[0]) for row in out[: values[7]].tolist()]
            yield outputs, values[:6], values[6], status == _ENUM_PAUSED
            if status == _ENUM_DONE:
                return
