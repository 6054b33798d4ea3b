"""Feature-detected kernel dispatch.

Resolution happens once, lazily, at first use, honouring ``REPRO_NATIVE``:

====================  =====================================================
``REPRO_NATIVE``      behaviour
====================  =====================================================
unset / ``auto``      C extension if it compiles *and* passes the probe,
                      else pure numpy — never raises.
``0`` / ``numpy``     pure numpy, unconditionally.
``1``                 require the C extension; :class:`RuntimeError` if it
                      does not build or fails the probe.
====================  =====================================================

The C extension is only trusted after a **probe**: every flat kernel and
the search-workspace operations are run on small deterministic inputs and
compared bit for bit against the numpy reference.  A build that throws or
mismatches is rejected — under auto resolution that silently falls back to
numpy; under an explicit request it raises, because a silently-different
compiled kernel is precisely the failure mode the probe exists to catch.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro.native import numpy_backend
from repro.native.numpy_backend import NumpyKernels, NumpySearchWorkspace

_ENV_VAR = "REPRO_NATIVE"


@dataclass(frozen=True)
class Backend:
    """One resolved kernel provider.

    ``kernels`` carries the flat kernels (popcount, intersection counts,
    criticality apply/undo, tile pass); ``workspace_factory`` builds the
    explicit-stack search arena (``None`` means the shared numpy arena).
    ``native_search`` tells benchmarks whether the search arena itself is
    compiled, as opposed to only the flat kernels.
    """

    name: str
    kernels: object
    workspace_factory: Callable[..., NumpySearchWorkspace] | None = None
    native_search: bool = False

    def make_search_workspace(self, *args, **kwargs) -> NumpySearchWorkspace:
        if self.workspace_factory is None:
            return NumpySearchWorkspace(*args, **kwargs)
        return self.workspace_factory(*args, **kwargs)


NUMPY_BACKEND = Backend(name=numpy_backend.NAME, kernels=NumpyKernels())


# ---------------------------------------------------------------------------
# Probe: compiled kernels must reproduce the numpy reference bit for bit
# ---------------------------------------------------------------------------
def _probe_flat_kernels(kernels) -> None:
    rng = np.random.default_rng(7)
    reference = NumpyKernels()

    words = rng.integers(0, 2**64, size=37, dtype=np.uint64)
    if not np.array_equal(kernels.popcount(words), reference.popcount(words)):
        raise AssertionError("popcount mismatch")

    ev = rng.integers(0, 2**64, size=(3, 29), dtype=np.uint64)
    mask = rng.integers(0, 2**64, size=3, dtype=np.uint64)
    theirs = np.asarray(kernels.intersection_counts(ev, mask), dtype=np.int64)
    ours = np.asarray(reference.intersection_counts(ev, mask), dtype=np.int64)
    if not np.array_equal(theirs, ours):
        raise AssertionError("intersection_counts mismatch")

    for depth in (0, 1, 4):
        rows_a = rng.integers(1, 2**64, size=(depth + 1, 2), dtype=np.uint64)
        rows_b = rows_a.copy()
        new_row = rng.integers(0, 2**64, size=2, dtype=np.uint64)
        covers = rng.integers(0, 2**64, size=2, dtype=np.uint64)
        viable_a, removed_a = kernels.crit_apply(rows_a, depth, new_row, covers)
        viable_b, removed_b = reference.crit_apply(rows_b, depth, new_row, covers)
        if viable_a != viable_b or not np.array_equal(rows_a, rows_b):
            raise AssertionError("crit_apply mismatch")
        kernels.crit_undo(rows_a, depth, removed_a)
        reference.crit_undo(rows_b, depth, removed_b)
        if not np.array_equal(rows_a, rows_b):
            raise AssertionError("crit_undo mismatch")

    kinds = np.array([0, 1, 2], dtype=np.int32)
    n_rows, n_words = 6, 2
    a = np.zeros((3, n_rows), dtype=np.float64)
    b = np.zeros((3, n_rows), dtype=np.float64)
    a[0] = rng.integers(0, 3, size=n_rows)
    a[1] = rng.integers(-2, 3, size=n_rows)
    b[1] = rng.integers(-2, 3, size=n_rows)
    a[2] = rng.integers(0, 3, size=n_rows)
    b[2] = rng.integers(0, 3, size=n_rows)
    lookup = rng.integers(0, 2**64, size=(3, 3, n_words), dtype=np.uint64)
    theirs = kernels.tile_plane(kinds, a, b, lookup, 1, 5, 0, 6, n_words)
    ours = NumpyKernels.tile_plane(kinds, a, b, lookup, 1, 5, 0, 6, n_words)
    if not np.array_equal(theirs, ours):
        raise AssertionError("tile_plane mismatch")

    # Small value range so the probe input is guaranteed to hold duplicates.
    rows = rng.integers(0, 3, size=(41, 2)).astype(np.uint64)
    for theirs, ours in zip(kernels.unique_rows(rows), NumpyKernels.unique_rows(rows)):
        if not np.array_equal(theirs, ours):
            raise AssertionError("unique_rows mismatch")


def _probe_workspace(factory: Callable[..., NumpySearchWorkspace]) -> None:
    """Drive a candidate search arena and the numpy arena in lockstep.

    A small deterministic evidence space is walked through every workspace
    operation (expand, skip-child, hit-prepare, each try-hit outcome,
    criticality pop); any scalar or state divergence rejects the backend.
    """
    rng = np.random.default_rng(11)
    n_predicates, n_evidences = 9, 7
    n_words = 1
    n_ev_words = 1
    ev_planes = rng.integers(1, 1 << n_predicates, size=(n_words, n_evidences), dtype=np.uint64)
    counts = rng.integers(1, 5, size=n_evidences, dtype=np.int64)
    membership = (
        (ev_planes[0][None, :] >> np.arange(n_predicates, dtype=np.uint64)[:, None])
        & np.uint64(1)
    ).astype(bool)
    contains = np.zeros((n_predicates, n_ev_words), dtype=np.uint64)
    for p in range(n_predicates):
        word = 0
        for e in range(n_evidences):
            if membership[p, e]:
                word |= 1 << e
        contains[p, 0] = word
    group_inv = np.full((n_predicates, n_words), np.uint64(2**64 - 1), dtype=np.uint64)
    for p in range(n_predicates):
        group_inv[p, 0] ^= np.uint64(1) << np.uint64(p)
    full_cand = np.array([(1 << n_predicates) - 1], dtype=np.uint64)

    build = dict(
        counts=counts, contains_ev_words=contains, group_words_inv=group_inv,
        full_cand_words=full_cand, n_evidences=n_evidences,
        n_predicates=n_predicates,
    )
    for track_uncov in (False, True):
        candidate = factory(ev_planes=ev_planes, track_uncov=track_uncov, **build)
        reference = NumpySearchWorkspace(
            ev_planes=ev_planes, track_uncov=track_uncov, **build
        )
        for ws in (candidate, reference):
            if ws.init_root() != n_evidences:
                raise AssertionError("workspace init_root mismatch")
        for selection in (0, 1, 2):
            got = candidate.expand(0, n_evidences, selection, 3)
            want = reference.expand(0, n_evidences, selection, 3)
            if got != want:
                raise AssertionError("workspace expand mismatch")
        chosen, _, _, k = want
        for compact in (True, False):
            if candidate.skip_child(0, n_evidences, compact) != reference.skip_child(
                0, n_evidences, compact
            ):
                raise AssertionError("workspace skip_child mismatch")
        if candidate.hit_prepare(0, n_evidences, k) != reference.hit_prepare(
            0, n_evidences, k
        ) or candidate.elements_list(0, k) != reference.elements_list(0, k):
            raise AssertionError("workspace hit_prepare mismatch")
        for position in range(k):
            descend = position % 2 == 0
            got = candidate.try_hit(0, n_evidences, position, descend)
            want = reference.try_hit(0, n_evidences, position, descend)
            if got != want:
                raise AssertionError("workspace try_hit mismatch")
            status, _, m, _ = want
            if status == numpy_backend.DESCENDED:
                if not np.array_equal(
                    candidate.cin_view(1, m), reference.cin_view(1, m)
                ) or not np.array_equal(
                    candidate.uncov_bits_view(1), reference.uncov_bits_view(1)
                ):
                    raise AssertionError("workspace child state mismatch")
                candidate.crit_pop()
                reference.crit_pop()
        if not np.array_equal(
            candidate.crit_active_rows(), reference.crit_active_rows()
        ):
            raise AssertionError("workspace criticality mismatch")


# ---------------------------------------------------------------------------
# Backend construction
# ---------------------------------------------------------------------------
def _build_cext_backend() -> Backend:
    from repro.native import cext
    from repro.native.build import build_library

    library = build_library()
    if library is None:
        raise RuntimeError("no C compiler available (or compilation failed)")
    functions = cext.load_functions(library)
    kernels = cext.CKernels(functions)
    _probe_flat_kernels(kernels)

    def factory(*args, **kwargs):
        return cext.CextSearchWorkspace(functions, *args, **kwargs)

    _probe_workspace(factory)
    return Backend(
        name=cext.NAME, kernels=kernels, workspace_factory=factory,
        native_search=True,
    )


def resolve_backend(name: str) -> Backend:
    """Build and probe one backend by name (``"numpy"`` or ``"cext"``);
    raises when unavailable."""
    if name in ("numpy", "0"):
        return NUMPY_BACKEND
    if name != "cext":
        raise RuntimeError(f"unknown kernel backend {name!r}")
    try:
        return _build_cext_backend()
    except Exception as error:
        raise RuntimeError(
            f"the compiled C backend is unavailable: {error}"
        ) from error


def _resolve() -> Backend:
    mode = os.environ.get(_ENV_VAR, "").strip().lower()
    if mode in ("0", "numpy"):
        return NUMPY_BACKEND
    if mode == "1":
        try:
            return _build_cext_backend()
        except Exception as error:
            raise RuntimeError(
                f"{_ENV_VAR}=1 requires the compiled C backend, but it is "
                f"unavailable: {error}"
            ) from error
    if mode not in ("", "auto"):
        raise RuntimeError(f"unknown {_ENV_VAR} value {mode!r}")
    try:
        return _build_cext_backend()
    except Exception:
        return NUMPY_BACKEND


_active: Backend | None = None


def get_backend() -> Backend:
    """The process-wide resolved backend (resolved lazily, then cached)."""
    global _active
    if _active is None:
        _active = _resolve()
    return _active


def set_backend(backend: Backend | str | None) -> None:
    """Override the active backend (``None`` re-resolves lazily)."""
    global _active
    if isinstance(backend, str):
        backend = resolve_backend(backend)
    _active = backend


@contextlib.contextmanager
def use_backend(backend: Backend | str | None) -> Iterator[Backend]:
    """Temporarily swap the active backend (tests and benchmarks)."""
    previous = _active
    set_backend(backend)
    try:
        yield get_backend()
    finally:
        set_backend(previous)
