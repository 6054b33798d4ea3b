"""Feature-detected kernel dispatch.

Resolution happens once per process, lazily, at first use, honouring
``REPRO_NATIVE``:

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
compared bit for bit against the numpy reference, and the compiled search
driver runs whole searches that must match the Python driver's.  A build
that throws or mismatches is rejected — under auto resolution that
silently falls back to numpy; under an explicit request it raises, because
a silently-different compiled kernel is precisely the failure mode the
probe exists to catch.

The probe runs once per built library, not once per process: a library
that passes gets an empty verdict file beside it in the kernel cache
(:func:`repro.native.build.verdict_path`), and later processes that find
the verdict skip the probe.  The verdict's key covers the library's bytes,
the source of every module the probe runs through (this package and the
``repro.core`` modules in :data:`_PROBED_CORE_MODULES`), the numpy and
Python versions, and the machine and CPU; a change to any of them probes
again, and deleting the cache directory forces a new build and probe.  A
rejected library leaves no verdict.
"""

from __future__ import annotations

import contextlib
import itertools
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from repro.native import numpy_backend
from repro.native.numpy_backend import NumpyKernels, NumpySearchWorkspace

_ENV_VAR = "REPRO_NATIVE"


@dataclass(frozen=True)
class Backend:
    """One resolved kernel provider.

    ``kernels`` carries the flat kernels (intersection counts, criticality
    apply/undo, tile pass, tile fold, row dedup); ``workspace_factory``
    builds the explicit-stack search arena (``None`` means the shared numpy
    arena); an arena whose ``native_driver`` is set also runs whole
    searches.
    """

    name: str
    kernels: object
    workspace_factory: Callable[..., NumpySearchWorkspace] | None = None

    def make_search_workspace(self, *args, **kwargs) -> NumpySearchWorkspace:
        if self.workspace_factory is None:
            return NumpySearchWorkspace(*args, **kwargs)
        return self.workspace_factory(*args, **kwargs)


NUMPY_BACKEND = Backend(name=numpy_backend.NAME, kernels=NumpyKernels())


# ---------------------------------------------------------------------------
# Probe: compiled kernels must reproduce the numpy reference bit for bit
# ---------------------------------------------------------------------------
#: The modules of ``repro.core`` the probes run through besides this
#: package.  A cached verdict is keyed on their source and on every module
#: of ``repro.native``, so an edit to any of them forces a new probe.
_PROBED_CORE_MODULES = ("adc_enum.py", "approximation.py", "evidence.py", "bitset.py")


def _probed_sources() -> list[Path]:
    native = Path(__file__).resolve().parent
    core = native.parent / "core"
    return sorted(native.glob("*.py")) + [core / name for name in _PROBED_CORE_MODULES]


def _probe_flat_kernels(kernels) -> None:
    rng = np.random.default_rng(7)
    reference = NumpyKernels()

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
    # A NaN difference is GREATER, whichever side the NaN is on.
    a[1, 2] = b[1, 4] = np.nan
    lookup = rng.integers(0, 2**64, size=(3, 3, n_words), dtype=np.uint64)
    # A wide tile, and a tall n x 1 strip (the kernel runs along the
    # longer side, so each orientation has its own loop).
    for i0, i1, j0, j1 in ((1, 5, 0, 6), (0, 6, 4, 5)):
        theirs = kernels.tile_plane(kinds, a, b, lookup, i0, i1, j0, j1, n_words)
        ours = NumpyKernels.tile_plane(kinds, a, b, lookup, i0, i1, j0, j1, n_words)
        if not np.array_equal(theirs, ours):
            raise AssertionError("tile_plane mismatch")

    # The fold, with participation off and on, over a wide tile, a 1 x n
    # and an n x 1 strip, a tile across the diagonal and a lone diagonal
    # cell: every output array must match, dtype included.  The second
    # lookup's rows share their two low bits, so the fold's category codes
    # decode to the same words and must merge.
    bounds = np.array(
        [(1, 5, 0, 6), (3, 4, 0, 6), (0, 6, 2, 3), (0, 4, 0, 4), (5, 6, 5, 6)],
        dtype=np.int64,
    )
    merging = rng.integers(0, 4, size=(3, 3, n_words), dtype=np.uint64)
    for fold_lookup, participation in itertools.product((lookup, merging), (False, True)):
        theirs = kernels.fold_tiles(kinds, a, b, fold_lookup, bounds, n_words, participation)
        ours = NumpyKernels.fold_tiles(kinds, a, b, fold_lookup, bounds, n_words, participation)
        if not all(
            (x is None and y is None)
            or (x is not None and y is not None and x.dtype == y.dtype and np.array_equal(x, y))
            for x, y in zip(theirs, ours)
        ):
            raise AssertionError("fold_tiles mismatch")

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
            got = candidate.try_hit(0, n_evidences, position)
            want = reference.try_hit(0, n_evidences, position)
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


def _probe_driver(candidate: Backend) -> None:
    """Run whole searches on a candidate backend against the Python driver.

    The probe evidence set lives on five columns, each with an equality
    predicate and its complement.  Every search runs through the public
    :class:`~repro.core.adc_enum.ADCEnum` twice: under ``candidate``, whose
    arena runs the pair-determined searches in its compiled driver, and
    under the numpy backend, whose Python driver scores the pair fraction
    in floats.  f1 runs at epsilon 1 (the root passes), 0 (only a full
    cover passes, so nearly the whole tree is walked) and 1/3, under every
    selection rule, with and without a DC size cap, and once with a
    progress report every other node; f1' runs below epsilon 0.5.  The
    ADCs in order with their scores, the progress reports and every
    counter must agree.
    """
    from repro.core.adc_enum import ADCEnum
    from repro.core.approximation import F1, F1Adjusted
    from repro.core.evidence import EvidenceSet
    from repro.core.operators import Operator
    from repro.core.predicate_space import PredicateSpace
    from repro.core.predicates import Predicate, PredicateForm

    n_columns, n_rows = 5, 7
    space = PredicateSpace([
        Predicate(f"c{c}", operator, f"c{c}", PredicateForm.TWO_TUPLE_SAME_COLUMN)
        for c in range(n_columns)
        for operator in (Operator.EQ, Operator.NE)
    ])
    # Each evidence holds one predicate of every column; the counts add up
    # to the relation's ordered pairs.
    rng = np.random.default_rng(11)
    patterns = rng.choice(1 << n_columns, size=12, replace=False)
    masks = [
        sum(1 << (2 * c + ((int(pattern) >> c) & 1)) for c in range(n_columns))
        for pattern in patterns
    ]
    total = n_rows * (n_rows - 1)
    counts = 1 + rng.multinomial(total - len(masks), [1 / len(masks)] * len(masks))
    evidence = EvidenceSet(space, masks=masks, counts=counts, n_rows=n_rows)

    def search(backend, function, epsilon, selection, max_dc_size, interval):
        reports = []
        with use_backend(backend):
            enumerator = ADCEnum(
                evidence, function, epsilon, selection=selection,
                max_dc_size=max_dc_size,
                progress=(lambda statistics: reports.append(replace(
                    statistics, elapsed_seconds=0.0, extra=dict(statistics.extra)
                ))) if interval else None,
                progress_interval=interval or 1,
            )
            adcs = [(a.hitting_set_mask, a.violation_score) for a in enumerator.enumerate()]
        return adcs, reports, replace(enumerator.statistics, elapsed_seconds=0.0)

    for case in (
        (F1(), 1.0, "max", None, 0),
        (F1(), 0.0, "max", None, 0),
        (F1(), 0.0, "min", 2, 0),
        (F1(), 1 / 3, "max", None, 2),
        (F1(), 1 / 3, "min", 2, 0),
        (F1(), 1 / 3, "random", None, 0),
        (F1Adjusted(1.645), 0.2, "max", 3, 0),
    ):
        if search(candidate, *case) != search(NUMPY_BACKEND, *case):
            raise AssertionError(
                f"search driver mismatch for {case[0].name} at epsilon "
                f"{case[1]:.3g}, selection {case[2]}"
            )


# ---------------------------------------------------------------------------
# Backend construction
# ---------------------------------------------------------------------------
def _build_cext_backend() -> Backend:
    from repro.native import cext
    from repro.native.build import build_library, publish_verdict, verdict_path

    library = build_library()
    if library is None:
        raise RuntimeError("no C compiler available (or compilation failed)")
    functions = cext.load_functions(library)
    kernels = cext.CKernels(functions)

    def factory(*args, **kwargs):
        return cext.CextSearchWorkspace(functions, *args, **kwargs)

    backend = Backend(name=cext.NAME, kernels=kernels, workspace_factory=factory)
    verdict = verdict_path(library, _probed_sources())
    if verdict is None or not verdict.is_file():
        _probe_flat_kernels(kernels)
        _probe_workspace(factory)
        _probe_driver(backend)
        if verdict is not None:
            publish_verdict(verdict)
    return backend


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
