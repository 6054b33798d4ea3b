"""Resolution, the golden self-check and bit-identity of the native kernels.

Three families of guarantees:

* Resolution: the compiled C library is the one backend; a host whose
  build fails gets a :class:`RuntimeError` naming the cause, and no
  fallback.
* The self-check rejects each mutant kernel below by name, and runs once
  per built library, not once per process, unless any input of the
  verdict's key changed; a rejected library leaves no verdict.  Its golden
  digests are checked in ``tests/test_selfcheck.py``.
* Bit identity: every ported kernel produces byte-for-byte the numpy
  reference's output (``tests/numpy_backend.py``) on hypothesis-generated
  inputs (the self-check checks fixed inputs; these tests fuzz the same
  contract).
"""

from __future__ import annotations

import ctypes
import gc
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.native import dispatch, get_backend, selfcheck
from tests.numpy_backend import NUMPY_BACKEND, NumpyKernels, NumpySearchWorkspace


def _reference_with(kernels) -> dispatch.Backend:
    """The numpy reference backend with other flat kernels."""
    return dispatch.Backend(
        name="mutant", kernels=kernels, workspace_factory=NumpySearchWorkspace
    )


def _compiled_backend(functions, workspace=None) -> dispatch.Backend:
    """A backend over bound ``functions``, its workspace class ``workspace``."""
    from repro.native import cext

    workspace = workspace or cext.CextSearchWorkspace
    return dispatch.Backend(
        name=cext.NAME, kernels=cext.CKernels(functions),
        workspace_factory=lambda *args, **kwargs: workspace(functions, *args, **kwargs),
    )


class TestResolution:
    def test_the_backend_is_the_compiled_one(self):
        assert get_backend().name == "cext"

    def test_a_host_without_a_library_raises(self, monkeypatch):
        """A build that returns no library (no compiler, or compilation
        failed): the first ``get_backend()`` raises, naming the cause."""
        from repro.native import build

        monkeypatch.setattr(build, "build_library", lambda: None)
        monkeypatch.setattr(dispatch, "_active", None)
        with pytest.raises(RuntimeError, match="unavailable: no C compiler"):
            get_backend()
        with pytest.raises(RuntimeError, match="no C compiler"):
            get_backend()

    def test_probe_rejects_lying_backend(self):
        """Kernels whose output mismatches the golden digests are rejected
        by the self-check, not trusted."""

        class LyingKernels(NumpyKernels):
            @staticmethod
            def unique_rows(words):
                rows, inverse, counts = NumpyKernels.unique_rows(words)
                return rows, inverse, counts + 1

        with pytest.raises(RuntimeError, match="unique_rows mismatch"):
            selfcheck.check(_reference_with(LyingKernels()))

    def test_probe_rejects_nan_as_less(self):
        """A tile pass that puts a NaN difference in LESS, not GREATER."""

        class NanKernels(NumpyKernels):
            @staticmethod
            def tile_plane(kinds, a, b, lookup, i0, i1, j0, j1, n_words):
                a = np.where(np.isnan(a), -np.inf, a)
                return NumpyKernels.tile_plane(kinds, a, b, lookup, i0, i1, j0, j1, n_words)

        with pytest.raises(RuntimeError, match="tile_plane mismatch"):
            selfcheck.check(_reference_with(NanKernels()))

    def test_probe_rejects_broken_tall_strips(self):
        """A tile pass that gets only the n x 1 orientation wrong."""

        class TallKernels(NumpyKernels):
            @staticmethod
            def tile_plane(kinds, a, b, lookup, i0, i1, j0, j1, n_words):
                plane = NumpyKernels.tile_plane(kinds, a, b, lookup, i0, i1, j0, j1, n_words)
                return plane[::-1].copy() if i1 - i0 > j1 - j0 else plane

        with pytest.raises(RuntimeError, match="tile_plane mismatch"):
            selfcheck.check(_reference_with(TallKernels()))

    @pytest.mark.parametrize("path", ["bound", "callback"])
    def test_probe_rejects_a_wrong_search_driver(self, path):
        """A compiled search whose pass test is off by one pair: on the
        integer bound, or on the pairs the callback is given."""
        from repro.native import cext

        functions = cext.load_functions(_built_library())

        class OffByOne(cext.CextSearchWorkspace):
            def search(self, bound, passes, *args):
                if path == "bound" and bound:
                    bound -= 1
                elif path == "callback" and bound is None:
                    passes = lambda ids, pairs, passes=passes: passes(ids, pairs + 1)
                return super().search(bound, passes, *args)

        selfcheck.check(_compiled_backend(functions))
        with pytest.raises(RuntimeError, match="search driver mismatch"):
            selfcheck.check(_compiled_backend(functions, OffByOne))

    def test_use_backend_restores_previous(self):
        before = get_backend()
        with dispatch.use_backend(NUMPY_BACKEND) as backend:
            assert backend is NUMPY_BACKEND
            assert get_backend() is NUMPY_BACKEND
        assert get_backend() is before


def _built_library():
    from repro.native.build import build_library

    library = build_library()
    if library is None:
        pytest.skip("no C compiler on this host")
    return library


def test_ffi_binding_passes_every_probe():
    """The compiled library binds through ctypes from one signature table;
    the binding must pass every check of the self-check."""
    from repro.native import cext

    functions = cext.load_functions(_built_library())
    assert set(functions) == set(cext._SIGNATURES)
    for name, fn in functions.items():
        assert (fn.restype, fn.argtypes) == cext._SIGNATURES[name], name
    selfcheck.check(_compiled_backend(functions))


# ---------------------------------------------------------------------------
# The verdict: once per built library, not once per process
# ---------------------------------------------------------------------------
#: A fresh interpreter's first ``get_backend()``; with ``refuse`` the
#: self-check raises, so only a cached verdict can resolve the backend.
_RESOLVE_IN_A_FRESH_PROCESS = """
import sys
from repro.native import dispatch, selfcheck

def refuse(*args):
    raise AssertionError("the self-check ran")

if sys.argv[1:] == ["refuse"]:
    selfcheck.check = refuse
print(dispatch.get_backend().name)
"""


@pytest.fixture
def private_cache(tmp_path, monkeypatch):
    """A kernel cache holding a copy of the built library and no verdict."""
    library = _built_library()
    cache = tmp_path / "kernel-cache"
    cache.mkdir()
    shutil.copyfile(library, cache / library.name)
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(cache))
    return cache


@pytest.fixture
def check_calls(monkeypatch):
    """One entry per self-check run; each still runs."""
    calls = []
    check = selfcheck.check

    def record(backend):
        calls.append("check")
        return check(backend)

    monkeypatch.setattr(selfcheck, "check", record)
    return calls


def _verdicts(cache):
    return sorted(cache.glob("probed-*"))


class TestProbeVerdict:
    def test_a_later_process_skips_the_probe(self, private_cache):
        """The first process checks and leaves a verdict; a second fresh
        interpreter, in which the self-check raises, still resolves."""
        import repro

        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}

        def resolve(*args):
            return subprocess.run(
                [sys.executable, "-c", _RESOLVE_IN_A_FRESH_PROCESS, *args],
                capture_output=True, text=True, env=env, timeout=120,
            )

        refused = resolve("refuse")
        assert refused.returncode != 0
        assert "RuntimeError: the compiled kernel backend is unavailable: " \
            "the self-check ran" in refused.stderr
        assert not _verdicts(private_cache)
        assert resolve().stdout.strip() == "cext"
        assert len(_verdicts(private_cache)) == 1
        assert resolve("refuse").stdout.strip() == "cext"

    @pytest.mark.parametrize("change", ["library bytes", "probed source", "numpy version"])
    def test_a_verdict_on_other_inputs_does_not_count(
        self, private_cache, check_calls, tmp_path, monkeypatch, change
    ):
        """Each key input, changed after a verdict was published, runs the
        self-check again: the library's bytes under the same name (a
        sanitizer build swapped in), the source the check runs through,
        numpy."""
        extra = tmp_path / "probed.py"
        extra.write_text("VALUE = 1\n")
        sources = dispatch._probed_sources() + [extra]
        monkeypatch.setattr(dispatch, "_probed_sources", lambda: sources)
        dispatch._build_cext_backend()
        dispatch._build_cext_backend()
        assert check_calls == ["check"]
        assert len(_verdicts(private_cache)) == 1

        if change == "library bytes":
            library = next(private_cache.glob("kernels-*.so"))
            swapped = tmp_path / "swapped.so"
            swapped.write_bytes(library.read_bytes() + b"\0")
            os.replace(swapped, library)
        elif change == "probed source":
            extra.write_text("VALUE = 2\n")
        else:
            monkeypatch.setattr(np, "__version__", np.__version__ + "+other")
        assert dispatch._build_cext_backend().name == "cext"
        assert check_calls == ["check"] * 2
        assert len(_verdicts(private_cache)) == 2

    def test_the_probed_sources_are_the_probes_python(self):
        """The verdict is keyed on the self-check's own module, the binding
        and dispatch it runs through, and the core modules of its
        searches."""
        names = {(path.parent.name, path.name) for path in dispatch._probed_sources()}
        assert {("native", "selfcheck.py"),
                ("native", "dispatch.py"), ("native", "cext.py"),
                ("core", "adc_enum.py"), ("core", "evidence.py")} <= names
        assert all(path.is_file() for path in dispatch._probed_sources())

    def test_a_lying_kernel_leaves_no_verdict(self, private_cache, monkeypatch):
        from repro.native import cext

        class LyingKernels(cext.CKernels):
            def unique_rows(self, words):
                rows, inverse, counts = super().unique_rows(words)
                return rows, inverse, counts + 1

        monkeypatch.setattr(cext, "CKernels", LyingKernels)
        with pytest.raises(RuntimeError, match="unique_rows mismatch"):
            dispatch._resolve()
        assert not _verdicts(private_cache)

    def test_a_blocked_verdict_path_still_resolves(self, private_cache, check_calls):
        """A directory where the verdict would go: the marker cannot be
        written and does not count, so every process checks, and resolution
        neither fails nor raises."""
        from repro.native import build

        library = next(private_cache.glob("kernels-*.so"))
        verdict = build.verdict_path(library, dispatch._probed_sources())
        verdict.mkdir()
        assert dispatch._resolve().name == "cext"
        assert dispatch._resolve().name == "cext"
        assert check_calls == ["check"] * 2
        assert verdict.is_dir()


def test_a_cache_directory_that_cannot_be_created(tmp_path, monkeypatch):
    """``build_library`` raises the ``mkdir`` error for a cache under a
    regular file, and resolution raises naming the path."""
    from repro.native.build import build_library

    _built_library()
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    cache = blocker / "kernel-cache"
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(cache))
    with pytest.raises(NotADirectoryError):
        build_library()
    with pytest.raises(RuntimeError, match=f"unavailable.*{re.escape(str(cache))}"):
        dispatch._resolve()


#: ctypes type of each C parameter and return type of ``kernels.c``.  An
#: address is a ``c_void_p`` argument but an integer result.
_C_ARGTYPES = {
    "intptr_t": ctypes.c_void_p, "int64_t": ctypes.c_int64, "int32_t": ctypes.c_int32,
}
_C_RESTYPES = {
    "void": None, "intptr_t": ctypes.c_ssize_t, "int64_t": ctypes.c_int64,
    "int32_t": ctypes.c_int32,
}


def test_signature_table_matches_the_c_prototypes():
    """Every exported ``adc_*`` definition of ``kernels.c`` is in the
    signature table with its return type and each parameter's type, and
    the table has no other entry."""
    from repro.native import cext
    from repro.native.build import SOURCE_PATH

    source = SOURCE_PATH.read_text()
    definitions = re.findall(
        r"^(?!static\b)(\w+)\s+(adc_\w+)\s*\(([^)]*)\)\s*\{", source, re.MULTILINE
    )
    # Whatever starts a line with a non-static adc_ name is one of them.
    exported = re.findall(r"^(?!static\b)\w[^;(]*\b(adc_\w+)\s*\(", source, re.MULTILINE)
    names = [name for _, name, _ in definitions]
    assert sorted(names) == sorted(set(exported))
    assert set(names) == set(cext._SIGNATURES)
    for restype, name, parameters in definitions:
        types = [parameter.split()[0] for parameter in parameters.split(",")]
        want = (_C_RESTYPES[restype], [_C_ARGTYPES[t] for t in types])
        assert cext._SIGNATURES[name] == want, name


def test_bound_functions_keep_the_library_loaded(tmp_path):
    """The function dict is all a caller keeps of the binding: after a
    cycle collection its kernels still run.  The library is a fresh copy,
    so no other handle keeps it mapped."""
    from repro.native import cext

    copy = tmp_path / "kernels-lifetime.so"
    shutil.copyfile(_built_library(), copy)
    functions = cext.load_functions(copy)
    gc.collect()
    selfcheck.check(_compiled_backend(functions))


# ---------------------------------------------------------------------------
# Hypothesis bit-identity: compiled backend vs numpy reference
# ---------------------------------------------------------------------------
class TestCompiledBitIdentity:
    """Every ported flat kernel, fuzzed against the numpy reference."""

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_intersection_counts(self, data):
        """The C driver's root overlap counts (``adc_intersection_counts``,
        over up to four words of predicates) steer evidence selection and
        the WillCover prune: its outputs and search-tree counters must
        match the numpy workspace's search."""
        from repro.core.adc_enum import ADCEnum
        from repro.core.approximation import F1
        from tests.reference import family_evidence

        n_elements = data.draw(st.integers(min_value=1, max_value=120))
        element = st.integers(min_value=0, max_value=n_elements - 1)
        subsets = [
            sum(1 << j for j in members)
            for members in data.draw(st.lists(st.lists(element, max_size=6), max_size=12))
        ]
        epsilon = data.draw(st.sampled_from([0.0, 0.3]))
        selection = data.draw(st.sampled_from(["max", "min"]))
        evidence = family_evidence(subsets, n_elements)

        def run(backend):
            with dispatch.use_backend(backend):
                enum = ADCEnum(evidence, F1(), epsilon, selection=selection, max_dc_size=3)
                adcs = [(adc.hitting_set_mask, adc.violation_score) for adc in enum.enumerate()]
                statistics = enum.statistics
                return adcs, (
                    statistics.recursive_calls, statistics.hit_branches,
                    statistics.skip_branches, statistics.pruned_by_willcover,
                    statistics.pruned_by_criticality, statistics.minimality_checks,
                )

        assert run(get_backend()) == run(NUMPY_BACKEND)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_tile_plane(self, data):
        """Tiles, 1-tall and 1-wide strips of up to 600 rows (crossing the
        kernel's 256-pair blocks), NaN in numeric planes (a NaN difference
        is GREATER) and groups whose lookup sets no bit."""
        n_groups = data.draw(st.integers(min_value=0, max_value=4))
        n_rows = data.draw(st.integers(min_value=1, max_value=600))
        n_words = data.draw(st.integers(min_value=1, max_value=3))
        seed = data.draw(st.integers(min_value=0, max_value=2**31))
        rng = np.random.default_rng(seed)
        kinds = rng.integers(0, 3, size=n_groups).astype(np.int32)
        a = np.zeros((n_groups, n_rows), dtype=np.float64)
        b = np.zeros((n_groups, n_rows), dtype=np.float64)
        for g in range(n_groups):
            if kinds[g] == 0:
                a[g] = rng.integers(0, 3, size=n_rows)
                continue
            a[g] = rng.integers(-3, 4, size=n_rows)
            b[g] = rng.integers(-3, 4, size=n_rows)
            if kinds[g] == 1:
                a[g, rng.random(n_rows) < 0.1] = np.nan
                b[g, rng.random(n_rows) < 0.1] = np.nan
        lookup = rng.integers(0, 2**64, size=(n_groups, 3, n_words), dtype=np.uint64)
        lookup[rng.random(n_groups) < 0.25] = 0
        i0 = data.draw(st.integers(min_value=0, max_value=n_rows - 1))
        i1 = data.draw(st.integers(min_value=i0 + 1, max_value=n_rows))
        j0 = data.draw(st.integers(min_value=0, max_value=n_rows - 1))
        j1 = data.draw(st.integers(min_value=j0 + 1, max_value=n_rows))
        shape = data.draw(st.sampled_from(["tile", "row", "column"]))
        if shape == "row":
            i1 = i0 + 1
        elif shape == "column":
            j1 = j0 + 1
        kernels = get_backend().kernels
        theirs = kernels.tile_plane(kinds, a, b, lookup, i0, i1, j0, j1, n_words)
        ours = NumpyKernels.tile_plane(kinds, a, b, lookup, i0, i1, j0, j1, n_words)
        assert np.array_equal(theirs, ours)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_unique_rows(self, data):
        n = data.draw(st.integers(min_value=0, max_value=300))
        n_words = data.draw(st.integers(min_value=1, max_value=4))
        # Small value range forces hash collisions and duplicates.
        domain = data.draw(st.integers(min_value=1, max_value=6))
        # Rows that differ only above bit 31: a hash whose slot ignores the
        # high bits of a word sends every one of them into one probe chain.
        shift = data.draw(st.sampled_from([0, 32, 40, 58]))
        seed = data.draw(st.integers(min_value=0, max_value=2**31))
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, domain, size=(n, n_words)).astype(np.uint64)
        rows <<= np.uint64(shift)
        kernels = get_backend().kernels
        for theirs, ours in zip(kernels.unique_rows(rows), NumpyKernels.unique_rows(rows)):
            assert np.array_equal(theirs, ours)

    def test_unique_rows_past_the_initial_table(self):
        """More distinct rows than the kernel's initial table holds: the
        table keeps growing."""
        rng = np.random.default_rng(3)
        distinct = rng.integers(0, 2**64, size=(5000, 2), dtype=np.uint64)
        rows = distinct[rng.integers(0, len(distinct), size=20_000)]
        kernels = get_backend().kernels
        for theirs, ours in zip(kernels.unique_rows(rows), NumpyKernels.unique_rows(rows)):
            assert np.array_equal(theirs, ours)
            assert theirs.dtype == ours.dtype

    def test_unique_rows_past_the_kernel_row_limit(self, monkeypatch):
        """A plane longer than the kernel's uint32 table slots can index is
        refused, naming the limit; one at the limit is deduplicated."""
        from repro.native import cext

        monkeypatch.setattr(cext, "MAX_DEDUP_ROWS", 10)
        rows = np.random.default_rng(4).integers(0, 3, size=(50, 2)).astype(np.uint64)
        kernels = get_backend().kernels
        with pytest.raises(ValueError, match="MAX_DEDUP_ROWS = 10"):
            kernels.unique_rows(rows)
        at_limit = rows[:10]
        for theirs, ours in zip(kernels.unique_rows(at_limit), NumpyKernels.unique_rows(at_limit)):
            assert np.array_equal(theirs, ours)

    @pytest.mark.parametrize(
        "function, epsilon",
        [("f1", 0.15), ("f2", 0.15), ("f1'", 0.6)],
    )
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_search_workspace_lockstep(self, function, epsilon, seed):
        """The compiled search mirrors the numpy workspace's through a full
        randomized enumeration.  f1 takes the compiled driver's integer
        pass bound; f2 and f1' at epsilon 0.6 (no integer pass bound) take
        its pass-test callback, f2 with the uncovered ids threaded."""
        from tests.conftest import make_random_relation
        from repro.core.adc_enum import ADCEnum
        from repro.core.approximation import F1, F1Adjusted, F2
        from repro.core.evidence_builder import build_evidence_set
        from repro.core.predicate_space import build_predicate_space

        relation = make_random_relation(n_rows=6, seed=seed)
        space = build_predicate_space(relation)
        evidence = build_evidence_set(relation, space, include_participation=True)
        function = {"f1": F1(), "f2": F2(), "f1'": F1Adjusted(1.645)}[function]

        def run(backend):
            with dispatch.use_backend(backend):
                enum = ADCEnum(evidence, function, epsilon, max_dc_size=3)
                return [
                    (adc.hitting_set_mask, adc.violation_score)
                    for adc in enum.enumerate()
                ]

        assert run(get_backend()) == run(NUMPY_BACKEND)
