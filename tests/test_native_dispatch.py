"""Dispatch semantics and bit-identity of the native kernel layer.

Two families of guarantees:

* ``REPRO_NATIVE`` resolution — ``0`` forces numpy, ``1`` requires the
  compiled C backend (clean :class:`RuntimeError` when it does not build),
  auto never raises.
* The probe verdict — a library that passes the probe is not probed again
  by a later process, unless any input of the verdict's key changed; a
  rejected library leaves no verdict.
* Bit identity — every ported kernel produces byte-for-byte the numpy
  reference's output under whichever compiled backend resolved, on
  hypothesis-generated inputs (the dispatch probe checks one deterministic
  input; these tests fuzz the same contract).
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

from repro.native import NUMPY_BACKEND, NumpyKernels, get_backend
from repro.native import dispatch


def _compiled_backend_or_none():
    try:
        backend = get_backend()
    except Exception:  # pragma: no cover - auto resolution never raises
        return None
    return backend if backend is not NUMPY_BACKEND else None


requires_compiled = pytest.mark.skipif(
    _compiled_backend_or_none() is None,
    reason="no compiled native backend available on this host",
)


class TestResolution:
    def test_env_0_forces_numpy(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        assert dispatch._resolve() is NUMPY_BACKEND

    def test_env_numpy_forces_numpy(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "numpy")
        assert dispatch._resolve() is NUMPY_BACKEND

    def test_auto_never_raises(self, monkeypatch):
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        backend = dispatch._resolve()
        assert backend.name in ("cext", "numpy")

    def test_env_1_requires_compiled(self, monkeypatch):
        """``REPRO_NATIVE=1`` raises (with the builder's reason) when the
        compiled backend is unavailable; never silently falls back."""
        monkeypatch.setenv("REPRO_NATIVE", "1")
        monkeypatch.setattr(dispatch, "_build_cext_backend", _raise_unavailable)
        with pytest.raises(RuntimeError, match="REPRO_NATIVE=1.*unavailable for testing"):
            dispatch._resolve()

    def test_auto_falls_back_to_numpy(self, monkeypatch):
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        monkeypatch.setattr(dispatch, "_build_cext_backend", _raise_unavailable)
        assert dispatch._resolve() is NUMPY_BACKEND

    def test_unknown_value_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "turbo")
        with pytest.raises(RuntimeError, match="turbo"):
            dispatch._resolve()

    @pytest.mark.parametrize("value", ["numba", "cext"])
    def test_backend_names_are_not_env_values(self, monkeypatch, value):
        """``REPRO_NATIVE`` takes unset/``auto``, ``0``/``numpy`` and ``1``;
        a backend name (``numba`` is gone, ``cext`` is spelled ``1``) is an
        error rather than a silent fall-back to numpy."""
        monkeypatch.setenv("REPRO_NATIVE", value)
        with pytest.raises(RuntimeError, match=f"unknown REPRO_NATIVE value '{value}'"):
            dispatch._resolve()

    def test_resolve_backend_unknown_name(self):
        with pytest.raises(RuntimeError, match="unknown"):
            dispatch.resolve_backend("turbo")

    def test_probe_rejects_lying_backend(self):
        """A compiled backend whose kernels mismatch the reference must be
        rejected by the probe, not trusted."""

        class LyingKernels(NumpyKernels):
            @staticmethod
            def unique_rows(words):
                rows, inverse, counts = NumpyKernels.unique_rows(words)
                return rows, inverse, counts + 1

        with pytest.raises(AssertionError, match="unique_rows"):
            dispatch._probe_flat_kernels(LyingKernels())

    def test_probe_rejects_nan_as_less(self):
        """A tile pass that puts a NaN difference in LESS, not GREATER."""

        class NanKernels(NumpyKernels):
            @staticmethod
            def tile_plane(kinds, a, b, lookup, i0, i1, j0, j1, n_words):
                a = np.where(np.isnan(a), -np.inf, a)
                return NumpyKernels.tile_plane(kinds, a, b, lookup, i0, i1, j0, j1, n_words)

        with pytest.raises(AssertionError, match="tile_plane"):
            dispatch._probe_flat_kernels(NanKernels())

    def test_probe_rejects_broken_tall_strips(self):
        """A tile pass that gets only the n x 1 orientation wrong."""

        class TallKernels(NumpyKernels):
            @staticmethod
            def tile_plane(kinds, a, b, lookup, i0, i1, j0, j1, n_words):
                plane = NumpyKernels.tile_plane(kinds, a, b, lookup, i0, i1, j0, j1, n_words)
                return plane[::-1].copy() if i1 - i0 > j1 - j0 else plane

        with pytest.raises(AssertionError, match="tile_plane"):
            dispatch._probe_flat_kernels(TallKernels())

    @pytest.mark.skipif(
        _compiled_backend_or_none() is None,
        reason="no compiled native backend available on this host",
    )
    def test_probe_rejects_a_wrong_search_driver(self):
        """A compiled search driver whose pass bound is off by one pair."""
        from repro.native import cext
        from repro.native.build import build_library

        functions = cext.load_functions(build_library())
        kernels = cext.CKernels(functions)

        class OffByOne(cext.CextSearchWorkspace):
            def pair_search(self, bound, *args):
                return super().pair_search(bound - 1 if bound > 0 else bound, *args)

        def backend(arena):
            return dispatch.Backend(
                name=cext.NAME, kernels=kernels,
                workspace_factory=lambda *a, **k: arena(functions, *a, **k),
            )

        dispatch._probe_driver(backend(cext.CextSearchWorkspace))
        with pytest.raises(AssertionError, match="search driver"):
            dispatch._probe_driver(backend(OffByOne))

    def test_use_backend_restores_previous(self):
        before = get_backend()
        with dispatch.use_backend("numpy") as backend:
            assert backend is NUMPY_BACKEND
            assert get_backend() is NUMPY_BACKEND
        assert get_backend() is before

    def test_env_0_in_subprocess_suite(self):
        """The environment variable actually reaches the resolver (the CI
        matrix leg relies on this exact spelling)."""
        assert os.environ.get("REPRO_NATIVE") != "0" or (
            get_backend() is NUMPY_BACKEND
        )


def _raise_unavailable():
    raise RuntimeError("unavailable for testing")


def _built_library():
    from repro.native.build import build_library

    library = build_library()
    if library is None:
        pytest.skip("no C compiler on this host")
    return library


def test_ffi_binding_passes_every_probe():
    """The compiled library binds through ctypes from one signature table;
    the binding must pass the flat-kernel, workspace and search-driver
    probes."""
    from repro.native import cext

    functions = cext.load_functions(_built_library())
    assert set(functions) == set(cext._SIGNATURES)
    for name, fn in functions.items():
        assert (fn.restype, fn.argtypes) == cext._SIGNATURES[name], name

    kernels = cext.CKernels(functions)
    dispatch._probe_flat_kernels(kernels)

    def factory(*args, **kwargs):
        return cext.CextSearchWorkspace(functions, *args, **kwargs)

    dispatch._probe_workspace(factory)
    dispatch._probe_driver(
        dispatch.Backend(name=cext.NAME, kernels=kernels, workspace_factory=factory)
    )


# ---------------------------------------------------------------------------
# The probe verdict: once per built library, not once per process
# ---------------------------------------------------------------------------
_PROBES = ("_probe_flat_kernels", "_probe_workspace", "_probe_driver")

#: A fresh interpreter's first ``get_backend()``; with ``refuse`` every
#: probe raises, so only a cached verdict can resolve the compiled backend.
_RESOLVE_IN_A_FRESH_PROCESS = """
import sys
from repro.native import dispatch

def refuse(*args):
    raise AssertionError("the probe ran")

if sys.argv[1:] == ["refuse"]:
    for name in %r:
        setattr(dispatch, name, refuse)
print(dispatch.get_backend().name)
""" % (_PROBES,)


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
def probe_calls(monkeypatch):
    """Names of the probes run, in order; each still runs."""
    calls = []
    for name in _PROBES:
        def record(*args, name=name, probe=getattr(dispatch, name)):
            calls.append(name)
            return probe(*args)

        monkeypatch.setattr(dispatch, name, record)
    return calls


def _verdicts(cache):
    return sorted(cache.glob("probed-*"))


@requires_compiled
class TestProbeVerdict:
    def test_a_later_process_skips_the_probe(self, private_cache):
        """The first process probes and leaves a verdict; a second fresh
        interpreter, in which every probe raises, still resolves cext."""
        import repro

        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
        env.pop("REPRO_NATIVE", None)

        def resolve(*args):
            return subprocess.run(
                [sys.executable, "-c", _RESOLVE_IN_A_FRESH_PROCESS, *args],
                capture_output=True, text=True, env=env, timeout=120,
            ).stdout.strip()

        assert resolve("refuse") == "numpy"
        assert not _verdicts(private_cache)
        assert resolve() == "cext"
        assert len(_verdicts(private_cache)) == 1
        assert resolve("refuse") == "cext"

    @pytest.mark.parametrize("change", ["library bytes", "probed source", "numpy version"])
    def test_a_verdict_on_other_inputs_does_not_count(
        self, private_cache, probe_calls, tmp_path, monkeypatch, change
    ):
        """Each key input, changed after a verdict was published, runs every
        probe again: the library's bytes under the same name (a sanitizer
        build swapped in), the source the probe runs through, numpy."""
        extra = tmp_path / "probed.py"
        extra.write_text("VALUE = 1\n")
        sources = dispatch._probed_sources() + [extra]
        monkeypatch.setattr(dispatch, "_probed_sources", lambda: sources)
        dispatch._build_cext_backend()
        dispatch._build_cext_backend()
        assert probe_calls == list(_PROBES)
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
        assert probe_calls == list(_PROBES) * 2
        assert len(_verdicts(private_cache)) == 2

    def test_the_probed_sources_are_the_probes_python(self):
        names = {(path.parent.name, path.name) for path in dispatch._probed_sources()}
        assert {("native", "dispatch.py"), ("native", "cext.py"),
                ("native", "numpy_backend.py"), ("core", "adc_enum.py")} <= names
        assert all(path.is_file() for path in dispatch._probed_sources())

    def test_a_lying_kernel_leaves_no_verdict(self, private_cache, monkeypatch):
        from repro.native import cext

        class LyingKernels(cext.CKernels):
            def unique_rows(self, words):
                rows, inverse, counts = super().unique_rows(words)
                return rows, inverse, counts + 1

        monkeypatch.setattr(cext, "CKernels", LyingKernels)
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        assert dispatch._resolve() is NUMPY_BACKEND
        monkeypatch.setenv("REPRO_NATIVE", "1")
        with pytest.raises(RuntimeError, match="unique_rows mismatch"):
            dispatch._resolve()
        assert not _verdicts(private_cache)

    def test_a_blocked_verdict_path_still_resolves(self, private_cache, probe_calls, monkeypatch):
        """A directory where the verdict would go: the marker cannot be
        written and does not count, so every process probes, and resolution
        neither fails nor raises."""
        from repro.native import build

        library = next(private_cache.glob("kernels-*.so"))
        verdict = build.verdict_path(library, dispatch._probed_sources())
        verdict.mkdir()
        monkeypatch.setenv("REPRO_NATIVE", "1")
        assert dispatch._resolve().name == "cext"
        assert dispatch._resolve().name == "cext"
        assert probe_calls == list(_PROBES) * 2
        assert verdict.is_dir()


def test_a_cache_directory_that_cannot_be_created(tmp_path, monkeypatch):
    """``build_library`` raises the ``mkdir`` error for a cache under a
    regular file; auto resolution falls back to numpy and
    ``REPRO_NATIVE=1`` raises naming the path."""
    from repro.native.build import build_library

    _built_library()
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    cache = blocker / "kernel-cache"
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(cache))
    with pytest.raises(NotADirectoryError):
        build_library()
    monkeypatch.delenv("REPRO_NATIVE", raising=False)
    assert dispatch._resolve() is NUMPY_BACKEND
    monkeypatch.setenv("REPRO_NATIVE", "1")
    with pytest.raises(RuntimeError, match=f"REPRO_NATIVE=1.*{re.escape(str(cache))}"):
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
    dispatch._probe_flat_kernels(cext.CKernels(functions))


# ---------------------------------------------------------------------------
# Hypothesis bit-identity: compiled backend vs numpy reference
# ---------------------------------------------------------------------------
@requires_compiled
class TestCompiledBitIdentity:
    """Every ported flat kernel, fuzzed against the numpy reference."""

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_intersection_counts(self, data):
        """The C driver's root overlap counts (``adc_intersection_counts``,
        over up to four words of predicates) steer evidence selection and
        the WillCover prune: its outputs and search-tree counters must
        match the Python driver over the numpy arena."""
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

        assert run(_compiled_backend_or_none()) == run("numpy")

    @settings(max_examples=50, deadline=None)
    @given(
        subsets=st.lists(st.integers(min_value=0, max_value=(1 << 40) - 1), max_size=70),
        n_elements=st.integers(min_value=1, max_value=40),
        selection=st.sampled_from([0, 1, 2]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_crit_apply_undo(self, subsets, n_elements, selection, seed):
        """The compiled criticality push (``adc_crit_apply`` inside
        ``try_hit``) and pop (``adc_crit_undo``) walk the same random path
        as the numpy workspace, bit for bit, each checked against the set
        model of :func:`tests.reference.criticality_walk`."""
        import random

        from repro.core.adc_enum import ADCEnum
        from repro.core.approximation import F1
        from tests.reference import criticality_walk, family_evidence

        subsets = [subset & ((1 << n_elements) - 1) for subset in subsets]
        evidence = family_evidence(subsets, n_elements)

        def walk(backend):
            with dispatch.use_backend(backend):
                workspace = ADCEnum(evidence, F1(), 0.0)._get_workspace()
            return criticality_walk(workspace, evidence, random.Random(seed), 40, selection)

        assert walk(_compiled_backend_or_none()) == walk("numpy")

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
        kernels = _compiled_backend_or_none().kernels
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
        kernels = _compiled_backend_or_none().kernels
        for theirs, ours in zip(kernels.unique_rows(rows), NumpyKernels.unique_rows(rows)):
            assert np.array_equal(theirs, ours)

    def test_unique_rows_past_the_initial_table(self):
        """More distinct rows than the kernel's initial table holds: the
        table keeps growing."""
        rng = np.random.default_rng(3)
        distinct = rng.integers(0, 2**64, size=(5000, 2), dtype=np.uint64)
        rows = distinct[rng.integers(0, len(distinct), size=20_000)]
        kernels = _compiled_backend_or_none().kernels
        for theirs, ours in zip(kernels.unique_rows(rows), NumpyKernels.unique_rows(rows)):
            assert np.array_equal(theirs, ours)
            assert theirs.dtype == ours.dtype

    def test_unique_rows_past_the_kernel_row_limit(self, monkeypatch):
        """A plane longer than the kernel's uint32 table slots can index
        takes the numpy reference path."""
        from repro.native import cext

        monkeypatch.setattr(cext, "_MAX_DEDUP_ROWS", 10)
        rows = np.random.default_rng(4).integers(0, 3, size=(50, 2)).astype(np.uint64)
        kernels = _compiled_backend_or_none().kernels
        for theirs, ours in zip(kernels.unique_rows(rows), NumpyKernels.unique_rows(rows)):
            assert np.array_equal(theirs, ours)

    @pytest.mark.parametrize(
        "function, epsilon",
        [("f1", 0.15), ("f2", 0.15), ("f1'", 0.6)],
    )
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_search_workspace_lockstep(self, function, epsilon, seed):
        """The compiled search arena mirrors the numpy arena through a full
        randomized enumeration.  f1 runs the compiled backend's C driver;
        f2 and f1' at epsilon 0.6 (no integer pass bound) run the Python
        driver over the compiled arena's per-node operations."""
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

        assert run(_compiled_backend_or_none()) == run("numpy")
