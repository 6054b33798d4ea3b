"""Dispatch semantics and bit-identity of the native kernel layer.

Two families of guarantees:

* ``REPRO_NATIVE`` resolution — ``0`` forces numpy, ``1`` requires the
  compiled C backend (clean :class:`RuntimeError` when it does not build),
  auto never raises.
* Bit identity — every ported kernel produces byte-for-byte the numpy
  reference's output under whichever compiled backend resolved, on
  hypothesis-generated inputs (the dispatch probe checks one deterministic
  input; these tests fuzz the same contract).
"""

from __future__ import annotations

import os

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
            def popcount(words):
                return NumpyKernels.popcount(words) + 1

        with pytest.raises(AssertionError, match="popcount"):
            dispatch._probe_flat_kernels(LyingKernels())

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


# ---------------------------------------------------------------------------
# Hypothesis bit-identity: compiled backend vs numpy reference
# ---------------------------------------------------------------------------
words_arrays = st.integers(min_value=0, max_value=2**64 - 1)


@requires_compiled
class TestCompiledBitIdentity:
    """Every ported flat kernel, fuzzed against the numpy reference."""

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_popcount(self, data):
        n = data.draw(st.integers(min_value=1, max_value=200))
        words = np.array(
            data.draw(st.lists(words_arrays, min_size=n, max_size=n)),
            dtype=np.uint64,
        )
        kernels = _compiled_backend_or_none().kernels
        assert np.array_equal(kernels.popcount(words), NumpyKernels.popcount(words))

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_intersection_counts(self, data):
        n_words = data.draw(st.integers(min_value=1, max_value=4))
        n_cols = data.draw(st.integers(min_value=1, max_value=40))
        seed = data.draw(st.integers(min_value=0, max_value=2**31))
        rng = np.random.default_rng(seed)
        ev = rng.integers(0, 2**64, size=(n_words, n_cols), dtype=np.uint64)
        mask = rng.integers(0, 2**64, size=n_words, dtype=np.uint64)
        kernels = _compiled_backend_or_none().kernels
        theirs = np.asarray(kernels.intersection_counts(ev, mask), dtype=np.int64)
        ours = np.asarray(NumpyKernels.intersection_counts(ev, mask), dtype=np.int64)
        assert np.array_equal(theirs, ours)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_crit_apply_undo(self, data):
        n_words = data.draw(st.integers(min_value=1, max_value=3))
        depth = data.draw(st.integers(min_value=0, max_value=6))
        seed = data.draw(st.integers(min_value=0, max_value=2**31))
        rng = np.random.default_rng(seed)
        rows_a = rng.integers(1, 2**64, size=(depth + 1, n_words), dtype=np.uint64)
        rows_b = rows_a.copy()
        new_row = rng.integers(0, 2**64, size=n_words, dtype=np.uint64)
        covers = rng.integers(0, 2**64, size=n_words, dtype=np.uint64)
        kernels = _compiled_backend_or_none().kernels
        viable_a, removed_a = kernels.crit_apply(rows_a, depth, new_row, covers)
        viable_b, removed_b = NumpyKernels.crit_apply(rows_b, depth, new_row, covers)
        assert viable_a == viable_b
        assert np.array_equal(rows_a, rows_b)
        kernels.crit_undo(rows_a, depth, removed_a)
        NumpyKernels.crit_undo(rows_b, depth, removed_b)
        assert np.array_equal(rows_a, rows_b)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_tile_plane(self, data):
        n_groups = data.draw(st.integers(min_value=0, max_value=4))
        n_rows = data.draw(st.integers(min_value=1, max_value=12))
        n_words = data.draw(st.integers(min_value=1, max_value=3))
        seed = data.draw(st.integers(min_value=0, max_value=2**31))
        rng = np.random.default_rng(seed)
        kinds = rng.integers(0, 3, size=n_groups).astype(np.int32)
        a = np.zeros((n_groups, n_rows), dtype=np.float64)
        b = np.zeros((n_groups, n_rows), dtype=np.float64)
        for g in range(n_groups):
            if kinds[g] == 0:
                a[g] = rng.integers(0, 3, size=n_rows)
            else:
                a[g] = rng.integers(-3, 4, size=n_rows)
                b[g] = rng.integers(-3, 4, size=n_rows)
        lookup = rng.integers(0, 2**64, size=(n_groups, 3, n_words), dtype=np.uint64)
        i0 = data.draw(st.integers(min_value=0, max_value=n_rows - 1))
        i1 = data.draw(st.integers(min_value=i0 + 1, max_value=n_rows))
        j0 = data.draw(st.integers(min_value=0, max_value=n_rows - 1))
        j1 = data.draw(st.integers(min_value=j0 + 1, max_value=n_rows))
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
        seed = data.draw(st.integers(min_value=0, max_value=2**31))
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, domain, size=(n, n_words)).astype(np.uint64)
        kernels = _compiled_backend_or_none().kernels
        for theirs, ours in zip(kernels.unique_rows(rows), NumpyKernels.unique_rows(rows)):
            assert np.array_equal(theirs, ours)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_search_workspace_lockstep(self, seed):
        """The compiled search arena mirrors the numpy arena through a full
        randomized enumeration (driven by the real ADCEnum driver)."""
        from tests.conftest import make_random_relation
        from repro.core.adc_enum import ADCEnum
        from repro.core.approximation import F1
        from repro.core.evidence_builder import build_evidence_set
        from repro.core.predicate_space import build_predicate_space

        relation = make_random_relation(n_rows=6, seed=seed)
        space = build_predicate_space(relation)
        evidence = build_evidence_set(relation, space, include_participation=True)

        def run(backend):
            with dispatch.use_backend(backend):
                enum = ADCEnum(evidence, F1(), 0.15, max_dc_size=3)
                return [
                    (adc.hitting_set_mask, adc.violation_score)
                    for adc in enum.enumerate()
                ]

        assert run(_compiled_backend_or_none()) == run("numpy")
