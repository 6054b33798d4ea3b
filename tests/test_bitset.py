"""Tests for the packed uint64 bitset primitives of the word-native core.

Besides the primitives of :mod:`repro.core.bitset` and the Python-int
converters of :mod:`repro.core.evidence`, this module checks the packed
criticality planes the search workspace keeps (``try_hit`` pushes,
``crit_pop`` undoes) against a set model.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.adc_enum import ADCEnum
from repro.core.approximation import F1

from repro.core.bitset import (
    full_bits,
    n_words_for_bits,
    pack_bool_rows,
    popcount,
    unpack_bits,
)
from repro.core.evidence import masks_to_words, words_to_mask
from repro.core.predicate_space import iter_bits
from repro.native import dispatch
from repro.native.numpy_backend import DESCENDED, PRUNED, SELECT_MAX
from tests.reference import criticality_walk, family_evidence


class TestPrimitives:
    def test_n_words_for_bits(self):
        assert n_words_for_bits(0) == 1
        assert n_words_for_bits(1) == 1
        assert n_words_for_bits(64) == 1
        assert n_words_for_bits(65) == 2
        assert n_words_for_bits(128) == 2
        assert n_words_for_bits(129) == 3

    @pytest.mark.parametrize("n_bits", [0, 1, 7, 63, 64, 65, 130])
    def test_pack_unpack_roundtrip(self, n_bits):
        rng = np.random.default_rng(n_bits)
        matrix = rng.random((5, n_bits)) > 0.5
        packed = pack_bool_rows(matrix)
        assert packed.dtype == np.uint64
        assert packed.shape == (5, n_words_for_bits(n_bits))
        assert np.array_equal(unpack_bits(packed, n_bits), matrix)

    def test_pack_requires_2d(self):
        with pytest.raises(ValueError):
            pack_bool_rows(np.zeros(4, dtype=bool))

    def test_pack_bit_layout_matches_word_convention(self):
        # Bit b lives at word b // 64, bit b % 64.
        matrix = np.zeros((1, 130), dtype=bool)
        matrix[0, [0, 63, 64, 129]] = True
        packed = pack_bool_rows(matrix)
        assert int(packed[0, 0]) == (1 << 0) | (1 << 63)
        assert int(packed[0, 1]) == 1 << 0
        assert int(packed[0, 2]) == 1 << 1

    @pytest.mark.parametrize("n_bits", [1, 64, 65, 129])
    def test_indices_bits_roundtrip(self, n_bits):
        rng = np.random.default_rng(n_bits)
        indices = np.unique(rng.integers(0, n_bits, size=min(10, n_bits)))
        matrix = np.zeros((1, n_bits), dtype=bool)
        matrix[0, indices] = True
        row = pack_bool_rows(matrix)[0]
        assert np.array_equal(np.flatnonzero(unpack_bits(row, n_bits)), indices)
        mask = words_to_mask(row)
        assert list(iter_bits(mask)) == indices.tolist()
        assert np.array_equal(masks_to_words([mask], row.size)[0], row)

    @pytest.mark.parametrize("n_bits", [0, 1, 63, 64, 65, 128, 200])
    def test_full_bits(self, n_bits):
        row = full_bits(n_bits)
        assert row.shape == (n_words_for_bits(n_bits),)
        # The first n_bits bits are set and no tail bit beyond them.
        assert np.array_equal(unpack_bits(row, row.size * 64),
                              np.arange(row.size * 64) < n_bits)

    def test_popcount_matches_python(self):
        rng = np.random.default_rng(0)
        words = rng.integers(0, 2 ** 63, size=(4, 3)).astype(np.uint64)
        expected = np.vectorize(lambda w: bin(int(w)).count("1"))(words)
        assert np.array_equal(popcount(words).astype(np.int64), expected)

    def test_set_bit(self):
        # A Python-int mask's bit b lands at word b // 64, bit b % 64.
        row = masks_to_words([(1 << 3) | (1 << 64)], 2)[0]
        assert int(row[0]) == 8 and int(row[1]) == 1
        assert words_to_mask(row) == (1 << 3) | (1 << 64)

    def test_word_bits_list_empty(self):
        row = np.zeros(2, dtype=np.uint64)
        assert not unpack_bits(row, 128).any()
        assert list(iter_bits(words_to_mask(row))) == []


def _root_workspace(subsets, n_elements):
    """A numpy search workspace over a set family, its root loaded."""
    evidence = family_evidence(subsets, n_elements)
    with dispatch.use_backend("numpy"):
        workspace = ADCEnum(evidence, F1(), 0.0)._get_workspace()
    n = workspace.init_root()
    assert workspace.expand(0, n, SELECT_MAX, 0)[0] == 0  # evidence 0 first
    return workspace, n


def _crit(workspace, n_evidences):
    return [
        np.flatnonzero(unpack_bits(row, n_evidences)).tolist()
        for row in workspace.crit_active_rows()
    ]


class TestCriticalityPlanes:
    """Element ``j`` of a family is predicate ``2j`` (``family_evidence``).

    Both families start at evidence 0 = {0, 1}: the root tries element 0,
    then element 1 (predicate 2), whose child reaches evidence 1 = {0, 2}
    with element 0 a candidate again.
    """

    def _hit_element_one(self, workspace, n):
        k = workspace.hit_prepare(0, n, 2)
        assert workspace.elements_list(0, k) == [0, 2]
        assert workspace.try_hit(0, n, 0)[0] == DESCENDED
        workspace.crit_pop()
        status, element, child, _ = workspace.try_hit(0, n, 1)
        assert (status, element) == (DESCENDED, 2)
        assert workspace.expand(1, child, SELECT_MAX, 0)[0] == 0
        assert workspace.hit_prepare(1, child, 2) == 2
        assert workspace.elements_list(1, 2) == [0, 4]
        return child

    def test_apply_reports_viability(self):
        workspace, n = _root_workspace([0b011, 0b101], 3)
        child = self._hit_element_one(workspace, n)
        assert _crit(workspace, 2) == [[0]]
        # Element 0 covers evidence 0, all element 1 was critical for.
        assert workspace.try_hit(1, child, 0)[:2] == (PRUNED, 0)
        assert _crit(workspace, 2) == [[0]]
        # Element 2 covers only evidence 1: viable.
        assert workspace.try_hit(1, child, 1)[:2] == (DESCENDED, 4)
        assert _crit(workspace, 2) == [[0], [1]]
        workspace.crit_pop()
        assert _crit(workspace, 2) == [[0]]
        workspace.crit_pop()
        assert workspace.crit_depth == 0

    def test_partial_overlap_stays_viable(self):
        workspace, n = _root_workspace([0b0011, 0b0101, 0b1010], 4)
        child = self._hit_element_one(workspace, n)
        assert _crit(workspace, 3) == [[0, 2]]
        assert workspace.try_hit(1, child, 0)[:2] == (DESCENDED, 0)
        assert _crit(workspace, 3) == [[2], [1]]

    def test_pop_restores_member_rows(self):
        workspace, n = _root_workspace([0b0011, 0b0101, 0b1010], 4)
        child = self._hit_element_one(workspace, n)
        workspace.try_hit(1, child, 0)
        workspace.crit_pop()
        assert _crit(workspace, 3) == [[0, 2]]

    @settings(max_examples=60, deadline=None)
    @given(
        subsets=st.lists(st.integers(min_value=0, max_value=(1 << 40) - 1), max_size=70),
        n_elements=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_apply_undo_roundtrip_matches_set_model(self, subsets, n_elements, seed):
        """Packed criticality bookkeeping is exactly the dict-of-sets model.

        A random walk of pushes and pops through the numpy workspace is
        mirrored against a naive ``list[set[int]]`` model after every
        operation, and a final unwind must restore the empty state: the
        round-trip property the search relies on when backtracking.  Up to
        70 evidences spread the rows over two words.
        """
        subsets = [subset & ((1 << n_elements) - 1) for subset in subsets]
        evidence = family_evidence(subsets, n_elements)
        with dispatch.use_backend("numpy"):
            workspace = ADCEnum(evidence, F1(), 0.0)._get_workspace()
        criticality_walk(workspace, evidence, random.Random(seed), steps=40)
