"""The golden self-check of :mod:`repro.native.selfcheck`.

The committed digests are the numpy reference's outputs on the check's
fixed inputs, regenerated here; the compiled backend reproduces them; the
inputs draw on no random stream; and the serialization keeps dtype, shape
and byte order.  The mutant kernels the check must reject are in
``tests/test_native_dispatch.py``.
"""

from __future__ import annotations

import numpy as np

from repro.native import get_backend, selfcheck
from tests.numpy_backend import NUMPY_BACKEND


class TestSelfCheck:
    def test_the_golden_digests_are_the_numpy_references(self):
        """Each committed digest, regenerated through the numpy reference
        of ``tests/``: a change to a check's inputs or to the kernels'
        contract must move both together."""
        assert selfcheck.digests(NUMPY_BACKEND) == selfcheck.GOLDEN

    def test_the_compiled_backend_passes(self):
        assert selfcheck.digests(get_backend()) == selfcheck.GOLDEN

    def test_each_check_names_its_kernel(self):
        """A mismatch names the check that failed, whichever it is."""
        assert [name for name, _ in selfcheck.CHECKS] == list(selfcheck.GOLDEN) == [
            "tile_plane", "fold_tiles", "unique_rows", "search driver",
        ]

    def test_the_digest_serializes_dtype_shape_and_byte_order(self):
        """Little-endian bytes with the dtype and shape: a big-endian copy
        of an array digests as the array does; the same bytes under another
        dtype or shape do not."""
        words = np.arange(6, dtype=np.uint64)
        digest = selfcheck._digest
        assert digest([words]) == digest([words.astype(">u8")])
        assert digest([words]) != digest([words.view(np.int64)])
        assert digest([words]) != digest([words.reshape(2, 3)])
        assert digest([None]) != digest([np.zeros(0)])

    def test_the_inputs_draw_on_no_random_stream(self, monkeypatch):
        """A numpy release that changes its generators cannot move a
        golden digest: no check calls one."""

        def no_stream(*args, **kwargs):
            raise AssertionError("the self-check drew on a random stream")

        for name in ("default_rng", "RandomState", "seed"):
            monkeypatch.setattr(np.random, name, no_stream)
        assert selfcheck.digests(get_backend()) == selfcheck.GOLDEN
