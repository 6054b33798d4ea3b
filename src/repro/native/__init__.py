"""Native-speed kernel layer.

Compiled implementations of the enumeration and evidence-build hot paths —
the per-tile predicate pass, the one-call fold of a tile list, the row
dedup, and the explicit-stack ADCEnum search driver.  There
is one backend, the C extension (:mod:`repro.native.cext`, built from
``csrc/kernels.c`` with the host's C compiler by :mod:`repro.native.build`).
The library requires it: a host whose build fails gets a
:class:`RuntimeError` from the first :func:`get_backend`, naming the cause.

A new library is trusted only after a golden self-check
(:mod:`repro.native.selfcheck`): fixed inputs through every flat kernel
and whole searches, whose output digests must equal
committed constants.  The check runs once per built library: its verdict
is cached beside the library, keyed on the library's bytes, the checked
Python source, the numpy and Python versions and the CPU, and deleting the
cache directory (``~/.cache/repro-native/`` or ``$REPRO_NATIVE_CACHE``)
forces a new build and check.

The pure-numpy twin of the kernels is a test oracle and lives with the
tests (``tests/numpy_backend.py``); :func:`use_backend` swaps it in.
"""

from repro.native.dispatch import Backend, get_backend, set_backend, use_backend

__all__ = ["Backend", "get_backend", "set_backend", "use_backend"]
