"""Native-speed kernel layer.

Compiled implementations of the enumeration and evidence-build hot paths —
the intersection-count kernel, the criticality planes, the per-tile
predicate pass, the one-call fold of a tile list, and the explicit-stack
search arena — behind a
feature-detected dispatch (:mod:`repro.native.dispatch`).  The pure-numpy
reference (:mod:`repro.native.numpy_backend`) defines the semantics; a
compiled backend is only used after reproducing it bit for bit on a probe.

There is one compiled backend, the C extension (:mod:`repro.native.cext`,
built from ``csrc/kernels.c``); the numpy reference is both its oracle and
its fallback.  The probe runs once per built library: its verdict is
cached beside the library, keyed on the library's bytes, the probed Python
source, the numpy and Python versions and the CPU, and deleting the cache
directory forces a new probe.  ``REPRO_NATIVE`` selects between them:

====================  =====================================================
``REPRO_NATIVE``      backend
====================  =====================================================
unset / ``auto``      C extension if it builds and passes the probe, else
                      numpy
``0`` / ``numpy``     numpy
``1``                 C extension, or :class:`RuntimeError`
====================  =====================================================
"""

from repro.native.dispatch import (
    Backend,
    NUMPY_BACKEND,
    get_backend,
    resolve_backend,
    set_backend,
    use_backend,
)
from repro.native.numpy_backend import (
    DESCENDED,
    PRUNED,
    SELECT_MAX,
    SELECT_MIN,
    SELECT_RANDOM,
    NumpyKernels,
    NumpySearchWorkspace,
    selection_code,
)

__all__ = [
    "Backend",
    "NUMPY_BACKEND",
    "get_backend",
    "resolve_backend",
    "set_backend",
    "use_backend",
    "DESCENDED",
    "PRUNED",
    "SELECT_MAX",
    "SELECT_MIN",
    "SELECT_RANDOM",
    "NumpyKernels",
    "NumpySearchWorkspace",
    "selection_code",
]
