"""Native-speed kernel layer.

Compiled implementations of the enumeration and evidence-build hot paths —
popcount/intersection kernels, the criticality planes, the per-tile
predicate pass, and the explicit-stack search arena — behind a
feature-detected dispatch (:mod:`repro.native.dispatch`).  The pure-numpy
reference (:mod:`repro.native.numpy_backend`) defines the semantics; a
compiled backend is only used after reproducing it bit for bit on a probe.

There is one compiled backend, the C extension (:mod:`repro.native.cext`,
built from ``csrc/kernels.c``); the numpy reference is both its oracle and
its fallback.  ``REPRO_NATIVE`` selects between them:

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
    REPLAYED,
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
    "REPLAYED",
    "SELECT_MAX",
    "SELECT_MIN",
    "SELECT_RANDOM",
    "NumpyKernels",
    "NumpySearchWorkspace",
    "selection_code",
]
