"""The kernel backend: the compiled C library, checked once per build.

The one backend is the C extension (:mod:`repro.native.cext`), resolved
lazily at a process's first :func:`get_backend`.  A library that does not
build, or fails the golden self-check (:mod:`repro.native.selfcheck`),
raises :class:`RuntimeError` naming the cause: there is no fallback.

The check runs once per built library, not once per process: a library
that passes gets an empty verdict file beside it in the kernel cache
(:func:`repro.native.build.verdict_path`), and later processes that find
it skip the check.  The verdict's key covers the library's bytes, the source
of every module the check runs through (this package and the
``repro.core`` modules in :data:`_PROBED_CORE_MODULES`), the numpy and
Python versions, and the machine and CPU.  A rejected library leaves no
verdict.

:class:`Backend`, :func:`set_backend` and :func:`use_backend` are the seam
through which the tests swap in the numpy reference
(``tests/numpy_backend.py``).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator


@dataclass(frozen=True)
class Backend:
    """One kernel provider.

    ``kernels`` carries the flat kernels (tile pass, tile fold, row dedup);
    ``workspace_factory`` builds a search workspace over one evidence set,
    whose ``search`` runs a whole ADCEnum search.
    """

    name: str
    kernels: object
    workspace_factory: Callable[..., object]


#: The modules of ``repro.core`` the self-check runs through besides this
#: package.  A cached verdict is keyed on their source and on every module
#: of ``repro.native``, so an edit to any of them forces a new check.
_PROBED_CORE_MODULES = (
    "adc_enum.py", "approximation.py", "bitset.py", "dc.py", "evidence.py",
    "operators.py", "predicate_space.py", "predicates.py",
)


def _probed_sources() -> list[Path]:
    native = Path(__file__).resolve().parent
    core = native.parent / "core"
    return sorted(native.glob("*.py")) + [core / name for name in _PROBED_CORE_MODULES]


def _build_cext_backend() -> Backend:
    from repro.native import cext
    from repro.native.build import build_library, publish_verdict, verdict_path

    library = build_library()
    if library is None:
        raise RuntimeError("no C compiler could build the kernel library")
    functions = cext.load_functions(library)

    def factory(*args, **kwargs):
        return cext.CextSearchWorkspace(functions, *args, **kwargs)

    backend = Backend(
        name=cext.NAME, kernels=cext.CKernels(functions), workspace_factory=factory
    )
    verdict = verdict_path(library, _probed_sources())
    if verdict is None or not verdict.is_file():
        from repro.native import selfcheck

        selfcheck.check(backend)
        if verdict is not None:
            publish_verdict(verdict)
    return backend


def _resolve() -> Backend:
    try:
        return _build_cext_backend()
    except Exception as error:
        raise RuntimeError(f"the compiled kernel backend is unavailable: {error}") from error


_active: Backend | None = None


def get_backend() -> Backend:
    """The process-wide backend (resolved lazily, then cached)."""
    global _active
    if _active is None:
        _active = _resolve()
    return _active


def set_backend(backend: Backend | None) -> None:
    """Override the active backend (``None`` re-resolves lazily)."""
    global _active
    _active = backend


@contextlib.contextmanager
def use_backend(backend: Backend | None) -> Iterator[Backend]:
    """Temporarily swap the active backend (tests and benchmarks)."""
    previous = _active
    set_backend(backend)
    try:
        yield get_backend()
    finally:
        set_backend(previous)
