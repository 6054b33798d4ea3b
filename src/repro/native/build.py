"""Build the compiled kernel library from the bundled C source.

The native backend ships as plain C (``csrc/kernels.c``) compiled on first
use with whatever C compiler the host has — no build-time dependency, no
wheel.  The shared object is cached under ``~/.cache/repro-native/`` (or
``$REPRO_NATIVE_CACHE``) keyed by a hash of the source text and the compile
command, so a source edit or flag change triggers exactly one rebuild and
every later import is a single ``dlopen``.

Beside each library the cache keeps the self-check's verdict on it: an
empty file named by :func:`verdict_path`, a hash of the library's bytes,
the Python the check runs through, the numpy and Python versions, and the
machine and CPU.  The check therefore runs once per built library on one
host and installation, not once per process; deleting the cache directory
forces a new build and a new check.

Compilation failures never raise out of :func:`build_library`: it returns
``None``, and the dispatch layer raises a :class:`RuntimeError` saying
that no compiler could build the library.  A cache directory that cannot
be created does raise (:class:`OSError`), and the dispatch layer wraps
that in the same :class:`RuntimeError`, naming the path.
"""

from __future__ import annotations

import hashlib
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Iterable

import numpy as np

SOURCE_PATH = Path(__file__).resolve().parent / "csrc" / "kernels.c"

#: Flags tried in order; the first command that compiles wins.  The
#: ``-march=native`` variant unlocks hardware popcount on x86; the plain
#: variant is the portable fallback for compilers that reject the flag.
_FLAG_SETS = (
    ["-O3", "-march=native", "-fPIC", "-shared", "-fno-math-errno"],
    ["-O3", "-fPIC", "-shared"],
)

_COMPILERS = ("cc", "gcc", "clang")


def cache_dir() -> Path:
    """Directory holding compiled kernel libraries."""
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return Path(override)
    return Path(os.environ.get("XDG_CACHE_HOME", Path.home() / ".cache")) / "repro-native"


def _library_path(source: str, command: list[str]) -> Path:
    digest = hashlib.sha256()
    digest.update(source.encode())
    digest.update("\0".join(command).encode())
    return cache_dir() / f"kernels-{digest.hexdigest()[:16]}.so"


def _compile(compiler: str, flags: list[str], source: str) -> Path | None:
    command = [compiler, *flags]
    target = _library_path(source, command)
    if target.exists():
        return target
    target.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=target.parent) as work:
        source_file = Path(work) / "kernels.c"
        source_file.write_text(source)
        out_file = Path(work) / "kernels.so"
        try:
            result = subprocess.run(
                [*command, str(source_file), "-o", str(out_file)],
                capture_output=True,
                timeout=120,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        if result.returncode != 0 or not out_file.exists():
            return None
        # Atomic publish: concurrent builders race to the same content-keyed
        # name, so whichever rename lands last wins with identical bytes.
        os.replace(out_file, target)
    return target


def build_library() -> Path | None:
    """Compile (or fetch from cache) the kernel library.

    ``None`` when there is no compiler or compilation fails.  When the
    cache directory cannot be created (``$REPRO_NATIVE_CACHE`` under a
    regular file, say) the :class:`OSError` of ``mkdir`` propagates, naming
    the path.
    """
    try:
        source = SOURCE_PATH.read_text()
    except OSError:
        return None
    for compiler in _COMPILERS:
        if shutil.which(compiler) is None:
            continue
        for flags in _FLAG_SETS:
            library = _compile(compiler, list(flags), source)
            if library is not None:
                return library
    return None


#: ``/proc/cpuinfo`` fields naming the CPU model and its instruction set
#: (x86 and ARM spellings): the library is built with ``-march=native``.
_CPU_FIELDS = ("vendor_id", "model name", "flags", "CPU implementer", "CPU part", "Features")


def _cpu_identity() -> bytes:
    """The host CPU's model and flags, one line each; empty where
    ``/proc/cpuinfo`` is unreadable."""
    try:
        with open("/proc/cpuinfo") as handle:
            lines = {
                line.strip() for line in handle
                if line.split(":", 1)[0].strip() in _CPU_FIELDS
            }
    except OSError:
        return b""
    return "\n".join(sorted(lines)).encode()


def verdict_path(library: Path, sources: Iterable[Path]) -> Path | None:
    """Where the self-check's verdict on ``library`` is cached.

    The name is a sha256 over the library's bytes (not its name: a library
    swapped in under the same name gets its own check), each of ``sources``
    (the Python the check runs through), the numpy and Python versions, the
    machine and the CPU model and flags.  ``None`` when a library or source
    file cannot be read: then no verdict is kept and every process checks.
    """
    digest = hashlib.sha256()
    try:
        for path in (library, *sources):
            digest.update(hashlib.sha256(path.read_bytes()).digest())
    except OSError:
        return None
    for part in (np.__version__, sys.version, platform.machine()):
        digest.update(part.encode() + b"\0")
    digest.update(_cpu_identity())
    return cache_dir() / f"probed-{digest.hexdigest()[:32]}"


def publish_verdict(path: Path) -> None:
    """Record that the library keyed by ``path`` passed the self-check.

    The marker is empty, so creating it is the whole publication: no
    process can see a partial one.  A marker that cannot be written is not
    an error; the next process checks again.
    """
    try:
        os.close(os.open(path, os.O_CREAT | os.O_WRONLY, 0o644))
    except OSError:
        pass
