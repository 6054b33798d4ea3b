"""Paths, child-process environment, the op log and the server handle."""

from __future__ import annotations

import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

from tracing import clock

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Everything the benchmark writes lives here, inside the checkout.
BUILD = ROOT / ".bench_build" / "perfbench"

#: The kernel backend the committed baseline was measured with.  A run that
#: resolves another one fails instead of reporting the fallback as a
#: regression.
EXPECTED_BACKEND = "cext"


def child_env() -> dict[str, str]:
    """Environment of every process the benchmark starts (and of itself)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_NATIVE_CACHE"] = str(BUILD / "native")
    env["TMPDIR"] = str(BUILD / "tmp")
    return env


def prepare_environment() -> None:
    """Point this process and its children at the checkout's source and build dir."""
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ.update(child_env())
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def digest(items: object) -> str:
    """Stable short digest of a JSON-able value (a DC list, say)."""
    return hashlib.sha256(json.dumps(items, sort_keys=True).encode()).hexdigest()[:16]


def vmhwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size of a process, from ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


class OpLog:
    """Every client op with its outcome; timed ops keep their interval.

    ``call`` counts the op as attempted and, if it raises one of the
    failures a client can see (an error frame, a timeout, a refused or
    dropped connection), as failed.  A failed op has no latency: it is
    missing from every percentile, not fast.
    """

    def __init__(self) -> None:
        self.timed: list[tuple[str, float, float]] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, kind: str, fn, *args, start: float | None = None, **kwargs):
        """Run ``fn``; its interval begins at ``start`` when given (a restart
        is timed from the kill, not from the read that proves it)."""
        from repro.serve.protocol import ServeError, ServeTimeout

        self.attempted += 1
        if start is None:
            start = clock()
        try:
            result = fn(*args, **kwargs)
        except (ServeError, ServeTimeout, ConnectionError, OSError) as error:
            self.failed += 1
            self.errors.append(f"{kind}: {type(error).__name__}: {error}")
            return None
        self.timed.append((kind, start, clock()))
        return result

    def seconds(self, kind: str) -> list[float]:
        return [end - start for k, start, end in self.timed if k == kind]


class Server:
    """One ``python -m repro.serve`` process (or its traced launcher)."""

    def __init__(self, args: list[str], spans_file: Path | None = None) -> None:
        if spans_file is None:
            command = [sys.executable, "-m", "repro.serve"]
        else:
            command = [sys.executable, str(BENCH_DIR / "traced_server.py"), str(spans_file)]
        self.spans_file = spans_file
        started = clock()
        self.log_path = BUILD / "server.log"
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                [*command, "--listen", "127.0.0.1:0", "--log-level", "error", *args],
                stdout=subprocess.PIPE, stderr=log, env=child_env(), cwd=ROOT, text=True,
            )
        banner = self.proc.stdout.readline()
        match = re.search(r"listening on ([\d.]+):(\d+)", banner)
        if not match:
            self.kill()
            raise RuntimeError(f"server did not start; see {self.log_path}")
        self.host, self.port = match.group(1), int(match.group(2))
        self.boot_seconds = clock() - started

    def peak_rss_mb(self) -> float:
        return vmhwm_mb(self.proc.pid)

    def dump_spans(self, timeout: float = 60.0) -> None:
        """Have a traced server write its spans now (before a SIGKILL)."""
        self.spans_file.unlink(missing_ok=True)
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + timeout
        while not self.spans_file.exists():
            if time.monotonic() > deadline:
                raise RuntimeError("traced server did not dump its spans")
            time.sleep(0.01)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()

    def stop(self) -> None:
        """Graceful SIGTERM drain; SIGKILL if it does not finish in time."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                pass
        self.kill()
