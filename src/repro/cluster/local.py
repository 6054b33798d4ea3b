"""One-call local clusters: a coordinator plus n workers on this machine.

:class:`LocalCluster` is the deployment helper behind
``build_evidence_set(method="cluster", cluster=LocalCluster(4))`` and the
examples/benchmarks: it stands up a :class:`ClusterCoordinator` and spawns
``n_workers`` workers against it, either as

* ``transport="socket"`` — real ``python -m repro.cluster.worker``
  subprocesses connecting over localhost TCP, the same code path a
  multi-machine deployment runs (and what the chaos tests SIGKILL), or
* ``transport="local"`` — in-process worker threads over
  :class:`~repro.cluster.transport.LocalTransport` queue pairs: no fork, no
  ports, but every message still round-trips through pickle, so the test
  suite exercises the full serialization surface cheaply.

``use_shm=True`` makes workers return shared-memory handles instead of
pickling partials through the link (:mod:`repro.cluster.shm`).
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import repro
from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.transport import LocalTransport


def _worker_environment() -> dict[str, str]:
    """Subprocess env whose ``PYTHONPATH`` can import this ``repro``."""
    source_root = str(Path(repro.__file__).resolve().parents[1])
    environment = dict(os.environ)
    existing = environment.get("PYTHONPATH")
    environment["PYTHONPATH"] = (
        source_root if not existing else f"{source_root}{os.pathsep}{existing}"
    )
    return environment


class LocalCluster:
    """A coordinator plus ``n_workers`` same-machine workers.

    Parameters
    ----------
    n_workers:
        Workers to spawn (must be positive).
    transport:
        ``"socket"`` (worker subprocesses over localhost TCP, the default)
        or ``"local"`` (in-process worker threads over queue pairs).
    use_shm:
        Return partial evidence sets via shared memory instead of pickling
        them through the link.
    task_timeout:
        Straggler re-issue timeout forwarded to the coordinator.
    context_timeout:
        Context-install liveness bound forwarded to the coordinator;
        raise it when a legitimately huge context takes over a minute to
        ship and unpickle (``None`` disables the bound).
    connect_timeout:
        Seconds to wait for all socket workers to dial in.
    """

    def __init__(
        self,
        n_workers: int,
        transport: str = "socket",
        use_shm: bool = False,
        task_timeout: float | None = None,
        context_timeout: float | None = 60.0,
        connect_timeout: float = 30.0,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be positive")
        if transport not in ("socket", "local"):
            raise ValueError(f"unknown transport {transport!r} (socket or local)")
        self.transport = transport
        self.use_shm = bool(use_shm)
        self.coordinator = ClusterCoordinator(
            task_timeout=task_timeout, context_timeout=context_timeout
        )
        self.processes: list[subprocess.Popen] = []
        self._threads: list[threading.Thread] = []

        if transport == "local":
            # Imported here, not at module scope: the worker module doubles
            # as the ``-m`` entry point and must stay out of the package
            # import graph (see the note in repro/cluster/__init__.py).
            from repro.cluster.worker import default_worker_id, serve

            for index in range(n_workers):
                coordinator_end, worker_end = LocalTransport.pair()
                self.coordinator.add_worker(coordinator_end)
                # In-process workers share one pid, so the host:pid default
                # would collide in federated metric labels; suffix the slot.
                thread = threading.Thread(
                    target=serve, args=(worker_end,),
                    kwargs={
                        "use_shm": self.use_shm,
                        "worker_id": f"{default_worker_id()}:w{index}",
                    },
                    daemon=True,
                )
                self._threads.append(thread)
                thread.start()
        else:
            try:
                host, port = self.coordinator.listen()
                command = [
                    sys.executable, "-m", "repro.cluster.worker",
                    "--connect", f"{host}:{port}",
                ]
                if self.use_shm:
                    command.append("--shm")
                environment = _worker_environment()
                for _ in range(n_workers):
                    self.processes.append(
                        subprocess.Popen(command, env=environment)
                    )
                self.coordinator.accept_workers(n_workers, timeout=connect_timeout)
            except BaseException:
                # A timeout, spawn failure, or Ctrl-C during the accept
                # wait would leak subprocesses stuck dialing a dead
                # listener; reap them.  BaseException: KeyboardInterrupt
                # mid-wait is the *most* likely abort.
                self.close()
                raise

    @property
    def n_workers(self) -> int:
        """Workers currently alive in the coordinator's registry."""
        return self.coordinator.n_alive

    def submit(self, context, tasks, weights=None):
        """Forward to the coordinator (so a cluster *is* a submit target)."""
        return self.coordinator.submit(context, tasks, weights)

    def close(self) -> None:
        """Shut down the coordinator and reap every spawned worker."""
        self.coordinator.shutdown()
        for process in self.processes:
            if process.poll() is None:
                process.terminate()
                try:
                    process.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait()
        for thread in self._threads:
            thread.join(timeout=2.0)
        self._threads.clear()

    def __enter__(self) -> "LocalCluster":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def resolve_coordinator(cluster: object) -> ClusterCoordinator:
    """Accept a :class:`ClusterCoordinator` or anything carrying one.

    This is what lets every entry point take ``cluster=`` as either the
    raw coordinator (remote deployments wire their own workers) or a
    :class:`LocalCluster` convenience wrapper.
    """
    if isinstance(cluster, ClusterCoordinator):
        return cluster
    coordinator = getattr(cluster, "coordinator", None)
    if isinstance(coordinator, ClusterCoordinator):
        return coordinator
    raise TypeError(
        f"expected a ClusterCoordinator or LocalCluster, got {type(cluster).__name__}"
    )
