"""Distributed evidence builds: coordinator + workers over pluggable transports.

The cluster layer ships the engine's existing work unit — a picklable
:class:`~repro.engine.kernel.TileKernel` plus shard ranges of its tile
schedule — across process and machine boundaries, and returns each shard's
:class:`~repro.engine.partial.PartialEvidenceSet` pickled through the link.
Enumeration stays a single serial search:

* :mod:`repro.cluster.transport` — length-prefixed pickle frames over an
  in-process queue pair (:class:`LocalTransport`, for tests) or a TCP
  socket (:class:`SocketTransport`).
* :mod:`repro.cluster.worker` — the ``python -m repro.cluster.worker
  --connect host:port`` receive-execute-reply loop: context shipped once,
  shard results streamed back.
* :mod:`repro.cluster.coordinator` — :class:`ClusterCoordinator`: worker
  registry with heartbeats, pair-count-balanced largest-first assignment,
  re-issue of shards on worker death or straggler timeout, merge-tree
  reduction.
* :mod:`repro.cluster.contexts` / :mod:`repro.cluster.build` — the
  evidence workload (``method="cluster"`` of
  :func:`~repro.core.evidence_builder.build_evidence_set`).
* :mod:`repro.cluster.local` — :class:`LocalCluster`, a one-call
  coordinator + n local workers (socket subprocesses or in-process
  threads).

Invariant carried over from the engine: any transport, worker count,
failure schedule, or merge-tree shape yields an
:class:`~repro.core.evidence.EvidenceSet` bit-identical to the serial
tiled build, so cluster-backed mining returns the exact DC list of
``method="tiled"``.
"""

from repro.cluster.build import (
    build_evidence_set_cluster,
    fold_tiles_cluster,
    merge_partials_tree,
)
from repro.cluster.contexts import TileFoldContext, shard_tasks
from repro.cluster.coordinator import ClusterCoordinator, ClusterError
from repro.cluster.local import LocalCluster, resolve_coordinator
from repro.cluster.transport import (
    LocalTransport,
    SocketTransport,
    Transport,
    TransportClosed,
    TransportError,
    TransportTimeout,
    connect_socket,
    listen_socket,
    parse_address,
)

# NOTE: repro.cluster.worker is deliberately NOT imported here — it is the
# ``python -m repro.cluster.worker`` entry point, and importing it from the
# package initializer would make runpy warn about the double import in
# every spawned worker.  Import ``serve`` from the module directly.

__all__ = [
    "build_evidence_set_cluster",
    "fold_tiles_cluster",
    "merge_partials_tree",
    "TileFoldContext",
    "shard_tasks",
    "ClusterCoordinator",
    "ClusterError",
    "LocalCluster",
    "resolve_coordinator",
    "LocalTransport",
    "SocketTransport",
    "Transport",
    "TransportClosed",
    "TransportError",
    "TransportTimeout",
    "connect_socket",
    "listen_socket",
    "parse_address",
]
