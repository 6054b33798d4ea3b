"""Distributed mining fabric: coordinator + workers over pluggable transports.

The cluster layer ships the engine's existing work units — picklable
:class:`~repro.engine.kernel.TileKernel` + shard ranges, and now root
enumeration subtrees — across process and machine boundaries:

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
* :mod:`repro.cluster.shm` — shared-memory word planes: same-machine
  workers return a tiny segment handle instead of pickling whole partials
  through the link.
* :mod:`repro.cluster.contexts` / :mod:`repro.cluster.build` — the
  evidence workload (``method="cluster"`` of
  :func:`~repro.core.evidence_builder.build_evidence_set`).
* :mod:`repro.cluster.enum` — distributed ADC enumeration
  (:func:`parallel_enumerate`), farming the root hit-loop subtrees of
  :class:`~repro.core.adc_enum.ADCEnum` out as work units.
* :mod:`repro.cluster.local` — :class:`LocalCluster`, a one-call
  coordinator + n local workers (socket subprocesses or in-process
  threads).

Invariant carried over from the engine: any transport, worker count,
failure schedule, or merge-tree shape yields an
:class:`~repro.core.evidence.EvidenceSet` bit-identical to the serial
tiled build, and cluster-backed mining returns the exact DC list of
``method="tiled"``.
"""

from repro.cluster.build import (
    build_evidence_set_cluster,
    fold_tiles_cluster,
    merge_partials_tree,
)
from repro.cluster.contexts import TileFoldContext, shard_tasks
from repro.cluster.coordinator import ClusterCoordinator, ClusterError
from repro.cluster.enum import EnumContext, parallel_enumerate
from repro.cluster.local import LocalCluster, resolve_coordinator
from repro.cluster.shm import ShmPartial, partial_from_shm, partial_to_shm
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
    "EnumContext",
    "parallel_enumerate",
    "LocalCluster",
    "resolve_coordinator",
    "ShmPartial",
    "partial_from_shm",
    "partial_to_shm",
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
