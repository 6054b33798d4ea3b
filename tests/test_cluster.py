"""Tests of the distributed mining fabric (transport, coordinator, builds).

The backbone assertion everywhere is the engine invariant carried across
the wire: any transport, worker count, failure schedule, or merge-tree
shape finalizes to an :class:`EvidenceSet` bit-identical to the serial
tiled build.  Socket tests spawn real ``python -m repro.cluster.worker``
subprocesses over localhost TCP — the exact multi-machine code path — and
the chaos test SIGKILLs one of them mid-shard.
"""

from __future__ import annotations

import signal
import threading
import time

import numpy as np
import pytest

from tests.conftest import make_random_relation
from tests.test_engine import assert_evidence_identical
from repro.cluster import (
    ClusterCoordinator,
    ClusterError,
    LocalCluster,
    LocalTransport,
    SocketTransport,
    TileFoldContext,
    TransportClosed,
    TransportTimeout,
    build_evidence_set_cluster,
    merge_partials_tree,
    parse_address,
    resolve_coordinator,
    shard_tasks,
)
from repro.cluster.transport import TransportError
from repro.cluster.worker import serve
from repro.core.evidence_builder import EVIDENCE_METHODS, build_evidence_set
from repro.core.miner import ADCMiner
from repro.core.predicate_space import build_predicate_space
from repro.data.relation import running_example
from repro.engine.kernel import TileKernel
from repro.engine.scheduler import TileScheduler
from repro.incremental import EvidenceStore


def signature(adcs):
    """Order-sensitive identity of a DC list."""
    return [
        (adc.hitting_set_mask, adc.violation_score, str(adc.constraint))
        for adc in adcs
    ]


def make_workload(n_rows: int = 12, tile_rows: int = 3, seed: int = 3):
    """Relation, space, kernel, tiles, and the serial reference evidence."""
    relation = make_random_relation(n_rows=n_rows, seed=seed)
    space = build_predicate_space(relation)
    kernel = TileKernel.from_relation(relation, space, include_participation=True)
    tiles = TileScheduler(relation.n_rows, tile_rows=tile_rows).tiles()
    reference = build_evidence_set(relation, space, tile_rows=tile_rows)
    return relation, space, kernel, tiles, reference


class OneSlowShardContext:
    """Delegating context whose shard starting at tile 0 dawdles.

    Module level so it pickles by reference through the transports.
    """

    def __init__(self, inner: TileFoldContext, sleep_seconds: float = 1.0):
        self.inner = inner
        self.sleep_seconds = sleep_seconds

    def run(self, task):
        if task[0] == 0:
            time.sleep(self.sleep_seconds)
        return self.inner.run(task)


class UnpicklableResultContext:
    """Context whose ``"bad"`` task computes fine but yields an
    unpicklable result, failing only at the worker's reply send."""

    def run(self, task):
        if task == "bad":
            return lambda: None
        return task


class TestTransports:
    def test_local_pair_roundtrip_counts_bytes(self):
        a, b = LocalTransport.pair()
        a.send({"hello": np.arange(4)})
        message = b.recv(timeout=1.0)
        assert list(message["hello"]) == [0, 1, 2, 3]
        assert a.bytes_sent == b.bytes_received > 0
        assert a.frames_sent == b.frames_received == 1

    def test_local_timeout_and_close(self):
        a, b = LocalTransport.pair()
        with pytest.raises(TransportTimeout):
            b.recv(timeout=0.01)
        a.close()
        with pytest.raises(TransportClosed):
            b.recv(timeout=1.0)
        with pytest.raises(TransportClosed):  # EOF is sticky
            b.recv(timeout=1.0)

    def test_local_transport_requires_picklable_messages(self):
        a, _ = LocalTransport.pair()
        with pytest.raises(Exception):
            a.send(lambda: None)

    def test_socket_roundtrip_over_socketpair(self):
        import socket as socket_module

        left, right = socket_module.socketpair()
        a, b = SocketTransport(left), SocketTransport(right)
        payload = {"words": np.arange(1000, dtype=np.uint64)}
        a.send(payload)
        a.send(("second", 2))
        received = b.recv(timeout=5.0)
        assert np.array_equal(received["words"], payload["words"])
        assert b.recv(timeout=5.0) == ("second", 2)
        a.close()
        with pytest.raises(TransportClosed):
            b.recv(timeout=5.0)

    def test_socket_send_timeout_bounds_a_frozen_peer(self):
        """A peer that stops draining its buffer cannot hang the sender."""
        import socket as socket_module

        left, right = socket_module.socketpair()
        sender = SocketTransport(left, send_timeout=0.3)
        start = time.monotonic()
        with pytest.raises(TransportClosed, match="blocked past"):
            # Far beyond any kernel buffer pair; the peer never reads, so
            # an unbounded sendall would block forever.
            sender.send(b"x" * (1 << 23))
        assert time.monotonic() - start < 5.0
        left.close()
        right.close()

    def test_parse_address(self):
        assert parse_address("10.0.0.7:9000") == ("10.0.0.7", 9000)
        with pytest.raises(ValueError):
            parse_address("no-port")


class TestCoordinator:
    def test_submit_runs_all_tasks_in_order(self):
        _, space, kernel, tiles, reference = make_workload()
        with LocalCluster(2, transport="local") as cluster:
            tasks, weights = shard_tasks(tiles, 6)
            partials = cluster.submit(TileFoldContext(kernel, tiles), tasks, weights)
            assert len(partials) == len(tasks)
            assert_evidence_identical(
                merge_partials_tree(partials).finalize(space), reference
            )

    def test_submit_with_no_workers_raises(self):
        coordinator = ClusterCoordinator()
        with pytest.raises(ClusterError):
            coordinator.submit(object(), [(0, 1)])

    def test_task_exception_propagates_as_cluster_error(self):
        _, _, kernel, tiles, _ = make_workload()
        with LocalCluster(1, transport="local") as cluster:
            with pytest.raises(ClusterError, match="TypeError"):
                # None unpacks into no (start, stop) → worker-side error.
                cluster.submit(TileFoldContext(kernel, tiles), [None])
            # The worker survives its own error and still serves work.
            good = cluster.submit(
                TileFoldContext(kernel, tiles), [(0, len(tiles))]
            )
            assert good[0].recorded_pairs > 0

    def test_unpicklable_result_reports_error_and_worker_survives(self):
        """A result that fails to pickle must become an error frame, not
        kill the worker loop (which would cascade across the cluster)."""
        with LocalCluster(1, transport="local") as cluster:
            with pytest.raises(ClusterError, match="task failed"):
                cluster.submit(UnpicklableResultContext(), ["bad"])
            # The loop survived the failed send and still serves work.
            assert cluster.submit(UnpicklableResultContext(), ["fine"]) == ["fine"]
            assert cluster.coordinator.n_alive == 1

    def test_protocol_error_frame_raises_explicit_cluster_error(self):
        """An ('error', None, ...) frame — a worker's unknown-message-kind
        complaint — must surface as a ClusterError, not a TypeError from
        unpacking None."""
        coordinator = ClusterCoordinator()
        coordinator_end, worker_end = LocalTransport.pair()
        coordinator.add_worker(coordinator_end)

        def rogue(transport):
            transport.recv()  # context
            transport.send(("ready",))
            transport.send(("error", None, "unknown message kind 'bogus'"))

        threading.Thread(target=rogue, args=(worker_end,), daemon=True).start()
        try:
            with pytest.raises(ClusterError, match="protocol error"):
                coordinator.submit(object(), [0, 1])
        finally:
            coordinator.shutdown()

    def test_ping_reports_live_workers(self):
        with LocalCluster(3, transport="local") as cluster:
            assert cluster.coordinator.ping(timeout=5.0) == 3

    def test_resolve_coordinator_accepts_both_forms(self):
        coordinator = ClusterCoordinator()
        assert resolve_coordinator(coordinator) is coordinator
        with pytest.raises(TypeError):
            resolve_coordinator(object())

    def test_context_deferred_to_worker_busy_with_stale_straggler(self):
        """A new submission's context reaches a still-busy worker safely.

        The worker crunching a prior submission's re-issued duplicate will
        not drain its socket until the shard finishes, so the context is
        deferred until the stale result clears the task — the worker must
        then ack ready, serve the new submission, and never be counted as
        failed.
        """
        _, space, kernel, tiles, reference = make_workload()
        with LocalCluster(2, transport="local", task_timeout=0.2) as cluster:
            coordinator = cluster.coordinator
            slow = OneSlowShardContext(
                TileFoldContext(kernel, tiles), sleep_seconds=1.5
            )
            tasks, weights = shard_tasks(tiles, 4)
            partials = coordinator.submit(slow, tasks, weights)
            assert_evidence_identical(
                merge_partials_tree(partials).finalize(space), reference
            )
            # Straight into a second submission while the duplicate of the
            # slow shard is typically still in flight on one worker.
            partials = coordinator.submit(TileFoldContext(kernel, tiles), tasks, weights)
            assert_evidence_identical(
                merge_partials_tree(partials).finalize(space), reference
            )
            assert coordinator.failed_workers == 0
            # No submission may leave a deferred context pinned in memory.
            assert all(
                worker.context_pending is None
                for worker in coordinator._workers.values()
            )

    def test_frozen_stale_busy_worker_is_bounded_by_context_timeout(self):
        """A worker frozen mid-stale-shard cannot dodge every liveness bound.

        Busy workers are heartbeat-exempt and a stale shard has no
        straggler deadline in the new submission, so once its context is
        deferred the deferral itself must be bounded — otherwise a frozen
        worker could become the submission's only, unbounded path to
        progress.
        """
        _, space, kernel, tiles, reference = make_workload()
        coordinator = ClusterCoordinator(task_timeout=0.2, context_timeout=0.5)

        def black_hole(transport):
            # Acks contexts, swallows tasks forever: frozen mid-shard.
            while True:
                message = transport.recv()
                if message[0] == "context":
                    transport.send(("ready",))
                elif message[0] == "task":
                    time.sleep(3600.0)
                elif message[0] == "ping":
                    transport.send(("pong", message[1]))
                else:
                    return

        hole_end, hole_worker_end = LocalTransport.pair()
        coordinator.add_worker(hole_end)
        threading.Thread(target=black_hole, args=(hole_worker_end,), daemon=True).start()
        real_end, real_worker_end = LocalTransport.pair()
        coordinator.add_worker(real_end)
        threading.Thread(target=serve, args=(real_worker_end,), daemon=True).start()
        try:
            # Two slowish tasks so each worker takes one; the black hole
            # swallows its task, which is then re-issued to the real worker.
            inner = TileFoldContext(kernel, tiles)
            tasks, weights = shard_tasks(tiles, 2)
            partials = coordinator.submit(
                OneSlowShardContext(inner, sleep_seconds=0.3), tasks, weights
            )
            assert_evidence_identical(
                merge_partials_tree(partials).finalize(space), reference
            )
            # Second submission defers its context to the still-busy frozen
            # worker; the deferral bound must retire it mid-submission.
            tasks, weights = shard_tasks(tiles, 4)
            partials = coordinator.submit(
                OneSlowShardContext(inner, sleep_seconds=1.0), tasks, weights
            )
            assert_evidence_identical(
                merge_partials_tree(partials).finalize(space), reference
            )
            assert coordinator.failed_workers == 1
            assert coordinator.n_alive == 1
        finally:
            coordinator.shutdown()

    def test_ping_clears_task_on_stale_error_frame(self):
        """A straggler failing after its submission returned must not wedge
        the worker as busy-forever (skipped by heartbeat and assignment)."""
        _, space, kernel, tiles, reference = make_workload()
        coordinator = ClusterCoordinator(task_timeout=0.2)

        def sluggish_failer(transport):
            # Acks the context, then fails its task only after the real
            # worker has finished everything and submit() has returned.
            while True:
                message = transport.recv()
                if message[0] == "context":
                    transport.send(("ready",))
                elif message[0] == "task":
                    time.sleep(0.8)
                    transport.send(("error", message[1], "late failure"))
                elif message[0] == "ping":
                    transport.send(("pong", message[1]))
                else:
                    return

        coordinator_end, worker_end = LocalTransport.pair()
        coordinator.add_worker(coordinator_end)
        threading.Thread(target=sluggish_failer, args=(worker_end,), daemon=True).start()
        real_end, real_worker_end = LocalTransport.pair()
        coordinator.add_worker(real_end)
        threading.Thread(target=serve, args=(real_worker_end,), daemon=True).start()
        try:
            tasks, weights = shard_tasks(tiles, 4)
            partials = coordinator.submit(TileFoldContext(kernel, tiles), tasks, weights)
            assert_evidence_identical(
                merge_partials_tree(partials).finalize(space), reference
            )
            time.sleep(1.0)  # let the late error frame land in the inbox
            coordinator.ping(timeout=5.0)
            assert all(
                worker.task is None for worker in coordinator._workers.values()
            )
        finally:
            coordinator.shutdown()

    def test_frozen_worker_during_context_install_is_declared_dead(self):
        """context_timeout is the liveness bound for a peer that never acks.

        A frozen machine or blackholed link sends no EOF; without this
        bound a lone worker stuck installing the context would spin
        ``submit`` forever (not-ready workers are deaf to pings, so the
        ordinary heartbeat timeout cannot apply to them).
        """
        coordinator = ClusterCoordinator(context_timeout=0.3)
        coordinator_end, worker_end = LocalTransport.pair()
        coordinator.add_worker(coordinator_end)
        # The "worker" swallows the context and then freezes: no ready ack,
        # no EOF, nothing.
        threading.Thread(target=worker_end.recv, daemon=True).start()
        try:
            with pytest.raises(ClusterError, match="all workers died"):
                coordinator.submit(object(), [0])
            assert coordinator.failed_workers == 1
        finally:
            coordinator.shutdown()

    def test_send_failure_during_assign_requeues_the_task(self):
        """A task whose hand-out write fails must not be silently lost.

        The link breaking between the alive check and the task send leaves
        the worker dead with no in-flight task recorded, so the dead-event
        handler requeues nothing — the assign path itself must restore the
        index or the submission hangs with the task stranded.
        """
        _, space, kernel, tiles, reference = make_workload()
        with LocalCluster(2, transport="local") as cluster:
            coordinator = cluster.coordinator
            victim = coordinator._workers[0]
            original_send = victim.transport.send

            def failing_send(message):
                if message[0] == "task":
                    raise TransportError("injected: link broke before the write")
                original_send(message)

            victim.transport.send = failing_send
            tasks, weights = shard_tasks(tiles, 8)
            results: list = []
            runner = threading.Thread(
                target=lambda: results.append(
                    coordinator.submit(TileFoldContext(kernel, tiles), tasks, weights)
                ),
                daemon=True,
            )
            runner.start()
            runner.join(timeout=30.0)
            assert not runner.is_alive(), "submission hung: task lost on send failure"
            assert_evidence_identical(
                merge_partials_tree(results[0]).finalize(space), reference
            )

    def test_straggler_is_reissued_to_idle_worker(self):
        _, space, kernel, tiles, reference = make_workload()
        with LocalCluster(2, transport="local", task_timeout=0.2) as cluster:
            context = OneSlowShardContext(TileFoldContext(kernel, tiles))
            tasks, weights = shard_tasks(tiles, 4)
            partials = cluster.submit(context, tasks, weights)
            assert_evidence_identical(
                merge_partials_tree(partials).finalize(space), reference
            )
            assert cluster.coordinator.reissued_tasks >= 1


class TestSocketWorkers:
    def test_two_socket_workers_build_identical_evidence(self):
        relation, space, _, _, reference = make_workload()
        with LocalCluster(2, transport="socket") as cluster:
            built = build_evidence_set_cluster(relation, space, cluster, tile_rows=3)
            assert cluster.n_workers == 2
        assert_evidence_identical(built, reference)

    def test_sigkill_mid_shard_reissues_and_stays_bit_identical(self):
        """Chaos: a socket worker dies mid-shard; the shard is re-issued."""
        _, space, kernel, tiles, reference = make_workload(n_rows=14)
        with LocalCluster(2, transport="socket") as cluster:
            context = TileFoldContext(kernel, tiles, delay_per_task=0.25)
            tasks, weights = shard_tasks(tiles, 8)
            outcome: dict[str, object] = {}

            def submit():
                outcome["partials"] = cluster.submit(context, tasks, weights)

            runner = threading.Thread(target=submit)
            runner.start()
            time.sleep(0.4)  # both workers are asleep inside a shard now
            victim = cluster.processes[0]
            victim.send_signal(signal.SIGKILL)
            runner.join(timeout=60.0)
            assert not runner.is_alive(), "submission hung after worker death"

            assert cluster.coordinator.failed_workers == 1
            assert cluster.coordinator.n_alive == 1
            evidence = merge_partials_tree(outcome["partials"]).finalize(space)
        assert_evidence_identical(evidence, reference)

    def test_all_workers_dead_raises(self):
        _, _, kernel, tiles, _ = make_workload()
        with LocalCluster(1, transport="socket") as cluster:
            context = TileFoldContext(kernel, tiles, delay_per_task=0.5)
            tasks, weights = shard_tasks(tiles, 2)
            error: dict[str, object] = {}

            def submit():
                try:
                    cluster.submit(context, tasks, weights)
                except ClusterError as raised:
                    error["raised"] = raised

            runner = threading.Thread(target=submit)
            runner.start()
            time.sleep(0.25)
            cluster.processes[0].kill()
            runner.join(timeout=30.0)
            assert isinstance(error.get("raised"), ClusterError)


class TestClusterBuilders:
    @pytest.mark.parametrize("transport", ["local", "socket"])
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_cluster_matches_tiled_for_all_transports(self, transport, n_workers):
        relation, space, _, _, reference = make_workload()
        with LocalCluster(n_workers, transport=transport) as cluster:
            built = build_evidence_set(
                relation, space, method="cluster", cluster=cluster, tile_rows=3
            )
        assert_evidence_identical(built, reference)

    def test_merge_tree_reduction_matches_left_fold(self):
        _, space, kernel, tiles, reference = make_workload()
        context = TileFoldContext(kernel, tiles)
        tasks, _ = shard_tasks(tiles, 5)
        partials = [context.run(task) for task in tasks]
        assert_evidence_identical(
            merge_partials_tree(partials).finalize(space), reference
        )

    def test_cluster_method_requires_cluster_argument(self):
        relation, space, _, _, _ = make_workload(n_rows=4)
        with pytest.raises(ValueError, match="cluster="):
            build_evidence_set(relation, space, method="cluster")

    def test_unknown_method_error_lists_valid_methods(self):
        assert EVIDENCE_METHODS == ("tiled", "cluster", "dense", "pairwise")
        relation, space, _, _, _ = make_workload(n_rows=4)
        for bogus in ("bogus", "parallel", "vectorized"):
            with pytest.raises(ValueError) as excinfo:
                build_evidence_set(relation, space, method=bogus)
            assert "valid methods are tiled, cluster, dense, pairwise" in str(
                excinfo.value
            )

    def test_adaptive_tile_edge_matches_tiled(self):
        """The budget split across two workers picks a different tile edge
        than the serial builder; the evidence is the same."""
        relation, space, _, _, _ = make_workload(n_rows=20)
        with LocalCluster(2, transport="local") as cluster:
            built = build_evidence_set_cluster(relation, space, cluster)
        assert_evidence_identical(built, build_evidence_set(relation, space))

    def test_without_participation(self):
        relation, space, _, _, _ = make_workload(n_rows=10)
        with LocalCluster(2, transport="local") as cluster:
            built = build_evidence_set_cluster(
                relation, space, cluster, include_participation=False, tile_rows=4
            )
        tiled = build_evidence_set(
            relation, space, include_participation=False, tile_rows=4
        )
        assert not built.has_participation
        assert np.array_equal(built.words, tiled.words)
        assert np.array_equal(built.counts, tiled.counts)

    def test_tiny_relations(self):
        with LocalCluster(2, transport="local") as cluster:
            for n_rows, pairs in ((1, 0), (2, 2)):
                relation = make_random_relation(n_rows=n_rows, seed=0)
                space = build_predicate_space(relation)
                built = build_evidence_set_cluster(relation, space, cluster)
                assert built.recorded_pairs == pairs

    def test_store_appends_fold_over_the_cluster(self):
        relation = running_example()
        with LocalCluster(2, transport="local") as cluster:
            store = EvidenceStore(relation.take(range(9)), cluster=cluster)
            store.append(relation.take(range(9, 13)))
            store.append(relation.take(range(13, 15)))
            streamed = store.evidence()
            rebuilt = build_evidence_set(relation, store.space)
        assert_evidence_identical(streamed, rebuilt)

    @pytest.mark.parametrize("function", ["f1", "f2"])
    def test_cluster_mining_matches_tiled_mining(self, function):
        relation = running_example()
        baseline = ADCMiner(function, 0.05).mine(relation)
        with LocalCluster(2, transport="local") as cluster:
            clustered = ADCMiner(function, 0.05, cluster=cluster).mine(relation)
        assert signature(clustered.adcs) == signature(baseline.adcs)
        assert clustered.evidence.n_rows == baseline.evidence.n_rows


class TestMinerValidation:
    def test_cluster_kwarg_switches_method(self):
        with LocalCluster(1, transport="local") as cluster:
            miner = ADCMiner(cluster=cluster)
            assert miner.evidence_method == "cluster"
        with pytest.raises(ValueError, match="cluster"):
            ADCMiner(evidence_method="cluster")

    def test_local_cluster_validates_arguments(self):
        with pytest.raises(ValueError, match="positive"):
            LocalCluster(0, transport="local")
        with pytest.raises(ValueError, match="transport"):
            LocalCluster(1, transport="carrier-pigeon")
        with pytest.raises(ValueError, match="context_timeout"):
            LocalCluster(1, transport="local", context_timeout=-1.0)

    def test_local_cluster_forwards_context_timeout(self):
        with LocalCluster(1, transport="local", context_timeout=5.0) as cluster:
            assert cluster.coordinator.context_timeout == 5.0


class TestWorkerLoop:
    def test_serve_handles_context_tasks_ping_shutdown(self):
        _, _, kernel, tiles, _ = make_workload()
        coordinator_end, worker_end = LocalTransport.pair()
        thread = threading.Thread(target=serve, args=(worker_end,), daemon=True)
        thread.start()
        coordinator_end.send(("context", TileFoldContext(kernel, tiles)))
        assert coordinator_end.recv(timeout=10.0) == ("ready",)
        coordinator_end.send(("ping", 42))
        assert coordinator_end.recv(timeout=10.0) == ("pong", 42)
        coordinator_end.send(("task", 0, (0, len(tiles))))
        kind, task_id, result = coordinator_end.recv(timeout=30.0)
        assert (kind, task_id) == ("result", 0)
        assert result.recorded_pairs > 0
        coordinator_end.send(("shutdown",))
        thread.join(timeout=10.0)
        assert not thread.is_alive()

    def test_task_before_context_reports_error(self):
        coordinator_end, worker_end = LocalTransport.pair()
        thread = threading.Thread(target=serve, args=(worker_end,), daemon=True)
        thread.start()
        coordinator_end.send(("task", 5, (0, 1)))
        kind, task_id, info = coordinator_end.recv(timeout=10.0)
        assert kind == "error" and task_id == 5
        # Structured error frame: bounded message + traceback, stamped
        # with the reporting worker's identity and the offending task.
        assert "context" in info["error"]
        assert info["worker"]
        assert info["task"] == 5
        coordinator_end.send(("shutdown",))
        thread.join(timeout=10.0)
