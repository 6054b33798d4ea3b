"""Durability through the serving layer: restarts, retries, quotas, chaos.

End-to-end crash safety of :class:`~repro.serve.server.ViolationServer`
with ``--data-dir``: acknowledged appends survive a server restart
bit-identically (violation counts match the constraint's own
``violation_count`` oracle on the surviving rows), lost acknowledgments
are retried exactly-once through the dedup window, timeouts and quotas
surface as typed errors, dropped stores leak nothing, and a real
``kill -9`` of a server subprocess recovers everything it acknowledged.
"""

from __future__ import annotations

import gc
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import pytest

from repro.data.relation import Relation, running_example
from repro.durability.journal import plain_rows, relation_types
from repro.serve import ServeClient, ServeError, ServeTimeout, ServerThread
from tests.faults import FlakyProxy

#: Same-column DCs over the running example, valid in its predicate space.
SPECS = [
    [
        {"left": "State", "op": "==", "right": "State",
         "form": "two_tuple_same_column"},
        {"left": "Zip", "op": "!=", "right": "Zip",
         "form": "two_tuple_same_column"},
    ],
    [
        {"left": "Income", "op": "<", "right": "Income",
         "form": "two_tuple_same_column"},
        {"left": "Tax", "op": ">", "right": "Tax",
         "form": "two_tuple_same_column"},
    ],
]


def example_rows() -> tuple[list[dict], dict[str, str]]:
    relation = running_example()
    return plain_rows(relation), relation_types(relation)


def oracle_counts(rows: list[dict], types: dict[str, str]) -> list[int]:
    """Per-DC violating-pair counts straight from the constraint itself."""
    from repro.core.dc import DenialConstraint
    from repro.data.types import ColumnType
    from repro.serve.server import parse_predicate

    relation = Relation.from_records(
        "oracle", rows, {c: ColumnType(t) for c, t in types.items()}
    )
    return [
        DenialConstraint(parse_predicate(p) for p in spec).violation_count(relation)
        for spec in SPECS
    ]


class TestRestartRecovery:
    def test_acknowledged_state_survives_restart(self, tmp_path):
        rows, types = example_rows()
        with ServerThread(data_dir=tmp_path) as (host, port):
            with ServeClient(host, port) as client:
                client.create_store("people", rows[:8], types)
                client.declare("people", SPECS, epsilon=0.05)
                client.append("people", rows[8:12])
                client.append("people", rows[12:15])
                before = [
                    client.violations("people", dc)["count"]
                    for dc in range(len(SPECS))
                ]
        # Same data dir, fresh server: everything must come back.
        with ServerThread(data_dir=tmp_path) as (host, port):
            with ServeClient(host, port) as client:
                ping = client.ping()
                assert ping["stores"] == ["people"]
                after = [
                    client.violations("people", dc)["count"]
                    for dc in range(len(SPECS))
                ]
                assert after == before == oracle_counts(rows, types)
                stats = client.stats()
                store_stats = stats["stores"]["people"]
                assert store_stats["n_rows"] == 15
                recovered = store_stats["durability"]["recovered"]
                assert recovered["source"] in ("wal", "snapshot", "snapshot+wal")
                assert stats["durability"]["recovery_failures"] == {}
                # The restored store keeps serving appends durably.
                client.append("people", rows[:2])
                assert client.stats()["stores"]["people"]["n_rows"] == 17

    def test_epsilon_change_survives_restart(self, tmp_path):
        rows, types = example_rows()
        with ServerThread(data_dir=tmp_path) as (host, port):
            with ServeClient(host, port) as client:
                client.create_store("people", rows[:8], types)
                client.declare("people", SPECS, epsilon=0.05)
                client.set_epsilon("people", 0.42)
        with ServerThread(data_dir=tmp_path) as (host, port):
            with ServeClient(host, port) as client:
                report = client.report("people")
                # exceeds_epsilon is judged against the journaled 0.42.
                check = client.check_batch("people", rows[8:9])
                assert check["epsilon"] == 0.42
                assert report["report"]  # constraints are installed

    @pytest.mark.parametrize("how", ["declare", "set_epsilon"])
    def test_zero_epsilon_survives_restart(self, tmp_path, how):
        rows, types = example_rows()
        with ServerThread(data_dir=tmp_path) as (host, port):
            with ServeClient(host, port) as client:
                client.create_store("people", rows, types)
                if how == "declare":
                    client.declare("people", SPECS, epsilon=0.0)
                else:
                    client.declare("people", SPECS, epsilon=0.05)
                    client.set_epsilon("people", 0.0)
                assert client.check_batch("people", rows[:1])["epsilon"] == 0.0
        with ServerThread(data_dir=tmp_path) as (host, port):
            with ServeClient(host, port) as client:
                assert client.check_batch("people", rows[:1])["epsilon"] == 0.0
                report = client.report("people")["report"]
                # At epsilon 0 every violated DC exceeds it.
                assert any(entry["count"] > 0 for entry in report)
                for entry in report:
                    assert entry["exceeds_epsilon"] == (entry["count"] > 0)

    def test_snapshot_compaction_under_small_threshold(self, tmp_path):
        rows, types = example_rows()
        with ServerThread(data_dir=tmp_path, snapshot_every_bytes=64) as (host, port):
            with ServeClient(host, port) as client:
                client.create_store("people", rows[:8], types)
                for index in range(8, 15):
                    client.append("people", [rows[index]])
                durability = client.stats()["stores"]["people"]["durability"]
                assert durability["snapshots_written"] >= 1
        with ServerThread(data_dir=tmp_path) as (host, port):
            with ServeClient(host, port) as client:
                assert client.stats()["stores"]["people"]["n_rows"] == 15

    def test_dedup_window_survives_restart(self, tmp_path):
        rows, types = example_rows()
        key = "retry-me-across-restarts"
        with ServerThread(data_dir=tmp_path) as (host, port):
            with ServeClient(host, port) as client:
                client.create_store("people", rows[:8], types)
                first = client.append("people", rows[8:10], request_key=key)
                assert first.get("deduplicated") is None
        with ServerThread(data_dir=tmp_path) as (host, port):
            with ServeClient(host, port) as client:
                retried = client.append("people", rows[8:10], request_key=key)
                assert retried["deduplicated"] is True
                assert retried["appended"] == 2
                # Applied exactly once: the row count did not move.
                assert client.stats()["stores"]["people"]["n_rows"] == 10


class TestIdempotentRetry:
    def test_lost_ack_retry_applies_exactly_once(self, tmp_path):
        rows, types = example_rows()
        with ServerThread(data_dir=tmp_path) as (host, port):
            with ServeClient(host, port) as setup:
                setup.create_store("people", rows[:8], types)
            # Responses: 0 = the append's ack, dropped *after* the server
            # commits.  The client's idempotent retry reconnects through
            # the proxy and must be answered from the dedup window.
            proxy = FlakyProxy((host, port), drop_responses={0})
            try:
                # The dropped ack is noticed by the read timeout; a short
                # one keeps the retry path from idling on the default.
                client = ServeClient(
                    *proxy.address, timeout=2.0, retries=3, retry_backoff=0.05
                )
                with client:
                    result = client.append("people", rows[8:11])
                    assert result["appended"] == 3
                    assert result.get("deduplicated") is True
                    assert client.reconnects >= 1
                    assert client.stats()["stores"]["people"]["n_rows"] == 11
            finally:
                proxy.close()

    def test_in_flight_duplicate_key_shares_one_commit(self, tmp_path):
        rows, types = example_rows()
        with ServerThread(flush_window=0.2) as (host, port):
            with ServeClient(host, port) as setup:
                setup.create_store("people", rows[:8], types)
            results = []

            def fire() -> None:
                with ServeClient(host, port) as client:
                    results.append(
                        client.append("people", rows[8:10], request_key="dup")
                    )

            threads = [threading.Thread(target=fire) for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            with ServeClient(host, port) as client:
                assert client.stats()["stores"]["people"]["n_rows"] == 10
            assert sum(1 for r in results if not r.get("deduplicated")) == 1
            assert sum(1 for r in results if r.get("deduplicated")) == 2


class TestTimeouts:
    def test_read_timeout_raises_serve_timeout(self):
        # A listener that accepts and then never answers.
        listener = socket.create_server(("127.0.0.1", 0))
        host, port = listener.getsockname()
        accepted = []

        def accept() -> None:
            try:
                accepted.append(listener.accept()[0])
            except OSError:
                pass

        thread = threading.Thread(target=accept, daemon=True)
        thread.start()
        try:
            with ServeClient(host, port, timeout=0.3) as client:
                with pytest.raises(ServeTimeout):
                    client.ping()
        finally:
            listener.close()
            for sock in accepted:
                sock.close()

    def test_connect_timeout_raises_serve_timeout(self):
        # A bound-but-not-accepting socket with a full backlog makes
        # connects hang; 10.255.255.1 is the classic non-routable fallback.
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(0)
        host, port = listener.getsockname()
        try:
            saturating = []
            try:
                for _ in range(16):
                    saturating.append(
                        socket.create_connection((host, port), timeout=0.2)
                    )
            except OSError:
                pass
            with pytest.raises((ServeTimeout, ConnectionError, OSError)):
                ServeClient(host, port, timeout=5.0, connect_timeout=0.2)
        finally:
            listener.close()
            for sock in saturating:
                sock.close()

    def test_retries_zero_fails_fast_on_dead_server(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        with pytest.raises(OSError):
            ServeClient("127.0.0.1", port, timeout=0.5)


class TestQuotas:
    def test_max_stores_refused_with_quota_code(self, tmp_path):
        rows, types = example_rows()
        with ServerThread(data_dir=tmp_path, max_stores=1) as (host, port):
            with ServeClient(host, port) as client:
                client.create_store("first", rows[:4], types)
                with pytest.raises(ServeError) as error:
                    client.create_store("second", rows[:4], types)
                assert error.value.code == "quota_exceeded"
                # Dropping frees the slot.
                client.drop_store("first")
                client.create_store("second", rows[:4], types)

    def test_max_rows_per_store_refuses_overflowing_append(self, tmp_path):
        rows, types = example_rows()
        with ServerThread(data_dir=tmp_path, max_rows_per_store=10) as (host, port):
            with ServeClient(host, port) as client:
                client.create_store("people", rows[:8], types)
                client.append("people", rows[8:10])  # exactly at the cap
                with pytest.raises(ServeError) as error:
                    client.append("people", rows[10:12])
                assert error.value.code == "quota_exceeded"
                assert client.stats()["stores"]["people"]["n_rows"] == 10
                with pytest.raises(ServeError) as error:
                    client.create_store("huge", rows, types)
                assert error.value.code == "quota_exceeded"

    def test_unsafe_store_name_refused_when_durable(self, tmp_path):
        rows, types = example_rows()
        with ServerThread(data_dir=tmp_path) as (host, port):
            with ServeClient(host, port) as client:
                for name in ("../escape", ".hidden", "a/b", ""):
                    with pytest.raises(ServeError) as error:
                        client.create_store(name, rows[:4], types)
                    assert error.value.code == "bad_request"


class TestDropStore:
    def test_drop_releases_listeners_journal_and_directory(self, tmp_path):
        rows, types = example_rows()
        with ServerThread(data_dir=tmp_path) as (host, port):
            with ServeClient(host, port) as client:
                client.create_store("people", rows[:8], types)
                client.declare("people", SPECS, epsilon=0.05)
                client.append("people", rows[8:10])
                assert (Path(tmp_path) / "people" / "wal.log").exists()
                client.drop_store("people")
                assert not (Path(tmp_path) / "people").exists()
                with pytest.raises(ServeError) as error:
                    client.report("people")
                assert error.value.code == "unknown_store"

    def test_repeated_create_drop_cycles_same_name(self, tmp_path):
        rows, types = example_rows()
        with ServerThread(data_dir=tmp_path) as (host, port):
            with ServeClient(host, port) as client:
                for cycle in range(4):
                    client.create_store("people", rows[:6], types)
                    client.declare("people", SPECS, epsilon=0.05)
                    client.append("people", rows[6 : 8 + cycle])
                    client.drop_store("people")
                    assert not (Path(tmp_path) / "people").exists()
                # A final create still works and persists.
                client.create_store("people", rows[:8], types)
            with ServeClient(host, port) as client:
                assert client.ping()["stores"] == ["people"]
        with ServerThread(data_dir=tmp_path) as (host, port):
            with ServeClient(host, port) as client:
                assert client.stats()["stores"]["people"]["n_rows"] == 8

    def test_dropped_state_is_garbage_collected(self):
        """The counters' append listener must not keep a dropped store alive."""
        import asyncio

        from repro.core.dc import DenialConstraint
        from repro.data.types import ColumnType
        from repro.incremental.serve import ViolationService
        from repro.incremental.store import EvidenceStore
        from repro.serve.counters import ViolationCounters
        from repro.serve.server import StoreState, parse_predicate
        from repro.serve.scheduler import AppendScheduler

        rows, types = example_rows()
        store = EvidenceStore(Relation.from_records(
            "people", rows[:8], {c: ColumnType(t) for c, t in types.items()}
        ))
        loop = asyncio.new_event_loop()
        try:
            lock = asyncio.Lock()
            state = StoreState(
                "people", store,
                AppendScheduler(store, lock, executor=None), lock,
            )
            constraints = [
                DenialConstraint(parse_predicate(p) for p in spec)
                for spec in SPECS
            ]
            service = ViolationService(store, constraints, epsilon=0.05)
            state.service = service
            state.counters = ViolationCounters(service.hitting_words, store)
            ref = weakref.ref(state.counters)
            state.close()  # the drop path
            state = service = None
            gc.collect()
            assert ref() is None, "drop leaked the counters via the listener"
        finally:
            loop.close()


class TestKillDashNine:
    def boot(self, data_dir: Path, extra: list[str] = ()) -> tuple:
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve",
             "--listen", "127.0.0.1:0", "--data-dir", str(data_dir),
             *extra],
            stdout=subprocess.PIPE, env=env, text=True,
        )
        banner = proc.stdout.readline()
        match = re.search(r"listening on ([\d.]+):(\d+)", banner)
        assert match, f"no banner: {banner!r}"
        return proc, match.group(1), int(match.group(2))

    def test_sigkill_then_restart_recovers_acknowledged_rows(self, tmp_path):
        rows, types = example_rows()
        proc, host, port = self.boot(tmp_path, ["--fsync", "always"])
        try:
            with ServeClient(host, port) as client:
                client.create_store("people", rows[:8], types)
                client.declare("people", SPECS, epsilon=0.05)
                client.append("people", rows[8:12])
                client.append("people", rows[12:15])
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

        proc, host, port = self.boot(tmp_path)
        try:
            with ServeClient(host, port) as client:
                counts = [
                    client.violations("people", dc)["count"]
                    for dc in range(len(SPECS))
                ]
                assert counts == oracle_counts(rows, types)
                assert client.stats()["stores"]["people"]["n_rows"] == 15
            # A clean SIGTERM drain still works after recovery.
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=15) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
