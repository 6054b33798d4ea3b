"""Tests of the serving subsystem: protocol, counters, scheduler, server.

The end-to-end tests boot a real :class:`ViolationServer` on localhost TCP
(via :class:`ServerThread`) and drive it with the shared
:class:`ServeClient`; every served number is cross-checked against the
semantic DC oracles or a fresh library-level :class:`ViolationService` on
the same data.  The push-based read path additionally asserts the
*mechanism*: serving counters never finalizes the store's evidence.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.core.operators import Operator
from repro.core.predicate_space import build_predicate_space
from repro.core.predicates import same_column_predicate
from repro.data.relation import Relation, running_example
from repro.data.types import ColumnType
from repro.incremental import EvidenceStore, ViolationService
from repro.serve import (
    AppendScheduler,
    ServeClient,
    ServeError,
    ServerThread,
    ViolationCounters,
)
from repro.serve import protocol
from repro.serve.counters import partial_violation_counts
from repro.serve.protocol import QuotaExceeded


def plain_rows(relation, indices):
    """Rows as JSON-clean dicts (what a real network client would send)."""
    rows = []
    for index in indices:
        row = {}
        for name, value in relation.row(index).items():
            row[name] = value.item() if hasattr(value, "item") else value
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_frame_round_trip(self):
        message = {"id": 3, "op": "append", "rows": [{"A": 1, "B": "x"}]}
        frame = protocol.encode_frame(message)
        length = protocol.frame_length(frame[: protocol.HEADER.size])
        assert length == len(frame) - protocol.HEADER.size
        assert protocol.decode_payload(frame[protocol.HEADER.size :]) == message

    def test_numpy_values_become_plain_json(self):
        message = {
            "count": np.int64(7),
            "rate": np.float64(0.25),
            "flag": np.bool_(True),
            "scores": np.arange(3, dtype=np.int64),
            "nested": [{"n": np.int32(1)}],
        }
        decoded = protocol.decode_payload(
            protocol.encode_frame(message)[protocol.HEADER.size :]
        )
        assert decoded == {
            "count": 7, "rate": 0.25, "flag": True,
            "scores": [0, 1, 2], "nested": [{"n": 1}],
        }

    def test_oversized_frame_is_refused(self):
        header = protocol.HEADER.pack(1024)
        with pytest.raises(protocol.ProtocolError):
            protocol.frame_length(header, max_frame_bytes=512)

    def test_non_object_payload_is_refused(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_payload(b"[1, 2, 3]")
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_payload(b"\xff\xfe")

    def test_response_envelopes(self):
        ok = protocol.ok_response(5, value=1)
        assert ok == {"id": 5, "ok": True, "value": 1}
        error = protocol.error_response(5, protocol.BAD_REQUEST, "nope")
        assert error["ok"] is False
        assert error["error"]["code"] == protocol.BAD_REQUEST


# ----------------------------------------------------------------------
# Push-based counters
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def mined():
    """Full-relation space, store, and a handful of mined ADCs."""
    relation = running_example()
    space = build_predicate_space(relation)
    store = EvidenceStore(relation, space=space)
    adcs = store.remine(0.05)[:5]
    assert adcs, "the running example must yield ADCs at epsilon=0.05"
    return relation, space, adcs


def finalize_counts(store, constraints):
    """Oracle: per-DC counts off a fresh finalize of the store."""
    service = ViolationService(store, constraints)
    return [service.violations(i).count for i in range(len(constraints))]


class TestViolationCounters:
    def test_seed_matches_finalize(self, mined):
        relation, space, adcs = mined
        store = EvidenceStore(relation.take(range(10)), space=space)
        service = ViolationService(store, adcs)
        counters = ViolationCounters(service.hitting_words, store)
        assert counters.counts().tolist() == finalize_counts(store, adcs)
        assert counters.n_rows == 10

    def test_push_updates_track_every_append_exactly(self, mined):
        relation, space, adcs = mined
        store = EvidenceStore(relation.take(range(6)), space=space)
        service = ViolationService(store, adcs)
        counters = ViolationCounters(service.hitting_words, store)
        for start, stop in [(6, 9), (9, 10), (10, 15)]:
            store.append(relation.take(range(start, stop)))
            # Bit-identical to finalize-on-read, without having finalized.
            assert store._evidence is None
            assert counters.counts().tolist() == finalize_counts(store, adcs)
            assert counters.n_rows == stop
        assert counters.applied_deltas == 3

    def test_snapshot_is_consistent_and_plain(self, mined):
        relation, space, adcs = mined
        store = EvidenceStore(relation, space=space)
        counters = ViolationCounters(
            ViolationService(store, adcs).hitting_words, store
        )
        snapshot = counters.snapshot()
        assert snapshot.n_rows == relation.n_rows
        assert snapshot.total_pairs == relation.n_rows * (relation.n_rows - 1)
        assert snapshot.counts == tuple(counters.counts().tolist())
        for index in range(len(adcs)):
            assert snapshot.rate(index) == snapshot.counts[index] / snapshot.total_pairs

    def test_detach_stops_following(self, mined):
        relation, space, adcs = mined
        store = EvidenceStore(relation.take(range(10)), space=space)
        counters = ViolationCounters(
            ViolationService(store, adcs).hitting_words, store
        )
        before = counters.counts().tolist()
        counters.detach()
        store.append(relation.take(range(10, 15)))
        assert counters.counts().tolist() == before
        assert counters.n_rows == 10

    def test_partial_counts_empty_cases(self, mined):
        relation, space, adcs = mined
        store = EvidenceStore(relation, space=space)
        assert partial_violation_counts(store.partial, []).tolist() == []


# ----------------------------------------------------------------------
# Append scheduler
# ----------------------------------------------------------------------
class TestAppendScheduler:
    def _make(self, relation, space, executor, **kwargs):
        store = EvidenceStore(relation.take(range(8)), space=space)
        lock = asyncio.Lock()
        return store, AppendScheduler(store, lock, executor, **kwargs)

    def test_concurrent_appends_coalesce_into_one_flush(self, mined):
        relation, space, _ = mined

        async def drive():
            with ThreadPoolExecutor(2) as executor:
                store, scheduler = self._make(relation, space, executor)
                batches = [plain_rows(relation, [8 + i]) for i in range(7)]
                results = await asyncio.gather(
                    *[scheduler.append(batch) for batch in batches]
                )
                await scheduler.drain()
                return store, scheduler, results

        store, scheduler, results = asyncio.run(drive())
        assert store.n_rows == 15
        # All seven requests were concurrent, so they committed as one
        # fold: one flush, one generation, coalesced count = 7.
        assert scheduler.flushes == 1
        assert scheduler.coalesced_requests == 7
        assert {r["generation"] for r in results} == {1}
        assert all(r["coalesced"] == 7 and r["appended"] == 1 for r in results)

    def test_sequential_appends_do_not_wait_for_a_window(self, mined):
        relation, space, _ = mined

        async def drive():
            with ThreadPoolExecutor(2) as executor:
                store, scheduler = self._make(relation, space, executor)
                first = await scheduler.append(plain_rows(relation, [8]))
                second = await scheduler.append(plain_rows(relation, [9]))
                return store, scheduler, first, second

        store, scheduler, first, second = asyncio.run(drive())
        assert store.n_rows == 10
        assert scheduler.flushes == 2
        assert (first["generation"], second["generation"]) == (1, 2)

    def test_poisoned_flush_fails_only_its_owner(self, mined):
        relation, space, _ = mined

        async def drive():
            with ThreadPoolExecutor(2) as executor:
                store, scheduler = self._make(relation, space, executor)
                good = plain_rows(relation, [8])
                bad = [{"Name": "x"}]  # missing columns: coercion fails
                results = await asyncio.gather(
                    scheduler.append(good),
                    scheduler.append(bad),
                    scheduler.append(plain_rows(relation, [9])),
                    return_exceptions=True,
                )
                await scheduler.drain()
                return store, scheduler, results

        store, scheduler, results = asyncio.run(drive())
        assert store.n_rows == 10  # both good rows landed
        assert isinstance(results[1], Exception)
        assert not isinstance(results[0], Exception)
        assert not isinstance(results[2], Exception)
        assert scheduler.fallback_flushes >= 1

    def test_empty_append_is_a_no_op(self, mined):
        relation, space, _ = mined

        async def drive():
            with ThreadPoolExecutor(2) as executor:
                store, scheduler = self._make(relation, space, executor)
                return store, await scheduler.append([])

        store, result = asyncio.run(drive())
        assert result == {
            "appended": 0, "n_rows": 8, "generation": 0, "coalesced": 0,
        }
        assert store.generation == 0

    @staticmethod
    def _gate_commits(store):
        """Block the store's appends until released; returns the two events."""
        entered, release = threading.Event(), threading.Event()
        append = store.append

        def gated_append(*args, **kwargs):
            entered.set()
            release.wait(10)
            return append(*args, **kwargs)

        store.append = gated_append
        return entered, release

    def test_quota_counts_the_rows_of_a_flush_in_flight(self, mined):
        relation, space, _ = mined

        async def drive():
            with ThreadPoolExecutor(2) as executor:
                store, scheduler = self._make(relation, space, executor, max_rows=10)
                entered, release = self._gate_commits(store)
                try:
                    first = asyncio.ensure_future(
                        scheduler.append(plain_rows(relation, [8, 9]))
                    )
                    await asyncio.get_running_loop().run_in_executor(
                        None, entered.wait, 10
                    )
                    # The flush holding rows 8-9 has left the pending list
                    # but not reached the store: it still counts.
                    with pytest.raises(QuotaExceeded):
                        await scheduler.append(plain_rows(relation, [10, 11]))
                finally:
                    release.set()
                await first
                await scheduler.drain()
                return store

        assert asyncio.run(drive()).n_rows == 10

    def test_quota_is_checked_again_after_a_backpressure_wait(self, mined):
        relation, space, _ = mined

        async def drive():
            with ThreadPoolExecutor(2) as executor:
                store, scheduler = self._make(
                    relation, space, executor, max_rows=10, max_pending_rows=1
                )
                entered, release = self._gate_commits(store)
                try:
                    # Row 8 parks and fills the pending bound; rows 9 and 10
                    # each pass the first check (8 + 1 pending + 1 <= 10) and
                    # wait.  The flush takes row 8, row 9 parks, and row 10
                    # would make 11.
                    tasks = [
                        asyncio.ensure_future(scheduler.append(plain_rows(relation, [i])))
                        for i in (8, 9, 10)
                    ]
                    await asyncio.get_running_loop().run_in_executor(
                        None, entered.wait, 10
                    )
                    with pytest.raises(QuotaExceeded):
                        await asyncio.wait_for(tasks[2], 10)
                finally:
                    release.set()
                await asyncio.gather(*tasks[:2])
                await scheduler.drain()
                return store

        assert asyncio.run(drive()).n_rows == 10

    def test_results_match_store_state_and_listeners_fire_once(self, mined):
        relation, space, adcs = mined

        async def drive():
            with ThreadPoolExecutor(2) as executor:
                store, scheduler = self._make(relation, space, executor)
                counters = ViolationCounters(
                    ViolationService(store, adcs).hitting_words, store
                )
                await asyncio.gather(
                    *[scheduler.append(plain_rows(relation, [8 + i])) for i in range(7)]
                )
                await scheduler.drain()
                return store, counters

        store, counters = asyncio.run(drive())
        # One coalesced flush = one delta = one counter update, and the
        # counts still match a fresh rebuild-from-scratch exactly.
        assert counters.applied_deltas == store.generation == 1
        fresh = EvidenceStore(store.relation.copy(), space=space)
        assert counters.counts().tolist() == finalize_counts(fresh, adcs)


# ----------------------------------------------------------------------
# Server end to end
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def server():
    thread = ServerThread()
    yield thread
    thread.stop()


@pytest.fixture(scope="module")
def client(server):
    with ServeClient(*server.address) as client:
        yield client


class TestServerEndToEnd:
    def test_ping(self, client):
        response = client.ping()
        assert response["server"] == "repro-serve"
        assert response["protocol"] == protocol.PROTOCOL_VERSION

    @pytest.mark.parametrize("present", [1.5, 2])
    def test_json_null_keeps_a_numeric_column_ordered(self, client, present):
        """A seed with ``null`` in a number column and no ``types`` gets the
        same predicate space as the column typed ``float``."""
        rows = [
            {"x": present, "s": "a"},
            {"x": None, "s": "b"},
            {"x": present * 3, "s": "a"},
        ]
        name = f"nulls-{type(present).__name__}"
        inferred = client.create_store(name, rows)
        typed = client.create_store(f"{name}-typed", rows, {"x": "float", "s": "string"})
        try:
            assert inferred["n_predicates"] == typed["n_predicates"]
            expected = build_predicate_space(
                Relation.from_records("r", rows, {"x": ColumnType.FLOAT})
            )
            assert inferred["n_predicates"] == len(expected)
            assert same_column_predicate("x", Operator.LT) in expected
        finally:
            client.drop_store(name)
            client.drop_store(f"{name}-typed")

    def test_full_tenant_lifecycle_against_oracles(self, server, client, mined):
        relation, space, adcs = mined
        client.create_store("lifecycle", plain_rows(relation, range(12)))
        mined_response = client.remine("lifecycle", epsilon=0.05, limit=4)
        assert mined_response["mined"] == len(mined_response["constraints"]) > 0

        # Mined constraints answer exactly the pairwise oracle's counts.
        state = server.server._stores["lifecycle"]
        initial = relation.take(range(12))
        for index, constraint in enumerate(state.service.constraints):
            served = client.violations("lifecycle", index)
            assert served["count"] == constraint.violation_count(initial)
            assert served["total_pairs"] == 12 * 11

        # Appends are picked up by the counters without finalizing.
        client.append("lifecycle", plain_rows(relation, range(12, 15)))
        for index, constraint in enumerate(state.service.constraints):
            served = client.violations("lifecycle", index)
            assert served["count"] == constraint.violation_count(relation)
            finalized = client.violations("lifecycle", index, mode="finalize")
            assert finalized["count"] == served["count"]

        report = client.report("lifecycle")
        assert [entry["count"] for entry in report["report"]] == [
            constraint.violation_count(relation)
            for constraint in state.service.constraints
        ]
        client.drop_store("lifecycle")
        assert "lifecycle" not in client.ping()["stores"]

    def test_counter_reads_never_finalize(self, server, client, mined):
        relation, space, adcs = mined
        client.create_store("nofinal", plain_rows(relation, range(10)))
        client.remine("nofinal", epsilon=0.05, limit=3)
        state = server.server._stores["nofinal"]
        client.append("nofinal", plain_rows(relation, range(10, 13)))
        client.violations("nofinal", 0)
        client.report("nofinal")
        client.check_batch("nofinal", plain_rows(relation, [0]))
        # The whole read path ran off push counters + delta replay: the
        # finalized-evidence cache was never repopulated after the append.
        assert state.store._evidence is None
        # A snapshot-backed op *does* finalize (and caches).
        client.tuple_scores("nofinal", 0)
        assert state.store._evidence is not None
        client.drop_store("nofinal")

    def test_check_batch_matches_library_service(self, client, mined):
        relation, space, adcs = mined
        client.create_store("admit", plain_rows(relation, range(12)))
        client.remine("admit", epsilon=0.05, limit=4)
        response = client.check_batch("admit", plain_rows(relation, [0, 7, 14]))

        # Mirror the server exactly: store and space built from the seed
        # rows alone, then the same deterministic remine.
        store = EvidenceStore(relation.take(range(12)))
        oracle = ViolationService(store, store.remine(0.05)[:4], epsilon=0.05)
        expected = oracle.check_batch(plain_rows(relation, [0, 7, 14]))
        assert len(response["rows"]) == len(expected) == 3
        for served, admission in zip(response["rows"], expected):
            assert served["rates"] == pytest.approx(list(admission.rates))
            assert served["admissible"] == admission.admissible
        client.drop_store("admit")

    def test_violating_pairs_and_tuple_scores_match_oracle(self, server, client, mined):
        relation, space, adcs = mined
        client.create_store("heavy", plain_rows(relation, range(relation.n_rows)))
        client.remine("heavy", epsilon=0.05, limit=3)
        state = server.server._stores["heavy"]
        for index, constraint in enumerate(state.service.constraints):
            pairs = client.violating_pairs("heavy", index)
            assert sorted(map(tuple, pairs["pairs"])) == sorted(
                constraint.violating_pairs(relation)
            )
            assert pairs["truncated"] is False
            scores = client.tuple_scores("heavy", index, ranking=True)
            expected = np.zeros(relation.n_rows, dtype=np.int64)
            for left, right in constraint.violating_pairs(relation):
                expected[left] += 1
                expected[right] += 1
            assert scores["scores"] == expected.tolist()
        truncated = client.violating_pairs("heavy", 0, limit=1)
        if len(state.service.constraints) and truncated["pairs"]:
            assert len(truncated["pairs"]) <= 1
        client.drop_store("heavy")

    def test_declared_constraints_serve_like_mined_ones(self, client, mined):
        relation, space, adcs = mined
        client.create_store("declared", plain_rows(relation, range(relation.n_rows)))
        # Declare the first mined DC by hand over the wire.
        constraint = adcs[0].constraint
        spec = [
            {
                "left": p.left_column,
                "op": p.operator.value,
                "right": p.right_column,
                "form": p.form.value,
            }
            for p in constraint.predicates
        ]
        response = client.declare("declared", [spec], epsilon=0.05)
        assert response["constraints"] == [str(constraint)]
        served = client.violations("declared", 0)
        assert served["count"] == constraint.violation_count(relation)
        client.drop_store("declared")

    def test_stats_partial_bytes_match_the_chunks(self, server, client, mined):
        relation, _, _ = mined
        client.create_store("bytes", plain_rows(relation, range(8)))
        for index in range(8, 12):
            client.append("bytes", plain_rows(relation, [index]))
        reported = client.stats()["stores"]["bytes"]["partial_bytes"]
        partial = server._server._stores["bytes"].store.partial
        assert reported == sum(
            chunk.nbytes for chunks in partial._chunk_lists() for chunk in chunks
        )
        client.drop_store("bytes")

    def test_multi_tenant_stores_are_independent(self, client, mined):
        relation, space, adcs = mined
        client.create_store("tenant_a", plain_rows(relation, range(8)))
        client.create_store("tenant_b", plain_rows(relation, range(relation.n_rows)))
        client.remine("tenant_a", epsilon=0.05, limit=2)
        client.remine("tenant_b", epsilon=0.05, limit=2)
        client.append("tenant_a", plain_rows(relation, range(8, 11)))
        stats = client.stats()["stores"]
        assert stats["tenant_a"]["n_rows"] == 11
        assert stats["tenant_b"]["n_rows"] == relation.n_rows
        assert stats["tenant_b"]["generation"] == 0
        # State gauges: chunk count and bytes of the stored partial, and
        # how often the store has compacted it.
        for entry in stats.values():
            assert entry["partial_chunks"] > 0 and entry["partial_bytes"] > 0
        assert stats["tenant_b"]["compactions"] == 0
        before = stats["tenant_a"]["compactions"]
        for index in range(11, relation.n_rows):
            client.append("tenant_a", plain_rows(relation, [index]))
        after = client.stats()["stores"]["tenant_a"]
        assert after["compactions"] > before
        client.drop_store("tenant_a")
        client.drop_store("tenant_b")

    def test_concurrent_clients_coalesce_appends(self, server, client, mined):
        relation, space, adcs = mined
        client.create_store("coalesce", plain_rows(relation, range(8)))
        client.remine("coalesce", epsilon=0.1, limit=2)

        def append_one(index):
            with ServeClient(*server.address) as own:
                return own.append("coalesce", plain_rows(relation, [index]))

        with ThreadPoolExecutor(7) as pool:
            results = list(pool.map(append_one, range(8, 15)))
        stats = client.stats()["stores"]["coalesce"]
        assert stats["n_rows"] == 15
        assert stats["append"]["appended_rows"] == 7
        # Wire latency makes perfect 7-way coalescing timing-dependent,
        # but the committed state must be exact regardless of grouping.
        assert stats["append"]["flushes"] <= 7
        assert sum(r["appended"] for r in results) == 7
        # Counters absorbed every committed delta bit-identically.
        state = server.server._stores["coalesce"]
        fresh = EvidenceStore(state.store.relation.copy(), space=space)
        oracle = ViolationService(fresh, state.service.constraints)
        assert state.counters.counts().tolist() == [
            oracle.violations(i).count
            for i in range(len(state.service.constraints))
        ]
        client.drop_store("coalesce")

    def test_error_frames(self, client, mined):
        relation, _, _ = mined
        with pytest.raises(ServeError) as excinfo:
            client.violations("no_such_store", 0)
        assert excinfo.value.code == protocol.UNKNOWN_STORE
        with pytest.raises(ServeError) as excinfo:
            client.request("frobnicate")
        assert excinfo.value.code == protocol.UNKNOWN_OP
        with pytest.raises(ServeError) as excinfo:
            client.create_store("bad", [])
        assert excinfo.value.code == protocol.BAD_REQUEST

        client.create_store("errors", plain_rows(relation, range(8)))
        with pytest.raises(ServeError) as excinfo:
            client.create_store("errors", plain_rows(relation, range(8)))
        assert excinfo.value.code == protocol.STORE_EXISTS
        with pytest.raises(ServeError) as excinfo:
            client.violations("errors", 0)
        assert excinfo.value.code == protocol.NO_CONSTRAINTS
        client.remine("errors", epsilon=0.05, limit=1)
        with pytest.raises(ServeError) as excinfo:
            client.violations("errors", 99)
        assert excinfo.value.code == protocol.BAD_REQUEST
        # The connection survives every error frame.
        assert client.ping()["server"] == "repro-serve"
        client.drop_store("errors")

    def test_malformed_frame_gets_error_then_close(self, server):
        host, port = server.address
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.settimeout(10)
            payload = b"this is not json"
            sock.sendall(protocol.HEADER.pack(len(payload)) + payload)
            response = protocol.read_frame(sock)
            assert response["ok"] is False
            assert response["error"]["code"] == protocol.BAD_REQUEST
            # The server closes the connection after answering.
            assert sock.recv(1) == b""


class TestGracefulDrain:
    def test_stop_commits_pending_appends(self, mined):
        relation, space, _ = mined
        thread = ServerThread(flush_window=0.05)
        try:
            with ServeClient(*thread.address) as client:
                client.create_store("drain", plain_rows(relation, range(8)))
                responses = []
                appender = threading.Thread(
                    target=lambda: responses.append(
                        client.append("drain", plain_rows(relation, [8]))
                    )
                )
                appender.start()
                appender.join(timeout=10)
                state = thread.server._stores["drain"]
        finally:
            thread.stop()
        assert responses and responses[0]["appended"] == 1
        assert state.store.n_rows == 9

    def test_requests_during_drain_get_shutting_down(self, mined):
        relation, _, _ = mined
        thread = ServerThread()
        client = ServeClient(*thread.address)
        try:
            client.create_store("late", plain_rows(relation, range(8)))
            thread.stop()
            with pytest.raises((ServeError, ConnectionError)):
                client.append("late", plain_rows(relation, [8]))
        finally:
            client.close()
            thread.stop()


class TestMainEntryPoint:
    def test_parse_address(self):
        from repro.serve.__main__ import parse_address

        assert parse_address("10.0.0.7:9000") == ("10.0.0.7", 9000)
        with pytest.raises(ValueError):
            parse_address("no-port")

    @pytest.mark.parametrize(
        "address, expected",
        [
            ("127.0.0.1:0", ("127.0.0.1", 0)),
            ("localhost:7332", ("localhost", 7332)),
            ("0.0.0.0:65535", ("0.0.0.0", 65535)),
        ],
    )
    def test_parse_address_accepts_host_port(self, address, expected):
        from repro.serve.__main__ import parse_address

        assert parse_address(address) == expected

    @pytest.mark.parametrize("address", [":9000", "host:", "host:port", "host:-1"])
    def test_parse_address_rejects(self, address):
        from repro.serve.__main__ import parse_address

        with pytest.raises(ValueError, match="host:port"):
            parse_address(address)

    def test_boot_serve_sigterm_drain(self, mined):
        relation, _, _ = mined
        # The subprocess does not inherit pytest's pythonpath ini; point it
        # at the same repro package this process imported.
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(sys.modules["repro"].__file__))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--listen", "127.0.0.1:0"],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            banner = proc.stdout.readline()
            match = re.search(r"listening on ([\d.]+):(\d+)", banner)
            assert match, f"unexpected banner: {banner!r}"
            host, port = match.group(1), int(match.group(2))
            with ServeClient(host, port) as client:
                client.create_store("cli", plain_rows(relation, range(8)))
                client.remine("cli", epsilon=0.05, limit=2)
                assert client.violations("cli", 0)["count"] >= 0
            proc.send_signal(signal.SIGTERM)
            assert "drained" in proc.stdout.readline()
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)


# ----------------------------------------------------------------------
# The op table, pinned to observed behaviour over the wire
# ----------------------------------------------------------------------
OPS = protocol.OPS

#: A valid value for every field any op declares (a new field needs one).
SAMPLE_FIELDS = {
    "dc": 0, "epsilon": 0.1, "limit": 5, "max_dc_size": 2,
    "request_key": "table-key", "types": {}, "function": "f1",
    "mode": "counters", "ranking": False, "format": "json", "trace": True,
    "constraints": [[
        {"left": "State", "op": "==", "right": "State"},
        {"left": "Zip", "op": "!=", "right": "Zip"},
    ]],
}


def sample_request(name, store, relation):
    """Valid fields for op ``name`` against ``store``."""
    values = {**SAMPLE_FIELDS, "store": store,
              "rows": plain_rows(relation, range(8, 10))}
    return {field.name: values[field.name] for field in OPS[name].fields}


def wait_until(condition, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


def error_code(client, name, **fields):
    with pytest.raises(ServeError) as excinfo:
        client.request(name, **fields)
    return excinfo.value.code


class TestOpTable:
    @pytest.mark.parametrize(
        "name", [n for n, op in OPS.items() if any(f.name == "store" for f in op.fields)],
    )
    def test_store_field_is_required(self, client, mined, name):
        request = sample_request(name, "unused", mined[0])
        del request["store"]
        assert error_code(client, name, **request) == protocol.BAD_REQUEST

    @pytest.mark.parametrize("name", [n for n, op in OPS.items() if op.store])
    def test_unknown_store_is_refused(self, client, mined, name):
        request = sample_request(name, "table_no_such_store", mined[0])
        assert error_code(client, name, **request) == protocol.UNKNOWN_STORE

    @pytest.mark.parametrize("name", [n for n, op in OPS.items() if op.store])
    def test_constraint_flag_matches_behaviour(self, client, mined, name):
        relation = mined[0]
        store = f"table_{name}"
        client.create_store(store, plain_rows(relation, range(8)))
        try:
            request = sample_request(name, store, relation)
            if OPS[name].constraints:
                code = error_code(client, name, **request)
                assert code == protocol.NO_CONSTRAINTS
            else:
                assert client.request(name, **request)["ok"] is True
        finally:
            if name != "drop_store":
                client.drop_store(store)

    def test_drain_answers_only_drain_safe_ops(self, mined):
        relation = mined[0]
        # A parked append holds the drain open for the flush window while
        # connections stay up, so requests can arrive mid-drain.
        thread = ServerThread(flush_window=3.0)
        appender = ServeClient(*thread.address)
        late = ServeClient(*thread.address)
        try:
            appender.create_store("draining", plain_rows(relation, range(8)))
            late.ping()
            state = thread.server._stores["draining"]
            parked = threading.Thread(
                target=appender.append,
                args=("draining", plain_rows(relation, [8])),
            )
            parked.start()
            wait_until(lambda: state.scheduler.pending_requests == 1)
            stopper = threading.Thread(target=thread.stop)
            stopper.start()
            wait_until(lambda: thread.server._stopping)
            answered = {}
            for name in OPS:
                try:
                    late.request(name, **sample_request(name, "draining", relation))
                    answered[name] = "ok"
                except ServeError as error:
                    answered[name] = error.code
            assert answered == {
                name: "ok" if op.drain_safe else protocol.SHUTTING_DOWN
                for name, op in OPS.items()
            }
            parked.join(timeout=30)
            stopper.join(timeout=30)
            assert not parked.is_alive() and not stopper.is_alive()
            assert state.store.n_rows == 9  # the parked append committed
        finally:
            appender.close()
            late.close()
            thread.stop()


class TestFieldValidation:
    """Wire epsilon, limit and max_dc_size are refused, not half-applied."""

    @pytest.fixture(scope="class")
    def declared(self, client, mined):
        client.create_store("fields", plain_rows(mined[0], range(10)))
        client.declare("fields", SAMPLE_FIELDS["constraints"], epsilon=0.2)
        yield "fields"
        client.drop_store("fields")

    @staticmethod
    def served(client, store):
        report = client.report(store)["report"]
        epsilon = client.check_batch(store, [])["epsilon"]
        return [entry["constraint"] for entry in report], epsilon

    def assert_refused(self, client, store, name, **fields):
        before = self.served(client, store)
        assert error_code(client, name, store=store, **fields) == protocol.BAD_REQUEST
        assert self.served(client, store) == before

    @pytest.mark.parametrize("name", ["set_epsilon", "declare", "remine"])
    @pytest.mark.parametrize(
        "epsilon", [-1, -0.01, 1.5, float("nan"), float("inf"), True, "0.1"]
    )
    def test_epsilon(self, client, declared, name, epsilon):
        fields = {"epsilon": epsilon}
        if name == "declare":
            fields["constraints"] = SAMPLE_FIELDS["constraints"]
        self.assert_refused(client, declared, name, **fields)

    @pytest.mark.parametrize("name", ["remine", "violating_pairs"])
    @pytest.mark.parametrize("limit", [0, -1, True, 1.5, "3"])
    def test_limit(self, client, declared, name, limit):
        fields = {"limit": limit}
        if name == "violating_pairs":
            fields["dc"] = 0
        self.assert_refused(client, declared, name, **fields)

    @pytest.mark.parametrize("max_dc_size", [0, -1, True, 2.5, "2"])
    def test_max_dc_size(self, client, declared, max_dc_size):
        self.assert_refused(
            client, declared, "remine", epsilon=0.1, max_dc_size=max_dc_size
        )

    def test_bounds_are_accepted(self, client, declared):
        assert client.set_epsilon(declared, 0)["epsilon"] == 0.0
        assert client.set_epsilon(declared, 1)["epsilon"] == 1.0
        assert len(client.violating_pairs(declared, 0, limit=1)["pairs"]) <= 1


class TestClientRetries:
    @pytest.mark.parametrize("name", sorted(OPS))
    def test_only_idempotent_ops_are_resent(self, name):
        # A port nothing listens on: every attempt fails to connect.
        with socket.create_server(("127.0.0.1", 0)) as probe:
            port = probe.getsockname()[1]
        client = ServeClient("127.0.0.1", port, retries=2, retry_backoff=0.001)
        with pytest.raises(ConnectionError):
            client.request(name, store="s")
        assert client.reconnects == (2 if OPS[name].idempotent else 0)

    def test_keyed_append_is_resent(self):
        with socket.create_server(("127.0.0.1", 0)) as probe:
            port = probe.getsockname()[1]
        client = ServeClient("127.0.0.1", port, retries=2, retry_backoff=0.001)
        with pytest.raises(ConnectionError):
            client.request("append", store="s", rows=[], request_key="k")
        assert client.reconnects == 2


def readme_protocol_table():
    """``{op: [field, ...]}`` from README's ``| Op | Fields | Answers |`` rows.

    A field is the first backticked word of each comma-separated item,
    keeping its ``?`` (optional) marker.
    """
    readme = Path(__file__).resolve().parent.parent / "README.md"
    lines = readme.read_text().splitlines()
    start = lines.index("| Op | Fields | Answers |") + 2
    table = {}
    for line in itertools.takewhile(lambda l: l.startswith("|"), lines[start:]):
        op_cell, fields_cell, _ = (cell.strip() for cell in line.strip("|").split(" | "))
        fields = [
            re.match(r"`([^`]+)`", item.strip()).group(1)
            for item in fields_cell.split(", ")
            if item.strip() != "—"
        ]
        table[op_cell.strip("`")] = fields
    return table


def test_readme_protocol_table_matches_ops():
    declared = {
        name: [field.name + ("" if field.required else "?") for field in op.fields]
        for name, op in OPS.items()
    }
    assert readme_protocol_table() == declared
