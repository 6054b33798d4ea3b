"""End-to-end observability through the serving stack.

Boots real servers (:class:`~repro.serve.server.ServerThread`) and checks
the three exposure surfaces the obs layer promises: the ``metrics`` wire
op (JSON snapshot and Prometheus text), the ``--metrics-port`` HTTP
endpoint (well-formed exposition covering the serve/durability/mining
series), and per-request trace spans whose disjoint segments sum
to the request's wall latency.  The process metrics registry is global
and cumulative, so every assertion here is a before/after delta or a
lower bound, never an absolute count.
"""

from __future__ import annotations

import random
import re
import time
import urllib.request

import pytest

from repro.obs import metrics as obs_metrics
from repro.obs.registry import get_registry
from repro.serve import ServeClient, ServerThread


def random_rows(n: int, seed: int, domain: int = 6) -> list[dict]:
    rng = random.Random(seed)
    return [
        {"A": rng.randrange(domain), "B": rng.randrange(domain),
         "C": f"v{rng.randrange(domain)}"}
        for _ in range(n)
    ]


def scrape(address: tuple[str, int]) -> str:
    url = f"http://{address[0]}:{address[1]}/metrics"
    with urllib.request.urlopen(url, timeout=10.0) as response:
        assert response.status == 200
        assert response.headers["Content-Type"].startswith("text/plain")
        return response.read().decode("utf-8")


#: One exposition sample line: name, optional {labels}, numeric value.
_SAMPLE = re.compile(
    r"^[A-Za-z_:][A-Za-z0-9_:]*(\{[^{}]*\})? "
    r"(-?\d+(\.\d+)?([eE][+-]?\d+)?|\+Inf|-Inf|NaN)$"
)


class TestMetricsOp:
    def test_json_snapshot_counts_requests(self, tmp_path):
        with ServerThread(data_dir=tmp_path) as (host, port):
            with ServeClient(host, port) as client:
                client.create_store("mt1", random_rows(40, seed=1))
                client.append("mt1", random_rows(10, seed=2))
                result = client.metrics()
                assert result["format"] == "json"
                assert result["enabled"] is True
                families = result["metrics"]
                requests = families["repro_serve_requests_total"]
                assert requests["type"] == "counter"
                appended = [
                    s for s in requests["samples"]
                    if s["labels"]
                    == {"op": "append", "store": "mt1", "code": "ok"}
                ]
                assert appended and appended[0]["value"] >= 1
                latency = families["repro_serve_request_seconds"]
                assert any(
                    s["labels"] == {"op": "append"} and s["count"] >= 1
                    for s in latency["samples"]
                )

    def test_text_format_matches_http_exposition(self):
        with ServerThread() as (host, port):
            with ServeClient(host, port) as client:
                client.ping()
                result = client.metrics(format="text")
                assert result["format"] == "text"
                assert (
                    "# TYPE repro_serve_requests_total counter"
                    in result["text"]
                )

    def test_unknown_format_rejected(self):
        from repro.serve import ServeError

        with ServerThread() as (host, port):
            with ServeClient(host, port) as client:
                with pytest.raises(ServeError) as excinfo:
                    client.metrics(format="xml")
                assert excinfo.value.code == "bad_request"

    def test_error_codes_labelled(self):
        from repro.serve import ServeError

        with ServerThread() as (host, port):
            with ServeClient(host, port) as client:
                with pytest.raises(ServeError):
                    client.report("no-such-store")
                families = client.metrics()["metrics"]
                samples = families["repro_serve_requests_total"]["samples"]
                assert any(
                    s["labels"]["op"] == "report"
                    and s["labels"]["code"] == "unknown_store"
                    and s["value"] >= 1
                    for s in samples
                )


class TestRequestHygiene:
    def test_client_supplied_span_key_is_stripped(self, tmp_path):
        """A smuggled ``_span`` field must not reach the append scheduler.

        Regression: a raw ``{"op": "append", ..., "_span": {}}`` request
        used to hand a plain dict to the flush loop as the trace span,
        crashing it and stranding every co-batched append.
        """
        with ServerThread(data_dir=tmp_path) as (host, port):
            with ServeClient(host, port) as client:
                client.create_store("hy1", random_rows(20, seed=11))
                smuggled = client.request(
                    "append", store="hy1",
                    rows=random_rows(5, seed=12), _span={"bogus": 1},
                )
                assert smuggled["appended"] == 5
                # The flush loop survived: later appends still commit.
                follow_up = client.append("hy1", random_rows(5, seed=13))
                assert follow_up["appended"] == 5

    def test_invented_ops_and_stores_collapse_to_sentinel_labels(self):
        from repro.serve import ServeError

        with ServerThread() as (host, port):
            with ServeClient(host, port) as client:
                with pytest.raises(ServeError):
                    client.request("hy_no_such_op_x")
                with pytest.raises(ServeError):
                    client.request("report", store="hy_no_such_store_y")
                samples = client.metrics()["metrics"][
                    "repro_serve_requests_total"]["samples"]
                ops = {s["labels"]["op"] for s in samples}
                stores = {s["labels"]["store"] for s in samples}
                assert "_unknown" in ops and "_unknown" in stores
                assert "hy_no_such_op_x" not in ops
                assert "hy_no_such_store_y" not in stores


class TestPrometheusEndpoint:
    def test_exposition_well_formed_and_covers_subsystems(self, tmp_path):
        thread = ServerThread(data_dir=tmp_path, metrics_port=0)
        try:
            host, port = thread.address
            assert thread.metrics_address is not None
            with ServeClient(host, port, timeout=120.0) as client:
                client.create_store("pe2", random_rows(60, seed=5))
                client.append("pe2", random_rows(30, seed=6))
                client.remine("pe2", epsilon=0.1)
            text = scrape(thread.metrics_address)

            # Structurally well-formed: every line is a comment or a
            # sample; histograms' cumulative buckets are monotone.
            help_names, type_names = set(), set()
            for line in text.splitlines():
                if line.startswith("# HELP "):
                    help_names.add(line.split(" ", 3)[2])
                elif line.startswith("# TYPE "):
                    type_names.add(line.split(" ", 3)[2])
                else:
                    assert _SAMPLE.match(line), f"malformed line: {line!r}"
            assert help_names == type_names

            # Group buckets by (name, labels-without-le): each child's
            # cumulative counts must be monotone in exposition order.
            bucket_counts: dict[str, list[int]] = {}
            for line in text.splitlines():
                if "_bucket{" in line:
                    name, labels = line.split("{", 1)
                    labels = re.sub(r'le="[^"]*",?', "", labels.split("}")[0])
                    bucket_counts.setdefault(f"{name}{{{labels}}}", []).append(
                        int(float(line.rsplit(" ", 1)[1]))
                    )
            assert bucket_counts, "no histogram buckets in exposition"
            for series, counts in bucket_counts.items():
                assert counts == sorted(counts), f"{series} not cumulative"

            # Every subsystem's series are visible...
            for family in (
                "repro_serve_requests_total",
                "repro_serve_request_seconds",
                "repro_serve_connections",
                "repro_serve_append_pending_rows",
                "repro_wal_records_total",
                "repro_wal_fsync_seconds",
                "repro_durability_recovery_stores_total",
                "repro_mining_runs_total",
                "repro_mining_nodes_visited",
                "repro_evidence_tiles_total",
            ):
                assert f"# TYPE {family} " in text, family

            # ...and the exercised ones carry real samples.
            assert re.search(
                r'repro_serve_requests_total\{[^}]*op="append"[^}]*\} [1-9]',
                text,
            )
            assert re.search(r"repro_wal_records_total [1-9]", text)
            assert re.search(
                r'repro_mining_runs_total\{store="pe2"\} [1-9]', text
            )
            assert re.search(
                r'repro_mining_nodes_visited\{store="pe2"\} [1-9]', text
            )
        finally:
            thread.stop()

    def test_404_and_405(self, tmp_path):
        thread = ServerThread(metrics_port=0)
        try:
            address = thread.metrics_address
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"http://{address[0]}:{address[1]}/nope", timeout=10.0
                )
            assert excinfo.value.code == 404
            request = urllib.request.Request(
                f"http://{address[0]}:{address[1]}/metrics",
                data=b"x",  # POST
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10.0)
            assert excinfo.value.code == 405
        finally:
            thread.stop()

    def test_healthz_reports_liveness_json(self, tmp_path):
        import json

        thread = ServerThread(data_dir=tmp_path, metrics_port=0)
        try:
            host, port = thread.address
            with ServeClient(host, port) as client:
                client.create_store("hz1", random_rows(20, seed=9))
            address = thread.metrics_address
            with urllib.request.urlopen(
                f"http://{address[0]}:{address[1]}/healthz", timeout=10.0
            ) as response:
                assert response.status == 200
                assert response.headers["Content-Type"].startswith(
                    "application/json"
                )
                health = json.loads(response.read().decode("utf-8"))
            assert health["status"] == "ok"
            assert health["stores"] == 1
            assert health["recovery_failures"] == 0
            assert health["uptime_seconds"] >= 0.0
            assert health["requests_served"] >= 1
        finally:
            thread.stop()


class TestTraceSpans:
    def test_traced_append_segments_sum_to_wall_latency(self, tmp_path):
        """The acceptance contract: queue + fold + journal_fsync + commit +
        ack account for the traced append's latency to within 10%."""
        with ServerThread(data_dir=tmp_path) as (host, port):
            with ServeClient(host, port, timeout=120.0) as client:
                # Sized so the fold dominates: client-side encode and the
                # loopback round trip must stay inside the 10% tolerance.
                client.create_store("tr1", random_rows(1000, seed=7))
                batch = random_rows(600, seed=8)
                started = time.perf_counter()
                result = client.append("tr1", batch, trace=True)
                client_wall = time.perf_counter() - started
                trace = result["trace"]
                assert trace["op"] == "append"
                assert trace["store"] == "tr1"
                segments = trace["segments"]
                for name in ("queue", "fold", "journal_fsync", "commit",
                             "ack"):
                    assert name in segments, segments
                total = sum(segments.values())
                assert total == pytest.approx(trace["seconds"], rel=0.10)
                assert total == pytest.approx(client_wall, rel=0.10)

    def test_trace_id_echoed_and_absent_without_request(self):
        with ServerThread() as (host, port):
            with ServeClient(host, port) as client:
                client.create_store("tr2", random_rows(30, seed=9))
                plain = client.append("tr2", random_rows(5, seed=10))
                assert "trace" not in plain
                traced = client.append(
                    "tr2", random_rows(5, seed=11), trace="deadbeef00112233"
                )
                assert traced["trace"]["trace_id"] == "deadbeef00112233"

    def test_traced_remine_has_finalize_and_enumerate(self):
        with ServerThread() as (host, port):
            with ServeClient(host, port, timeout=120.0) as client:
                client.create_store("tr3", random_rows(50, seed=12))
                result = client.remine("tr3", epsilon=0.1, trace=True)
                segments = result["trace"]["segments"]
                assert "finalize" in segments
                assert "enumerate" in segments
                assert "ack" in segments


class TestRemineEnvelope:
    def test_enumeration_statistics_returned(self):
        with ServerThread() as (host, port):
            with ServeClient(host, port, timeout=120.0) as client:
                client.create_store("re1", random_rows(50, seed=13))
                result = client.remine("re1", epsilon=0.1)
                stats = result["enumeration"]
                assert stats["recursive_calls"] > 0
                assert stats["outputs"] == result["mined"] or (
                    # a limit clips the installed list, not the search
                    stats["outputs"] >= result["mined"]
                )
                assert stats["elapsed_seconds"] > 0.0
                assert stats["nodes_per_second"] > 0.0
                assert "max_stack_depth" in stats["extra"]


class TestRecoverySeries:
    def test_recovery_outcome_counted(self, tmp_path):
        before = obs_metrics.RECOVERY_STORES.value_labels("recovered")
        with ServerThread(data_dir=tmp_path) as (host, port):
            with ServeClient(host, port) as client:
                client.create_store("rec1", random_rows(30, seed=16))
                client.append("rec1", random_rows(10, seed=17))
        with ServerThread(data_dir=tmp_path) as (host, port):
            with ServeClient(host, port) as client:
                assert "rec1" in client.ping()["stores"]
        after = obs_metrics.RECOVERY_STORES.value_labels("recovered")
        assert after == before + 1


class TestEnabledGate:
    def test_disabled_registry_stops_counting_but_not_tracing(self):
        registry = get_registry()
        with ServerThread() as (host, port):
            with ServeClient(host, port) as client:
                client.create_store("gate1", random_rows(30, seed=18))
                before = obs_metrics.SERVE_REQUESTS.value_labels(
                    "append", "gate1", "ok"
                )
                registry.enabled = False
                try:
                    result = client.append(
                        "gate1", random_rows(5, seed=19), trace=True
                    )
                    # Tracing is per-request opt-in, independent of the gate.
                    assert "fold" in result["trace"]["segments"]
                    after = obs_metrics.SERVE_REQUESTS.value_labels(
                        "append", "gate1", "ok"
                    )
                    assert after == before
                finally:
                    registry.enabled = True
