"""Unit and property tests of the observability layer (:mod:`repro.obs`).

The registry's correctness contract is concurrency-independent counting:
whatever interleaving executor threads and asyncio callbacks produce,
every per-tenant counter must equal the serial tally of its increments,
and every histogram bucket must hold exactly the observations at or below
its bound (Prometheus ``le`` semantics).  Both
are hypothesis properties here.  The rest covers the enabled gate, the
Prometheus text renderer, trace spans (disjoint segments, ambient
propagation across a thread hop), and the structured JSON logger.
"""

from __future__ import annotations

import io
import json
import threading

import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import make_random_relation
from tests.test_engine import assert_evidence_identical
from repro.core.evidence_builder import build_evidence_set_dense, build_evidence_set_tiled
from repro.core.predicate_space import build_predicate_space
from repro.incremental import EvidenceStore
from repro.obs import metrics as obs_metrics
from repro.obs.logging import JsonLogger
from repro.obs.prometheus import render_text
from repro.obs.registry import DEFAULT_LATENCY_BUCKETS, MetricsRegistry, get_registry
from repro.obs.spans import Span, bound, current, use


# ----------------------------------------------------------------------
# Registry basics
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_and_gauge_roundtrip(self):
        registry = MetricsRegistry()
        counter = registry.counter("events_total", "events")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        gauge = registry.gauge("depth", "depth", ("store",))
        gauge.set_labels("a", value=7)
        gauge.labels("a").dec(3)
        assert gauge.value_labels("a") == 4.0

    def test_counters_only_go_up(self):
        registry = MetricsRegistry()
        counter = registry.counter("events_total", "events")
        with pytest.raises(ValueError):
            counter.labels().inc(-1)

    def test_registration_is_idempotent_and_type_checked(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", "x", ("op",))
        assert registry.counter("x_total", "x", ("op",)) is first
        with pytest.raises(ValueError):
            registry.gauge("x_total", "x", ("op",))
        with pytest.raises(ValueError):
            registry.counter("x_total", "x", ("other",))

    def test_invalid_names_and_buckets_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("bad name", "x")
        with pytest.raises(ValueError):
            registry.histogram("h", "x", buckets=())
        with pytest.raises(ValueError):
            registry.histogram("h", "x", buckets=(1.0, 1.0))

    def test_disabled_registry_is_inert(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("events_total", "events", ("op",))
        hist = registry.histogram("lat_seconds", "lat")
        gauge = registry.gauge("depth", "depth")
        counter.inc_labels("append")
        hist.observe(0.5)
        gauge.set(9)
        assert counter.value_labels("append") == 0.0
        assert hist.labels().count == 0
        assert gauge.value == 0.0
        registry.enabled = True
        counter.inc_labels("append")
        assert counter.value_labels("append") == 1.0

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "c", ("op",)).inc_labels("ping")
        registry.histogram("h_seconds", "h").observe(0.25)
        snap = registry.snapshot()
        assert snap["c_total"]["type"] == "counter"
        assert snap["c_total"]["samples"][0] == {
            "labels": {"op": "ping"}, "value": 1.0,
        }
        hist_sample = snap["h_seconds"]["samples"][0]
        assert hist_sample["count"] == 1
        assert hist_sample["sum"] == 0.25
        assert hist_sample["buckets"][-1] == ["+Inf", 1]
        assert json.dumps(snap)  # JSON-serializable end to end


class TestKillSwitchParity:
    """With the default registry disabled, evidence builds and store
    appends are bit-identical and move no evidence metric."""

    @pytest.fixture()
    def obs_off(self):
        registry = get_registry()
        saved = registry.enabled
        registry.enabled = False
        try:
            yield registry
        finally:
            registry.enabled = saved

    @staticmethod
    def readings():
        return (
            obs_metrics.EVIDENCE_TILES.value,
            obs_metrics.EVIDENCE_PAIRS.value,
            obs_metrics.EVIDENCE_TILE_SECONDS.labels().count,
        )

    def test_disabled_build_is_bit_identical(self, obs_off):
        relation = make_random_relation(n_rows=14, seed=6)
        space = build_predicate_space(relation)
        before = self.readings()
        built = build_evidence_set_tiled(relation, space, tile_rows=4)
        assert self.readings() == before
        obs_off.enabled = True
        assert_evidence_identical(
            built, build_evidence_set_tiled(relation, space, tile_rows=4)
        )
        assert self.readings() != before

    def test_disabled_store_append_is_bit_identical(self, obs_off):
        relation = make_random_relation(n_rows=14, seed=7)
        space = build_predicate_space(relation)
        before = self.readings()
        store = EvidenceStore(relation.take(range(9)), space=space, tile_rows=4)
        store.append(relation.take(range(9, 14)))
        assert self.readings() == before
        assert_evidence_identical(store.evidence(), build_evidence_set_dense(relation, space))


# ----------------------------------------------------------------------
# Property: concurrent per-tenant counting equals the serial tally
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["tenant-a", "tenant-b", "tenant-c"]),
            st.integers(min_value=1, max_value=100),
        ),
        max_size=200,
    ),
    n_threads=st.integers(min_value=1, max_value=6),
)
def test_concurrent_tenant_counters_match_serial_tally(ops, n_threads):
    registry = MetricsRegistry()
    counter = registry.counter("rows_total", "appended rows", ("store",))
    barrier = threading.Barrier(n_threads)

    def worker(shard):
        barrier.wait()  # maximize interleaving
        for tenant, amount in shard:
            counter.inc_labels(tenant, amount=amount)

    threads = [
        threading.Thread(target=worker, args=(ops[i::n_threads],))
        for i in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    expected: dict[str, int] = {}
    for tenant, amount in ops:
        expected[tenant] = expected.get(tenant, 0) + amount
    for tenant, total in expected.items():
        assert counter.value_labels(tenant) == total


# ----------------------------------------------------------------------
# Property: histogram buckets hold exactly the values <= their bound
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=0.0, max_value=100.0,
                  allow_nan=False, allow_infinity=False),
        max_size=60,
    )
)
def test_histogram_bucket_boundaries(values):
    bounds = (0.5, 1.0, 5.0, 25.0)
    registry = MetricsRegistry()
    hist = registry.histogram("lat_seconds", "lat", buckets=bounds)
    for value in values:
        hist.observe(value)
    snap = hist.labels().snapshot()
    for bound_value, cumulative in snap["buckets"][:-1]:
        assert cumulative == sum(1 for v in values if v <= bound_value)
    assert snap["buckets"][-1] == ["+Inf", len(values)]
    assert snap["count"] == len(values)
    assert snap["sum"] == pytest.approx(sum(values))


def test_histogram_boundary_value_is_inclusive():
    """An observation exactly on a bound lands in that bound's bucket."""
    registry = MetricsRegistry()
    hist = registry.histogram("lat_seconds", "lat", buckets=(0.5, 1.0, 5.0))
    hist.observe(1.0)
    snap = hist.labels().snapshot()
    assert dict((b, c) for b, c in snap["buckets"]) == {
        0.5: 0, 1.0: 1, 5.0: 1, "+Inf": 1,
    }


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
class TestPrometheusRender:
    def test_render_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.counter("repro_req_total", "Requests.", ("op",)).inc_labels(
            "append", amount=3
        )
        registry.gauge("repro_depth", "Depth.").set(2)
        hist = registry.histogram(
            "repro_lat_seconds", "Latency.", buckets=(0.1, 1.0)
        )
        hist.observe(0.05)
        hist.observe(0.5)
        text = render_text(registry)
        lines = text.splitlines()
        assert "# TYPE repro_req_total counter" in lines
        assert 'repro_req_total{op="append"} 3' in lines
        assert "# TYPE repro_depth gauge" in lines
        assert "repro_depth 2" in lines
        assert "# TYPE repro_lat_seconds histogram" in lines
        assert 'repro_lat_seconds_bucket{le="0.1"} 1' in lines
        assert 'repro_lat_seconds_bucket{le="1"} 2' in lines
        assert 'repro_lat_seconds_bucket{le="+Inf"} 2' in lines
        assert "repro_lat_seconds_count 2" in lines
        assert text.endswith("\n")

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("repro_err_total", "Errors.", ("msg",)).inc_labels(
            'quote " backslash \\ newline \n'
        )
        text = render_text(registry)
        assert (
            'repro_err_total{msg="quote \\" backslash \\\\ newline \\n"} 1'
            in text
        )

    def test_unfired_labeled_family_still_emits_headers(self):
        """A scrape sees the whole declared surface, fired or not."""
        registry = MetricsRegistry()
        registry.counter("repro_quiet_total", "Never incremented.", ("op",))
        text = render_text(registry)
        assert "# HELP repro_quiet_total Never incremented." in text
        assert "# TYPE repro_quiet_total counter" in text


# ----------------------------------------------------------------------
# Trace spans
# ----------------------------------------------------------------------
class TestSpans:
    def test_segments_accumulate_and_clamp(self):
        span = Span("abc", op="append")
        span.add_segment("fold", 0.25)
        span.add_segment("fold", 0.25)
        span.add_segment("queue", -1.0)  # clock skew clamps to zero
        assert span.segments == {"fold": 0.5, "queue": 0.0}
        assert span.accounted() == 0.5
        payload = span.jsonable()
        assert payload["trace_id"] == "abc"

    def test_ambient_stack_nests(self):
        outer, inner = Span("o", op="x"), Span("i", op="y")
        assert current() is None
        with use(outer):
            assert current() is outer
            with use(inner):
                assert current() is inner
            assert current() is outer
        assert current() is None
        with use(None):  # no-op block
            assert current() is None

    def test_bound_crosses_thread_hop(self):
        span = Span("t", op="append")
        seen: list[Span | None] = []

        def work():
            seen.append(current())

        thread = threading.Thread(target=bound(span, work))
        thread.start()
        thread.join()
        assert seen == [span]
        assert bound(None, work) is work  # no wrapper when untraced

    def test_segment_context_manager_times(self):
        span = Span("t", op="append")
        with span.segment("fold"):
            pass
        assert "fold" in span.segments
        assert span.segments["fold"] >= 0.0


# ----------------------------------------------------------------------
# Structured JSON logging
# ----------------------------------------------------------------------
class TestJsonLogger:
    def test_one_json_object_per_line(self):
        stream = io.StringIO()
        log = JsonLogger(stream=stream, min_level="info", name="test")
        log.info("request", op="append", store="t1", code="ok", seconds=0.5)
        log.debug("suppressed", detail="below min level")
        log.warning("slow_op", segments={"fold": 0.4})
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["event"] == "request"
        assert first["level"] == "info"
        assert first["logger"] == "test"
        assert first["op"] == "append" and first["code"] == "ok"
        second = json.loads(lines[1])
        assert second["segments"] == {"fold": 0.4}

    def test_unserializable_fields_fall_back_to_repr(self):
        stream = io.StringIO()
        log = JsonLogger(stream=stream, min_level="info")

        class Weird:
            def __repr__(self) -> str:
                return "<weird>"

        log.error("boom", payload=Weird())
        record = json.loads(stream.getvalue())
        assert record["payload"] == "<weird>"

    def test_numpy_scalars_serialize(self):
        np = pytest.importorskip("numpy")
        stream = io.StringIO()
        log = JsonLogger(stream=stream)
        log.info("count", n=np.int64(7), rate=np.float64(0.5))
        record = json.loads(stream.getvalue())
        assert record["n"] == 7 and record["rate"] == 0.5

    def test_broken_stream_never_raises(self):
        class Broken(io.StringIO):
            def write(self, *_args: object) -> int:
                raise OSError("gone")

        log = JsonLogger(stream=Broken())
        log.info("fine")  # must not raise

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            JsonLogger(min_level="loud")
