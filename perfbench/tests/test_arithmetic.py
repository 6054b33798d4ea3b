"""Percentiles, span self times and seeded op sequences — no program needed."""

import json

import pytest

import layers
import run
import serve_workloads
import tracing
from common import ROOT
from calibrate import REFERENCE_S, scale_series, scaled
from stats import (Span, breakdown, median_replay, percentile, samples_beyond,
                   tail_percentile)


def test_nearest_rank_percentile():
    values = list(range(1, 151))
    assert percentile(values, 50) == 75
    assert percentile(values, 90) == 135
    assert percentile([3.0], 99) == 3.0
    assert percentile([5, 1, 4, 2, 3], 50) == 3
    with pytest.raises(ValueError):
        percentile([], 50)


def test_tail_percentile_needs_ten_samples_beyond():
    assert samples_beyond(150, 90) == 15
    assert tail_percentile(150) == 90
    assert tail_percentile(100) == 90
    assert tail_percentile(99) is None
    assert tail_percentile(999) == 90
    assert tail_percentile(1000) == 99


def test_median_replay_takes_each_op_at_its_median():
    replays = [[1.0, 5.0, 2.0], [3.0, 4.0, 2.5], [2.0, 6.0, 1.5]]
    assert median_replay(replays) == pytest.approx(2.0 + 5.0 + 2.0)
    # A replay with a failed op no longer lines up and is left out.
    assert median_replay([[1.0, 5.0], [0.1], [2.0, 4.0]]) == pytest.approx(1.5 + 4.5)


def test_scaling_cancels_the_host_pace():
    # Twice as slow a host doubles both the op and the paces around it.
    assert scaled(0.3, REFERENCE_S, REFERENCE_S) == pytest.approx(0.3)
    assert scaled(0.6, 2 * REFERENCE_S, 2 * REFERENCE_S) == pytest.approx(0.3)
    # In a series, an op's pace is the median of the paces nearest it, so
    # one burst hit by an interrupt does not count; failed ops are dropped.
    paces = [REFERENCE_S, REFERENCE_S, 9 * REFERENCE_S, REFERENCE_S, REFERENCE_S]
    assert scale_series([0.3, 0.3, None, 0.3], paces, reach=2) == pytest.approx([0.3] * 3)
    slow = [2 * REFERENCE_S] * 5
    assert scale_series([0.6, 0.6, 0.6, 0.6], slow, reach=2) == pytest.approx([0.3] * 4)


def _span(name, start, end, **counts):
    return Span(name, name.split(".", 1)[0], start, end, counts)


def test_self_time_of_a_nested_span_tree():
    # op [0, 10]:  serve [1, 9] > incremental [2, 6] > engine [3, 4], [5, 5.5]
    #                          > durability [7, 8]
    spans = [
        _span("serve.scheduler_ms", 1, 9),
        _span("incremental.append_ms", 2, 6, **{"serve.flush_rows": 1}),
        _span("engine.rebase_ms", 3, 4),
        _span("engine.merge_ms", 5, 5.5),
        _span("durability.log_append_ms", 7, 8),
    ]
    split = breakdown(0.0, 10.0, spans)
    assert split.layer_self == pytest.approx(
        {"serve": 3.0, "incremental": 2.5, "engine": 1.5, "durability": 1.0}
    )
    assert split.unattributed == pytest.approx(2.0)
    assert split.call_time["serve.scheduler_ms"] == pytest.approx(8.0)
    assert split.call_count == {"serve.flush_rows": 1}


def test_same_metric_nested_call_is_counted_once():
    spans = [
        _span("engine.tile_ms", 3, 4, **{"engine.tiles": 1}),
        _span("engine.tile_ms", 3.2, 3.8, **{"engine.tiles": 1}),
    ]
    split = breakdown(0.0, 5.0, spans)
    assert split.call_time == {"engine.tile_ms": pytest.approx(1.0)}
    assert split.call_count == {"engine.tiles": 1}
    assert split.layer_self == {"engine": pytest.approx(1.0)}
    assert split.unattributed == pytest.approx(4.0)


def test_round_totals_split_ops_and_queue_wait():
    ops = [("append", 0.0, 10.0), ("read", 10.0, 11.0)]
    spans = [
        _span("serve.scheduler_ms", 1, 9),
        _span("incremental.append_ms", 2, 6, **{"serve.flush_rows": 1}),
        _span("serve.codec_ms", 10.2, 10.4),
        _span("core.enum_ms", 20, 30),  # outside every op: dropped
    ]
    totals, matrix = layers.round_totals(ops, spans)
    assert totals["append.wall_ms"] == pytest.approx(10e3)
    assert totals["read.unattributed_ms"] == pytest.approx(0.8e3)
    assert totals["serve.queue_ms"] == pytest.approx(1e3)
    assert totals["serve.flush_rows"] == 1
    assert "core.enum_ms" not in totals
    assert matrix["append"]["serve"] == pytest.approx(4e3)


def test_wrapper_cost_is_small_and_positive():
    # A wrapper reads the clock twice and appends one span.
    assert 0.0 < tracing.wrapper_seconds(calls=2000, repeats=3) < 1e-4


POOL = [{"row": index} for index in range(1000)]


def test_op_sequences_are_seeded():
    make = serve_workloads.trickle_ops
    assert make(7, POOL) == make(7, POOL)
    rows = lambda ops: [op[1] for op in ops if len(op) > 1]  # noqa: E731
    assert rows(make(7, POOL)) != rows(make(8, POOL))
    assert [op[0] for op in make(7, POOL)] == [op[0] for op in make(8, POOL)]


def test_trickle_sequence_shape():
    ops = serve_workloads.trickle_ops(1, POOL)
    kinds = [op[0] for op in ops]
    assert kinds.count("append") == serve_workloads.TRICKLE_APPENDS
    assert kinds.count("read") == serve_workloads.TRICKLE_APPENDS
    assert kinds.count("check") == serve_workloads.TRICKLE_APPENDS // 5
    assert len({op[2] for op in ops if op[0] == "append"}) == serve_workloads.TRICKLE_APPENDS


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        *run.OP_METRICS, *layers.PER_LAYER]
