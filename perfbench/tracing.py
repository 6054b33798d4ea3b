"""Span recording around each layer's public calls, from outside the program.

:func:`install` replaces every call in :data:`TARGETS` with a wrapper that
records ``(metric, start, end, counts)`` on the shared monotonic clock.  It
patches each attribute where its caller looks it up: a class attribute for
methods, the importing module's global for functions imported by name.  The
program's own code is not touched, so the traced run is the untraced
program plus these wrappers.

Spans stay in memory and are written out as JSON by :func:`dump` when the
run ends.  A traced server also dumps on ``SIGUSR1`` so the benchmark can
collect its spans before it SIGKILLs it.  Nesting is derived afterwards
from the intervals (:func:`stats.nest`): a store call that the server runs
on an executor thread still nests under the event-loop call awaiting it,
which a per-thread parent stack would miss.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from typing import Callable

#: The clock both the benchmark (client ops) and the program (spans) read.
#: On Linux it is CLOCK_MONOTONIC, shared by every process on the host.
clock = time.monotonic

Counts = Callable[[tuple, dict, object], dict]


def _tile_counts(args: tuple, kwargs: dict, result: object) -> dict:
    tile = args[1] if len(args) > 1 else kwargs["tile"]
    return {"engine.tiles": 1, "engine.pairs": tile.n_pairs}


def _enum_counts(args: tuple, kwargs: dict, result: object) -> dict:
    adcs, statistics = result
    return {"core.enum_nodes": statistics.recursive_calls, "core.adcs": len(adcs)}


#: ``(module, attribute path, metric, counts)`` — every public call timed.
#: A metric listed twice (a function imported into two modules) is one
#: metric; calls nested in a call of the same metric are not counted twice.
TARGETS: tuple[tuple[str, str, str, Counts | None], ...] = (
    ("repro.serve.protocol", "encode_frame", "serve.codec_ms", None),
    ("repro.serve.protocol", "decode_payload", "serve.codec_ms", None),
    ("repro.serve.scheduler", "AppendScheduler.append", "serve.scheduler_ms", None),
    ("repro.serve.counters", "partial_violation_counts", "serve.counters_ms", None),
    ("repro.data.relation", "Relation.copy", "data.copy_ms", None),
    ("repro.data.relation", "Relation.append_rows", "data.append_rows_ms", None),
    ("repro.incremental.store", "EvidenceStore.append", "incremental.append_ms",
     lambda a, k, r: {"serve.flush_rows": r}),
    ("repro.incremental.delta", "DeltaEvidenceBuilder.delta_partial",
     "incremental.delta_ms", None),
    ("repro.incremental.serve", "ViolationService.check_batch",
     "incremental.check_ms", None),
    ("repro.engine.partial", "PartialEvidenceSet.rebase_rows", "engine.rebase_ms", None),
    ("repro.engine.partial", "PartialEvidenceSet.merge", "engine.merge_ms", None),
    ("repro.incremental.delta", "DeltaEvidenceBuilder.kernel",
     "engine.kernel_prep_ms", None),
    ("repro.engine.kernel", "prepare_groups", "engine.kernel_prep_ms", None),
    ("repro.core.evidence_builder", "prepare_groups", "engine.kernel_prep_ms", None),
    ("repro.engine.kernel", "TileKernel.run", "engine.tile_ms", _tile_counts),
    ("repro.engine.kernel", "TileKernel.tile_words", "engine.tile_ms", _tile_counts),
    ("repro.core.miner", "build_predicate_space", "core.space_ms", None),
    ("repro.incremental.store", "build_predicate_space", "core.space_ms", None),
    ("repro.core.miner", "draw_sample", "core.sample_ms", None),
    ("repro.core.miner", "build_evidence_set", "core.evidence_ms",
     lambda a, k, r: {"core.evidence_distinct": len(r)}),
    ("repro.core.miner", "run_enumeration", "core.enum_ms", _enum_counts),
    ("repro.incremental.store", "run_enumeration", "core.enum_ms", _enum_counts),
    ("repro.durability.journal", "StoreJournal.log_append",
     "durability.log_append_ms", None),
    ("repro.durability.journal", "StoreJournal.recover", "durability.recover_ms",
     lambda a, k, r: {"durability.replayed_records": r.stats.replayed_records}),
)

#: The layers, in the order they are reported.
LAYERS = ("serve", "data", "incremental", "engine", "core", "durability")


class Recorder:
    """In-memory span list; one per traced process."""

    def __init__(self) -> None:
        self.spans: list[list] = []

    def record(self, metric: str, start: float, end: float, counts: dict | None) -> None:
        # list.append is atomic under the GIL, so executor threads may call
        # this concurrently.
        self.spans.append([metric, start, end, counts or {}])

    def dump(self, path: str) -> None:
        """Write the spans as JSON, atomically (tmp file + rename)."""
        spans = list(self.spans)
        tmp = f"{path}.tmp"
        with open(tmp, "w") as handle:
            json.dump(spans, handle)
        os.replace(tmp, path)


def _wrap(function: Callable, metric: str, counts: Counts | None, recorder: Recorder):
    if inspect.iscoroutinefunction(function):
        @functools.wraps(function)
        async def traced_async(*args, **kwargs):
            start = clock()
            result = await function(*args, **kwargs)
            end = clock()
            recorder.record(metric, start, end, counts(args, kwargs, result) if counts else None)
            return result
        return traced_async

    @functools.wraps(function)
    def traced(*args, **kwargs):
        start = clock()
        result = function(*args, **kwargs)
        end = clock()
        recorder.record(metric, start, end, counts(args, kwargs, result) if counts else None)
        return result
    return traced


def install(recorder: Recorder) -> None:
    """Wrap every :data:`TARGETS` call so it records into ``recorder``.

    Failed calls record nothing: they are counted by the benchmark as
    failed ops, and their time stays in the op's ``unattributed`` share.
    """
    for module_name, path, metric, counts in TARGETS:
        owner = importlib.import_module(module_name)
        *outer, name = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        raw = vars(owner)[name]
        if isinstance(raw, classmethod):
            wrapped = classmethod(_wrap(raw.__func__, metric, counts, recorder))
        else:
            wrapped = _wrap(raw, metric, counts, recorder)
        setattr(owner, name, wrapped)


def wrapper_seconds(calls: int = 20_000, repeats: int = 5) -> float:
    """Seconds one wrapper adds to a call: a wrapped no-op against the bare
    no-op, each the fastest of ``repeats`` batches of ``calls``."""
    def noop():
        return None

    def batch(function: Callable) -> float:
        start = time.perf_counter()
        for _ in range(calls):
            function()
        return time.perf_counter() - start

    wrapped = _wrap(noop, "trace.probe", None, Recorder())
    bare = min(batch(noop) for _ in range(repeats))
    return max(0.0, min(batch(wrapped) for _ in range(repeats)) - bare) / calls
