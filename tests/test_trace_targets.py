"""The benchmark's trace targets name methods and functions that exist.

``perfbench/tracing.py`` wraps each ``TARGETS`` entry by looking the name
up in its owner's namespace; a renamed or deleted program call would only
surface as a crash of a traced benchmark run.  One test resolves every
entry the same way, without installing any wrapper; another installs the
wrappers and drives the tile folds through them, so a call whose
arguments no longer carry what the span counters read fails here too.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
from pathlib import Path

import pytest

from tests.conftest import make_random_relation
from repro.core.dc import DenialConstraint
from repro.core.evidence_builder import build_evidence_set_tiled
from repro.core.predicate_space import build_predicate_space
from repro.incremental import EvidenceStore, ViolationService

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracing


def _targets():
    return _tracing().TARGETS


def _owner(module_name, path):
    owner = importlib.import_module(module_name)
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name


@contextlib.contextmanager
def _traced():
    """Install the benchmark's wrappers into a fresh recorder; put every
    patched attribute back afterwards."""
    tracing = _tracing()
    saved = [
        (owner, name, vars(owner)[name])
        for owner, name in (_owner(module, path) for module, path, _, _ in tracing.TARGETS)
    ]
    recorder = tracing.Recorder()
    try:
        tracing.install(recorder)
        yield recorder
    finally:
        for owner, name, raw in reversed(saved):
            setattr(owner, name, raw)


@pytest.mark.parametrize(
    "module_name,path", [(module, path) for module, path, _, _ in _targets()]
)
def test_trace_target_resolves(module_name, path):
    owner, name = _owner(module_name, path)
    assert name in vars(owner), f"{module_name}.{path} is gone"


def test_traced_folds_count_every_folded_pair():
    """Each tile span counts the pairs of the tiles its call folded: a
    tiled build, a store's seed and append, a ``check_batch`` probe and a
    ``violating_pairs`` replay."""
    relation = make_random_relation(n_rows=13, seed=4)
    space = build_predicate_space(relation)
    seed_rows, appended, probe = (
        relation.take(range(8)), relation.take(range(8, 11)), relation.take(range(11, 13))
    )

    def tile_pairs(recorder, since):
        spans = [span for span in recorder.spans[since:] if span[0] == "engine.tile_ms"]
        assert spans, "no tile span was recorded"
        return sum(span[3]["engine.pairs"] for span in spans)

    with _traced() as recorder:
        mark = len(recorder.spans)
        build_evidence_set_tiled(relation, space, tile_rows=3)
        assert tile_pairs(recorder, mark) == 13 * 12

        mark = len(recorder.spans)
        store = EvidenceStore(seed_rows, space=space, tile_rows=3)
        assert tile_pairs(recorder, mark) == 8 * 7

        mark = len(recorder.spans)
        store.append(appended)
        assert tile_pairs(recorder, mark) == 11 * 10 - 8 * 7

        service = ViolationService(store, [DenialConstraint([space[0]])], epsilon=1.0)
        mark = len(recorder.spans)
        service.check_batch(probe)
        # Each probed row against the 11 stored rows, both orientations.
        assert tile_pairs(recorder, mark) == 2 * 2 * 11

        mark = len(recorder.spans)
        list(service.violating_pairs(0))
        assert tile_pairs(recorder, mark) == 11 * 10

    for module_name, path, _, _ in _targets():
        owner, name = _owner(module_name, path)
        raw = vars(owner)[name]
        assert not hasattr(getattr(raw, "__func__", raw), "__wrapped__"), path

