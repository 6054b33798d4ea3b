"""Golden self-check of a built kernel library.

A library that compiles can still compute something else: a miscompiled
``-march=native`` build, a stale source, a broken binding.  Before the
dispatch layer trusts a new library, each check in :data:`CHECKS` runs
fixed inputs through it (the flat kernels and whole ``ADCEnum`` searches)
and hashes the outputs; each digest must equal its
committed :data:`GOLDEN` value, which a test regenerates through the numpy
reference of ``tests/numpy_backend.py``.  A mismatch raises
:class:`RuntimeError` naming the check.

The inputs come from literals and integer arithmetic, never from a random
stream, so a numpy release that changes its generators cannot move a
digest.  Outputs are serialized little-endian with their dtype and shape.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Callable, Iterable

import numpy as np

#: SHA-256 of each check's serialized outputs, as the numpy reference
#: computes them.
GOLDEN = {
    "tile_plane": "0e5ab9ee651cd699668ed660a4f1866f2464248750525df1bac69654670e7e9a",
    "fold_tiles": "4d4a1b70ef4ca5e0eb166194222509e8c4c5ef4106b537bedbaddab002891201",
    "unique_rows": "cce13e9f4ce2d46009e9877b0caef5928ef53f0e3e66da98f76178d322f74955",
    "search driver": "2460f68eaab8ba64181696f0b626df49c1f546629f39679087e83e1e76a68b0f",
}


def _digest(values: Iterable[object]) -> str:
    digest = hashlib.sha256()
    for value in values:
        if value is None:
            digest.update(b"None;")
            continue
        array = np.asarray(value)
        array = np.ascontiguousarray(array, dtype=array.dtype.newbyteorder("<"))
        digest.update(f"{array.dtype.str}{array.shape};".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def _planes() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Three groups, one per category rule, over six rows and two words."""
    rows = np.arange(6)
    kinds = np.array([0, 1, 2], dtype=np.int32)
    a = np.zeros((3, 6), dtype=np.float64)
    b = np.zeros((3, 6), dtype=np.float64)
    # The single-tuple categories cycle, so each occurs and no strip of a
    # tile reads the same reversed.
    a[0] = rows % 3
    a[1] = rows * 2 % 5 - 2
    b[1] = rows * 3 % 5 - 2
    a[2] = rows * 5 % 3
    b[2] = rows % 2 + 1
    # A NaN difference is GREATER, whichever side the NaN is on.
    a[1, 2] = b[1, 4] = np.nan
    # Well-mixed words, from integer arithmetic alone.
    lookup = np.arange(1, 19, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    lookup ^= lookup >> np.uint64(29)
    return kinds, a, b, (lookup * np.uint64(0xBF58476D1CE4E5B9)).reshape(3, 3, 2)


def _tile_plane_outputs(backend) -> list[object]:
    # A wide tile and a tall n x 1 strip: the kernel runs along the longer
    # side, so each orientation has its own loop.
    kinds, a, b, lookup = _planes()
    return [
        backend.kernels.tile_plane(kinds, a, b, lookup, i0, i1, j0, j1, 2)
        for i0, i1, j0, j1 in ((1, 5, 0, 6), (0, 6, 4, 5))
    ]


def _fold_tiles_outputs(backend) -> list[object]:
    # A wide tile, a 1 x n and an n x 1 strip, a tile across the diagonal
    # and a lone diagonal cell, with participation off and on.
    kinds, a, b, lookup = _planes()
    bounds = np.array(
        [(1, 5, 0, 6), (3, 4, 0, 6), (0, 6, 2, 3), (0, 4, 0, 4), (5, 6, 5, 6)],
        dtype=np.int64,
    )
    # Words in 0..3: rows share their two low bits, so codes merge.
    merging = (np.arange(18, dtype=np.uint64) * np.uint64(7) % np.uint64(4)).reshape(3, 3, 2)
    outputs: list[object] = []
    for fold_lookup in (lookup, merging):
        for participation in (False, True):
            outputs.extend(
                backend.kernels.fold_tiles(kinds, a, b, fold_lookup, bounds, 2, participation)
            )
    return outputs


def _unique_rows_outputs(backend) -> list[object]:
    # 41 rows over nine distinct values: duplicates guaranteed.
    k = np.arange(82)
    rows = ((k * 5 + k // 7) % 3).reshape(41, 2).astype(np.uint64)
    return list(backend.kernels.unique_rows(rows))


def _statistics(statistics) -> list[object]:
    """Every counter of an :class:`EnumerationStatistics` but the wall time."""
    fields = dataclasses.asdict(statistics)
    del fields["elapsed_seconds"]
    extra = fields.pop("extra")
    names = sorted(extra)
    return [
        np.array(list(fields.values()), dtype=np.int64),
        np.array(names),
        np.array([extra[name] for name in names], dtype=np.float64),
    ]


def _participation(counts: list[int], n_rows: int) -> tuple[np.ndarray, ...]:
    """CSR tuple participation of evidences whose ``counts`` ordered pairs
    are the relation's pairs ``(i, j)``, ``i != j``, dealt out in order."""
    pairs = [(i, j) for i in range(n_rows) for j in range(n_rows) if i != j]
    offsets, tuple_ids, pair_counts = [0], [], []
    start = 0
    for count in counts:
        per_tuple = [0] * n_rows
        for i, j in pairs[start : start + count]:
            per_tuple[i] += 1
            per_tuple[j] += 1
        start += count
        for tuple_id, pair_count in enumerate(per_tuple):
            if pair_count:
                tuple_ids.append(tuple_id)
                pair_counts.append(pair_count)
        offsets.append(len(tuple_ids))
    return tuple(np.array(values, dtype=np.int64) for values in (offsets, tuple_ids, pair_counts))


def _driver_outputs(backend) -> list[object]:
    """Whole searches: f1 at epsilon 1, 0 and 1/3 under every selection
    rule, with and without a DC size cap and with a progress report every
    other node, and f1' below 0.5 (the integer pass bound); f2, f3 and f1'
    from 0.5 on (the pass-test callback, with and without uncovered ids)."""
    from repro.core.adc_enum import ADCEnum
    from repro.core.approximation import F1, F1Adjusted, F2, F3Greedy
    from repro.core.evidence import EvidenceSet
    from repro.core.operators import Operator
    from repro.core.predicate_space import PredicateSpace
    from repro.core.predicates import Predicate, PredicateForm
    from repro.native.dispatch import use_backend

    n_columns, n_rows = 5, 7
    space = PredicateSpace([
        Predicate(f"c{c}", operator, f"c{c}", PredicateForm.TWO_TUPLE_SAME_COLUMN)
        for c in range(n_columns)
        for operator in (Operator.EQ, Operator.NE)
    ])
    # Each evidence holds one predicate of every column: twelve distinct
    # column patterns (5 is odd, so k -> 5k + 3 is a bijection mod 32),
    # whose counts 1..6 add up to the relation's 42 ordered pairs.
    masks = [
        sum(1 << (2 * c + (((5 * k + 3) % 32 >> c) & 1)) for c in range(n_columns))
        for k in range(12)
    ]
    counts = [1 + k % 6 for k in range(12)]
    evidence = EvidenceSet(
        space, masks=masks, counts=counts, n_rows=n_rows,
        participation=_participation(counts, n_rows),
    )

    outputs: list[object] = []
    with use_backend(backend):
        for function, epsilon, selection, max_dc_size, interval in (
            (F1(), 1.0, "max", None, 0),
            (F1(), 0.0, "max", None, 0),
            (F1(), 0.0, "min", 2, 0),
            (F1(), 1 / 3, "max", None, 2),
            (F1(), 1 / 3, "min", 2, 0),
            (F1(), 1 / 3, "random", None, 0),
            (F1Adjusted(1.645), 0.2, "max", 3, 0),
            (F1Adjusted(1.645), 0.7, "max", 3, 0),
            (F2(), 0.8, "max", 2, 0),
            (F3Greedy(), 0.45, "random", None, 0),
        ):
            reports: list[object] = []
            enumerator = ADCEnum(
                evidence, function, epsilon, selection=selection, max_dc_size=max_dc_size,
                progress=(lambda statistics: reports.extend(_statistics(statistics)))
                if interval else None,
                progress_interval=interval or 1,
            )
            adcs = enumerator.enumerate()
            outputs += [
                np.array([adc.hitting_set_mask for adc in adcs], dtype=np.int64),
                np.array([adc.violation_score for adc in adcs], dtype=np.float64),
                *reports,
                *_statistics(enumerator.statistics),
            ]
    return outputs


#: ``(name, outputs)`` of every check, in the order :func:`check` runs them.
CHECKS: tuple[tuple[str, Callable[..., list[object]]], ...] = (
    ("tile_plane", _tile_plane_outputs),
    ("fold_tiles", _fold_tiles_outputs),
    ("unique_rows", _unique_rows_outputs),
    ("search driver", _driver_outputs),
)


def digests(backend) -> dict[str, str]:
    """The digest of every check's outputs under ``backend``."""
    return {name: _digest(outputs(backend)) for name, outputs in CHECKS}


def check(backend) -> None:
    """Raise :class:`RuntimeError` at the first check whose digest under
    ``backend`` differs from :data:`GOLDEN`."""
    for name, outputs in CHECKS:
        if _digest(outputs(backend)) != GOLDEN[name]:
            raise RuntimeError(f"{name} mismatch: the kernel library fails its self-check")
