"""Incremental evidence store and violation-serving layer.

The batch pipeline (evidence set → ADCEnum) answers "what are the ADCs of
this snapshot?"; this package answers the production-shaped questions that
follow once data keeps arriving:

* :mod:`repro.incremental.delta` — delta evidence construction: appending
  ``m`` rows to ``n`` costs the ``O(n·m + m²)`` cross/new tile blocks, not
  a full ``O((n+m)²)`` rebuild, cut into tiles bounded by pairs and run
  over append-only kernel planes.  Built on the engine's tile kernel and
  the associative :class:`~repro.engine.partial.PartialEvidenceSet` merge.
* :mod:`repro.incremental.store` — :class:`EvidenceStore`, the long-lived
  holder of the relation snapshot and unfinalized partial, with ``append``
  / cached ``evidence()`` / ``remine(epsilon)``.  Invariant: append +
  finalize is bit-identical to a full rebuild on the concatenated relation.
* :mod:`repro.incremental.serve` — :class:`ViolationService`: per-DC
  violation counts and rates off the word planes, violating-pair
  reconstruction by tile replay, per-row batch admission against an
  epsilon budget, and per-tuple violation scores feeding the repair
  ranking.
"""

from repro.incremental.delta import DeltaEvidenceBuilder, delta_tiles
from repro.incremental.store import EvidenceStore
from repro.incremental.serve import (
    RowAdmission,
    ViolationReport,
    ViolationService,
)

__all__ = [
    "DeltaEvidenceBuilder",
    "delta_tiles",
    "EvidenceStore",
    "RowAdmission",
    "ViolationReport",
    "ViolationService",
]
