"""Shared configuration of the experiment harness.

The paper runs on datasets of 32K–1M tuples on a 12-core Xeon with Java
implementations; this reproduction runs Python with compiled C kernels on a
2-core host, so every experiment is scaled down.  Two standard configurations are provided:

* ``SMALL_CONFIG`` — the benchmark configuration (hundreds of tuples per
  dataset, DC size capped at 3 predicates, which covers every golden DC);
* ``TINY_CONFIG`` — a configuration small enough for the test suite.

``default_config()`` honours the ``REPRO_SCALE`` environment variable so the
whole benchmark suite can be scaled up or down without code changes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from repro.data.datasets import DATASET_NAMES, Dataset, generate_dataset

#: Per-dataset row counts of the benchmark configuration (relative ordering
#: follows Table 4: Tax and NCVoter largest, Adult smallest).
_BENCHMARK_ROWS: dict[str, int] = {
    "tax": 200,
    "stock": 150,
    "hospital": 140,
    "food": 150,
    "airport": 120,
    "adult": 100,
    "flight": 150,
    "voter": 180,
}

_TINY_ROWS: dict[str, int] = {name: 40 for name in DATASET_NAMES}


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by every experiment.

    Attributes
    ----------
    rows:
        Tuples generated per dataset.
    datasets:
        Which datasets to run on (defaults to all eight).
    epsilon:
        Default approximation threshold (the paper uses 0.1 for the runtime
        experiments and 0.01/0.1 for the sampling-quality experiments).
    max_dc_size:
        Cap on predicates per DC.  The paper enumerates unboundedly (Java,
        hours of compute); capping at 3 keeps these scaled-down runs tractable
        while covering every golden DC, and is applied identically to
        ADCEnum and the SearchMC baseline.
    seed:
        Seed for data generation, sampling and noise.
    """

    rows: dict[str, int] = field(default_factory=lambda: dict(_BENCHMARK_ROWS))
    datasets: tuple[str, ...] = DATASET_NAMES
    epsilon: float = 0.1
    max_dc_size: int | None = 3
    seed: int = 7

    def dataset(self, name: str) -> Dataset:
        """Generate one configured dataset."""
        return generate_dataset(name, n_rows=self.rows[name], seed=self.seed)

    def scaled(self, factor: float) -> "ExperimentConfig":
        """A copy of the configuration with row counts scaled by ``factor``."""
        scaled_rows = {name: max(20, int(count * factor)) for name, count in self.rows.items()}
        return replace(self, rows=scaled_rows)

    def restricted(self, datasets: tuple[str, ...]) -> "ExperimentConfig":
        """A copy restricted to a subset of the datasets."""
        return replace(self, datasets=datasets)


SMALL_CONFIG = ExperimentConfig()
TINY_CONFIG = ExperimentConfig(rows=dict(_TINY_ROWS), datasets=("tax", "stock"), epsilon=0.1)


def default_config() -> ExperimentConfig:
    """The benchmark configuration, scaled by the ``REPRO_SCALE`` env var."""
    scale = float(os.environ.get("REPRO_SCALE", "1.0"))
    config = SMALL_CONFIG
    if scale != 1.0:
        config = config.scaled(scale)
    return config
