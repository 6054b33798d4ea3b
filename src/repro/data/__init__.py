"""Data substrate for the ADC reproduction.

This subpackage provides the typed in-memory relational layer the mining
algorithms operate on, plus the synthetic dataset generators, golden denial
constraints, and noise models.
"""

from repro.data.types import ColumnType, infer_column_type
from repro.data.relation import Column, Relation, running_example
from repro.data.noise import NoiseReport, add_concentrated_noise, add_spread_noise
from repro.data.datasets import (
    DATASET_NAMES,
    Dataset,
    generate_dataset,
    generate_adult,
    generate_airport,
    generate_flight,
    generate_food,
    generate_hospital,
    generate_stock,
    generate_tax,
    generate_voter,
)

__all__ = [
    "ColumnType",
    "infer_column_type",
    "Column",
    "Relation",
    "running_example",
    "NoiseReport",
    "add_spread_noise",
    "add_concentrated_noise",
    "DATASET_NAMES",
    "Dataset",
    "generate_dataset",
    "generate_tax",
    "generate_stock",
    "generate_hospital",
    "generate_food",
    "generate_airport",
    "generate_adult",
    "generate_flight",
    "generate_voter",
]
