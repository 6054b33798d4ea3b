"""repro — a reproduction of "Approximate Denial Constraints" (VLDB 2020).

The package implements the ADCMiner framework of Livshits, Heidari, Ilyas
and Kimelfeld: mining minimal approximate denial constraints (ADCs) from
relational data under a general family of approximation functions, together
with the substrates the paper depends on (typed relations, predicate spaces,
evidence sets, minimal approximate hitting-set enumeration (ADCEnum),
sampling theory, baselines, synthetic datasets and evaluation metrics).

Typical usage::

    from repro import ADCMiner, running_example

    result = ADCMiner(function="f1", epsilon=0.05).mine(running_example())
    for adc in result.adcs:
        print(adc)
"""

from repro.data import (
    Dataset,
    Relation,
    generate_dataset,
    running_example,
)
from repro.core import (
    ADCEnum,
    ADCMiner,
    ApproximationFunction,
    DenialConstraint,
    DiscoveredADC,
    EvidenceSet,
    F1,
    F2,
    F3Greedy,
    MiningResult,
    Operator,
    PartialEvidenceSet,
    Predicate,
    PredicateSpace,
    TileKernel,
    block_tiles,
    build_evidence_set,
    build_evidence_set_tiled,
    build_predicate_space,
    choose_tile_rows,
    enumerate_adcs,
    mine_adcs,
)
from repro.incremental import (
    DeltaEvidenceBuilder,
    EvidenceStore,
    ViolationService,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Relation",
    "Dataset",
    "running_example",
    "generate_dataset",
    "Operator",
    "Predicate",
    "PredicateSpace",
    "build_predicate_space",
    "DenialConstraint",
    "EvidenceSet",
    "build_evidence_set",
    "build_evidence_set_tiled",
    "block_tiles",
    "TileKernel",
    "PartialEvidenceSet",
    "choose_tile_rows",
    "ApproximationFunction",
    "F1",
    "F2",
    "F3Greedy",
    "ADCEnum",
    "DiscoveredADC",
    "enumerate_adcs",
    "ADCMiner",
    "MiningResult",
    "mine_adcs",
    "DeltaEvidenceBuilder",
    "EvidenceStore",
    "ViolationService",
]
