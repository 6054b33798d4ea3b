"""Core algorithms of the ADC reproduction.

Everything the paper contributes lives here: predicate spaces, evidence
sets, the family of approximation functions, the MMCS and ADCEnum
enumerators, the sampling theory, and the ADCMiner pipeline.
"""

from repro.core.operators import Operator, OrderCategory, operators_satisfiable_together
from repro.core.predicates import (
    Predicate,
    PredicateForm,
    cross_column_predicate,
    same_column_predicate,
    single_tuple_predicate,
)
from repro.core.predicate_space import (
    PredicateSpace,
    PredicateSpaceConfig,
    build_predicate_space,
)
from repro.core.bitset import (
    CriticalityPlanes,
    bits_to_indices,
    full_bits,
    indices_to_bits,
    pack_bool_rows,
    popcount,
    unpack_bits,
)
from repro.core.dc import DenialConstraint, format_dc_set, minimize_dcs
from repro.core.evidence import (
    EvidenceSet,
    TupleParticipation,
    evidence_from_pair_masks,
    lexsort_word_rows,
    mask_to_words,
    masks_to_words,
    words_to_mask,
)
from repro.core.evidence_builder import (
    EVIDENCE_METHODS,
    build_evidence_set,
    build_evidence_set_dense,
    build_evidence_set_pairwise,
    build_evidence_set_tiled,
)
from repro.engine import (
    PartialEvidenceSet,
    TileKernel,
    TileScheduler,
    choose_tile_rows,
)
from repro.core.approximation import (
    ApproximationFunction,
    F1,
    F1Adjusted,
    F2,
    F3Greedy,
    STANDARD_FUNCTIONS,
    get_approximation_function,
)
from repro.core.hitting_set import MMCS, minimal_hitting_sets
from repro.core.adc_enum import ADCEnum, DiscoveredADC, enumerate_adcs
from repro.core.sampling import (
    SamplePlan,
    accept_on_sample,
    adjusted_function,
    chebyshev_error_bound,
    draw_sample,
    estimate_violation_fraction,
    normal_confidence_interval,
    sample_threshold,
)
from repro.core.repair import (
    ConflictGraph,
    build_conflict_graph,
    cardinality_repair,
    exact_f3_violation,
    minimum_vertex_cover_exact,
    vertex_cover_2_approximation,
    vertex_cover_greedy,
)
from repro.core.miner import ADCMiner, MiningResult, mine_adcs

__all__ = [
    "Operator",
    "OrderCategory",
    "operators_satisfiable_together",
    "Predicate",
    "PredicateForm",
    "same_column_predicate",
    "cross_column_predicate",
    "single_tuple_predicate",
    "PredicateSpace",
    "PredicateSpaceConfig",
    "build_predicate_space",
    "CriticalityPlanes",
    "bits_to_indices",
    "full_bits",
    "indices_to_bits",
    "pack_bool_rows",
    "popcount",
    "unpack_bits",
    "DenialConstraint",
    "minimize_dcs",
    "format_dc_set",
    "EvidenceSet",
    "TupleParticipation",
    "evidence_from_pair_masks",
    "lexsort_word_rows",
    "mask_to_words",
    "masks_to_words",
    "words_to_mask",
    "EVIDENCE_METHODS",
    "build_evidence_set",
    "build_evidence_set_dense",
    "build_evidence_set_pairwise",
    "build_evidence_set_tiled",
    "PartialEvidenceSet",
    "TileKernel",
    "TileScheduler",
    "choose_tile_rows",
    "ApproximationFunction",
    "F1",
    "F2",
    "F3Greedy",
    "F1Adjusted",
    "STANDARD_FUNCTIONS",
    "get_approximation_function",
    "MMCS",
    "minimal_hitting_sets",
    "ADCEnum",
    "DiscoveredADC",
    "enumerate_adcs",
    "SamplePlan",
    "draw_sample",
    "estimate_violation_fraction",
    "chebyshev_error_bound",
    "normal_confidence_interval",
    "sample_threshold",
    "accept_on_sample",
    "adjusted_function",
    "ConflictGraph",
    "build_conflict_graph",
    "minimum_vertex_cover_exact",
    "vertex_cover_2_approximation",
    "vertex_cover_greedy",
    "exact_f3_violation",
    "cardinality_repair",
    "ADCMiner",
    "MiningResult",
    "mine_adcs",
]
