"""ADCMiner — the end-to-end mining pipeline (Figure 1).

``ADCMiner`` chains the four components of the paper's algorithm:

1. the predicate space generator,
2. the sampler,
3. the evidence set constructor,
4. the ADCEnum enumeration algorithm,

and reports per-phase timings so the benchmarks can decompose total running
time the way Figure 8 does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.adc_enum import ADCEnum, DiscoveredADC, EnumerationStatistics, SelectionStrategy
from repro.core.approximation import ApproximationFunction, F1, get_approximation_function
from repro.core.dc import DenialConstraint
from repro.core.evidence import EvidenceSet
from repro.core.evidence_builder import EVIDENCE_METHODS, build_evidence_set
from repro.core.predicate_space import PredicateSpace, PredicateSpaceConfig, build_predicate_space
from repro.core.sampling import SamplePlan, adjusted_function, draw_sample
from repro.data.relation import Relation


@dataclass
class MiningTimings:
    """Wall-clock seconds spent in each phase of the pipeline."""

    predicate_space: float = 0.0
    sampling: float = 0.0
    evidence: float = 0.0
    enumeration: float = 0.0

    @property
    def total(self) -> float:
        """Total pipeline time."""
        return self.predicate_space + self.sampling + self.evidence + self.enumeration


@dataclass
class MiningResult:
    """Everything produced by one :class:`ADCMiner` run."""

    adcs: list[DiscoveredADC]
    predicate_space: PredicateSpace
    evidence: EvidenceSet
    sample_plan: SamplePlan
    function_name: str
    epsilon: float
    timings: MiningTimings = field(default_factory=MiningTimings)
    enumeration_statistics: EnumerationStatistics = field(default_factory=EnumerationStatistics)

    @property
    def constraints(self) -> list[DenialConstraint]:
        """The discovered constraints without their scores."""
        return [adc.constraint for adc in self.adcs]

    def __len__(self) -> int:
        return len(self.adcs)

    def describe(self, limit: int = 20) -> str:
        """Human readable run summary."""
        lines = [
            f"ADCMiner: {len(self.adcs)} minimal ADCs "
            f"(function={self.function_name}, epsilon={self.epsilon}, "
            f"sample={self.sample_plan.fraction:.0%})",
            f"  predicate space: {len(self.predicate_space)} predicates",
            f"  evidence set:    {len(self.evidence)} distinct evidences over "
            f"{self.evidence.recorded_pairs} pairs",
            f"  timings [s]:     space={self.timings.predicate_space:.3f} "
            f"sample={self.timings.sampling:.3f} evidence={self.timings.evidence:.3f} "
            f"enum={self.timings.enumeration:.3f} total={self.timings.total:.3f}",
            f"  enumeration:     {self.enumeration_statistics.recursive_calls} nodes "
            f"({self.enumeration_statistics.nodes_per_second:,.0f} nodes/s)",
        ]
        for adc in self.adcs[:limit]:
            lines.append(f"    {adc}")
        if len(self.adcs) > limit:
            lines.append(f"    ... and {len(self.adcs) - limit} more")
        return "\n".join(lines)


def run_enumeration(
    evidence: EvidenceSet,
    function: ApproximationFunction,
    epsilon: float,
    selection: SelectionStrategy = "max",
    max_dc_size: int | None = None,
    progress=None,
    progress_interval: int = 8192,
) -> tuple[list[DiscoveredADC], EnumerationStatistics]:
    """Run ADCEnum over an evidence set, returning the ADCs and statistics.

    This is the enumeration step of the pipeline factored out so that both
    :meth:`ADCMiner.mine` and the incremental store's
    :meth:`~repro.incremental.store.EvidenceStore.remine` feed word planes
    into the same enumerator call.  ``progress`` (called with the live
    :class:`~repro.core.adc_enum.EnumerationStatistics` every
    ``progress_interval`` visited nodes) is the observability hook the
    serving layer uses to export nodes/sec gauges mid-run.
    """
    enumerator = ADCEnum(
        evidence,
        function,
        epsilon,
        selection=selection,
        max_dc_size=max_dc_size,
        progress=progress,
        progress_interval=progress_interval,
    )
    adcs = enumerator.enumerate()
    return adcs, enumerator.statistics


class ADCMiner:
    """The ADCMiner algorithm of Figure 1.

    Parameters
    ----------
    function:
        A valid approximation function, or its name (``"f1"``, ``"f2"``,
        ``"f3"``).
    epsilon:
        The approximation threshold.
    sample_fraction:
        Fraction of tuples to sample before building the evidence set
        (1.0 mines the full relation).
    adjust_for_sample:
        When mining a strict sample with the pair-based function, replace f1
        by the adjusted ``f1'`` of Section 7.2 so that discovered DCs carry
        the database-level guarantee with confidence ``1 - alpha``.
    alpha:
        Error probability used by the adjustment.
    space_config:
        Predicate space generation knobs.
    selection:
        Evidence selection strategy of the enumerator (Figure 10 ablation).
    evidence_method:
        ``"tiled"`` (blocked word-plane builder, default), ``"dense"``
        (full-plane oracle), or ``"pairwise"`` (AFASTDC-style reference
        builder).
    tile_rows:
        Tile edge length of the tiled evidence builder; ``None`` (default)
        picks it adaptively from a memory budget.
    max_dc_size:
        Optional cap on predicates per DC.
    seed:
        Seed of the tuple sampler.
    """

    def __init__(
        self,
        function: ApproximationFunction | str = "f1",
        epsilon: float = 0.01,
        sample_fraction: float = 1.0,
        adjust_for_sample: bool = False,
        alpha: float = 0.05,
        space_config: PredicateSpaceConfig | None = None,
        selection: SelectionStrategy = "max",
        evidence_method: str = "tiled",
        tile_rows: int | None = None,
        max_dc_size: int | None = None,
        seed: int | None = None,
    ) -> None:
        if isinstance(function, str):
            function = get_approximation_function(function)
        if evidence_method not in EVIDENCE_METHODS:
            raise ValueError(
                f"unknown evidence method {evidence_method!r}; "
                f"valid methods are {', '.join(EVIDENCE_METHODS)}"
            )
        self.function = function
        self.epsilon = float(epsilon)
        self.sample_fraction = float(sample_fraction)
        self.adjust_for_sample = bool(adjust_for_sample)
        self.alpha = float(alpha)
        self.space_config = space_config or PredicateSpaceConfig()
        self.selection: SelectionStrategy = selection
        self.evidence_method = evidence_method
        self.tile_rows = int(tile_rows) if tile_rows is not None else None
        self.max_dc_size = max_dc_size
        self.seed = seed

    def mine(self, relation: Relation) -> MiningResult:
        """Run the full pipeline on ``relation`` and return the result."""
        timings = MiningTimings()

        started = time.perf_counter()
        space = build_predicate_space(relation, self.space_config)
        timings.predicate_space = time.perf_counter() - started

        started = time.perf_counter()
        plan = draw_sample(relation, self.sample_fraction, self.seed)
        timings.sampling = time.perf_counter() - started

        started = time.perf_counter()
        needs_participation = self.function.requires_participation
        evidence = build_evidence_set(
            plan.sample,
            space,
            include_participation=needs_participation,
            method=self.evidence_method,
            tile_rows=self.tile_rows,
        )
        timings.evidence = time.perf_counter() - started

        function = self.function
        if self.adjust_for_sample and self.sample_fraction < 1.0 and isinstance(function, F1):
            function = adjusted_function(plan.sample_pairs, self.alpha)

        started = time.perf_counter()
        adcs, enum_statistics = run_enumeration(
            evidence,
            function,
            self.epsilon,
            selection=self.selection,
            max_dc_size=self.max_dc_size,
        )
        timings.enumeration = time.perf_counter() - started

        return MiningResult(
            adcs=adcs,
            predicate_space=space,
            evidence=evidence,
            sample_plan=plan,
            function_name=function.name,
            epsilon=self.epsilon,
            timings=timings,
            enumeration_statistics=enum_statistics,
        )


def mine_adcs(
    relation: Relation,
    function: ApproximationFunction | str = "f1",
    epsilon: float = 0.01,
    sample_fraction: float = 1.0,
    **kwargs: object,
) -> MiningResult:
    """One-call convenience wrapper around :class:`ADCMiner`."""
    miner = ADCMiner(function, epsilon, sample_fraction, **kwargs)  # type: ignore[arg-type]
    return miner.mine(relation)
