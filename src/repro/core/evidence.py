"""The evidence set, stored as packed 64-bit predicate words.

For every ordered pair of distinct tuples ``(t, t')`` the *evidence*
``Sat(t, t')`` is the set of predicates of the predicate space satisfied by
the pair; the *evidence set* ``Evi(D)`` is the bag of all evidences
(Section 3).  As in the paper, evidences are stored once with a
multiplicity, because only the distinct evidences and their counts matter to
the enumeration algorithm.

The native representation is a packed ``(n_evidences, n_words)`` uint64
array (``EvidenceSet.words``): bit ``p`` of an evidence lives at word
``p // 64``, bit ``p % 64``.  This is the same word layout the tiled
evidence builder produces and the one :class:`~repro.core.adc_enum.ADCEnum`
operates on directly, so no representation changes hands anywhere in the
pipeline.  The set-cover queries the enumerators and approximation
functions issue (:meth:`EvidenceSet.uncovered_indices`,
:meth:`EvidenceSet.uncovered_pair_count`,
:meth:`EvidenceSet.restrict_to_predicates`) are all vectorised word-plane
operations.  A compatibility view of Python-int ``masks`` is derived
lazily for callers that still want arbitrary-precision bitmasks.

The class also stores the ``vios`` structure of Figure 2: for every distinct
evidence, the tuples participating in pairs with that evidence and how many
such pairs each tuple participates in.  This is what the tuple-based
approximation functions (f2 and the greedy replacement of f3) consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.bitset import n_words_for_bits
from repro.core.predicate_space import PredicateSpace
from repro.core.predicates import Predicate
from repro.native import dispatch as native_dispatch

_WORD_BITS = 64
_WORD_MASK = 0xFFFFFFFFFFFFFFFF


def n_words_for(n_predicates: int) -> int:
    """Number of uint64 words needed to hold ``n_predicates`` bits.

    Alias of :func:`repro.core.bitset.n_words_for_bits`, kept under the
    historical name for the evidence-pipeline callers.
    """
    return n_words_for_bits(n_predicates)


def mask_to_words(mask: int, n_words: int) -> np.ndarray:
    """Split a Python-int predicate mask into its uint64 word vector.

    This is the single mask→word helper shared by the boundary code that
    still accepts arbitrary-precision bitmasks (set-cover queries, tests);
    the enumeration recursion itself never converts — it runs on word
    vectors end to end.  Bits beyond ``n_words * 64`` are discarded.
    """
    mask = int(mask) & ((1 << (_WORD_BITS * n_words)) - 1)
    data = mask.to_bytes(n_words * 8, "little")
    return np.frombuffer(data, dtype="<u8").astype(np.uint64)


def words_to_mask(words: np.ndarray | Sequence[int]) -> int:
    """Assemble a uint64 word vector back into a Python-int bitmask."""
    array = np.ascontiguousarray(np.asarray(words, dtype=np.uint64))
    return int.from_bytes(array.astype("<u8", copy=False).tobytes(), "little")


def masks_to_words(masks: Sequence[int], n_words: int) -> np.ndarray:
    """Pack a sequence of Python-int bitmasks into an ``(n, n_words)`` array."""
    packed = np.zeros((len(masks), n_words), dtype=np.uint64)
    for row, mask in enumerate(masks):
        for word in range(n_words):
            packed[row, word] = (int(mask) >> (_WORD_BITS * word)) & _WORD_MASK
    return packed


def lexsort_word_rows(words: np.ndarray) -> np.ndarray:
    """Permutation sorting word rows lexicographically (word 0 primary).

    This is the canonical evidence order: every builder emits its distinct
    evidences in this order, which makes results reproducible and lets the
    parallel engine merge partial evidence sets in any order while still
    finalizing to a bit-identical :class:`EvidenceSet`.
    """
    if len(words) == 0:
        return np.zeros(0, dtype=np.int64)
    keys = tuple(words[:, word] for word in range(words.shape[1] - 1, -1, -1))
    return np.lexsort(keys)


def unique_word_rows(words: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct rows of a 2-D uint64 array with inverse indices and counts.

    Rows are returned in the canonical lexicographic order of
    :func:`lexsort_word_rows` (not ``np.unique``'s byte order, which would
    depend on the platform's endianness).  Dispatched to the active kernel
    backend: the compiled backends replace the sort-based ``np.unique``
    reference with a hash pass over the rows.  (Tile folds dedup inside
    the backend's ``fold_tiles``; this serves the dense builder and word
    projections.)
    """
    return native_dispatch.get_backend().kernels.unique_rows(words)


class LazyMaskView(Sequence[int]):
    """Chunk-lazy Python-int view of a packed uint64 word plane.

    Converting a word row to an arbitrary-precision int costs Python-level
    work per row, and the old eager ``EvidenceSet.masks`` list materialised
    *every* row on first touch — an accidental hot-path landmine when the
    enumerator read one mask per search node.  The hot paths now consume
    ``EvidenceSet.words`` directly; this view serves the remaining cold
    callers (display helpers, tests, the legacy reference enumerators) by
    converting rows on demand in fixed-size chunks and caching each chunk,
    so indexed access never pays for the rows it does not visit.

    The view supports the full read-only sequence protocol plus value
    equality against lists/tuples, which is what the existing callers (and
    tests) use.
    """

    _CHUNK_ROWS = 1024

    def __init__(self, words: np.ndarray) -> None:
        self._words = words
        self._chunks: dict[int, list[int]] = {}

    def __len__(self) -> int:
        return len(self._words)

    def _chunk(self, chunk_index: int) -> list[int]:
        cached = self._chunks.get(chunk_index)
        if cached is None:
            low = chunk_index * self._CHUNK_ROWS
            block = np.ascontiguousarray(self._words[low: low + self._CHUNK_ROWS])
            raw = block.astype("<u8", copy=False).tobytes()
            stride = block.shape[1] * 8
            cached = [
                int.from_bytes(raw[row * stride: (row + 1) * stride], "little")
                for row in range(block.shape[0])
            ]
            self._chunks[chunk_index] = cached
        return cached

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        index = int(index)
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("mask index out of range")
        return self._chunk(index // self._CHUNK_ROWS)[index % self._CHUNK_ROWS]

    def __iter__(self) -> Iterator[int]:
        for chunk_index in range((len(self) + self._CHUNK_ROWS - 1) // self._CHUNK_ROWS):
            yield from self._chunk(chunk_index)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LazyMaskView):
            if other is self:
                return True
            other = list(other)
        if isinstance(other, (list, tuple)):
            return len(other) == len(self) and all(
                mine == theirs for mine, theirs in zip(self, other)
            )
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LazyMaskView({len(self)} masks)"


@dataclass(frozen=True)
class TupleParticipation:
    """Tuples participating in pairs carrying one evidence.

    ``tuple_ids[k]`` participates in ``pair_counts[k]`` ordered pairs whose
    evidence is the owning entry — the row of the ``vios`` table of Figure 2.
    """

    tuple_ids: np.ndarray
    pair_counts: np.ndarray

    def __post_init__(self) -> None:
        if len(self.tuple_ids) != len(self.pair_counts):
            raise ValueError("tuple_ids and pair_counts must have equal length")


class EvidenceSet:
    """The bag ``Evi(D)`` of predicate-satisfaction evidences.

    Parameters
    ----------
    space:
        The predicate space the evidence words/bitmasks index into.
    masks:
        Distinct evidence bitmasks as Python ints.  Either ``masks`` or
        ``words`` must be given; ``words`` is the native form.
    counts:
        Multiplicity of each distinct evidence (number of ordered pairs).
    n_rows:
        Number of tuples of the underlying relation.
    participation:
        Optional per-evidence tuple participation (the ``vios`` structure);
        required by the f2/f3 approximation functions.
    words:
        Packed ``(n_evidences, n_words)`` uint64 evidence words — the native
        representation produced by the tiled and dense builders.
    """

    def __init__(
        self,
        space: PredicateSpace,
        masks: Sequence[int] | None = None,
        counts: Sequence[int] = (),
        n_rows: int = 0,
        participation: Sequence[TupleParticipation] | None = None,
        *,
        words: np.ndarray | None = None,
    ) -> None:
        self.space = space
        self.n_words = n_words_for(len(space))
        if words is None:
            if masks is None:
                raise ValueError("either masks or words must be provided")
            self._masks: Sequence[int] | None = [int(mask) for mask in masks]
            self.words = masks_to_words(self._masks, self.n_words)
        else:
            words = np.ascontiguousarray(words, dtype=np.uint64)
            if words.ndim != 2 or words.shape[1] != self.n_words:
                raise ValueError(
                    f"words must have shape (n_evidences, {self.n_words}); got {words.shape}"
                )
            self.words = words
            self._masks = None
        self.counts: np.ndarray = np.asarray(counts, dtype=np.int64)
        if len(self.words) != len(self.counts):
            raise ValueError("masks/words and counts must have equal length")
        if participation is not None and len(participation) != len(self.words):
            raise ValueError("participation must align with masks")
        self.n_rows = int(n_rows)
        self._participation = list(participation) if participation is not None else None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        """Iterate over ``(mask, count)`` pairs."""
        for mask, count in zip(self.masks, self.counts):
            yield mask, int(count)

    @property
    def masks(self) -> Sequence[int]:
        """Chunk-lazy Python-int view of the evidence words.

        Cold-path compatibility only: rows are converted to ints on demand
        (see :class:`LazyMaskView`), so touching one mask no longer pays for
        the whole evidence set.  Hot paths must read :attr:`words` instead —
        the enumerators do.
        """
        if self._masks is None:
            self._masks = LazyMaskView(self.words)
        return self._masks

    @property
    def total_pairs(self) -> int:
        """Number of ordered distinct tuple pairs, ``|D| * (|D| - 1)``."""
        return self.n_rows * (self.n_rows - 1)

    @property
    def recorded_pairs(self) -> int:
        """Number of pairs actually recorded (sum of multiplicities)."""
        return int(self.counts.sum())

    @property
    def has_participation(self) -> bool:
        """Whether the ``vios`` structure is available."""
        return self._participation is not None

    def participation(self, evidence_index: int) -> TupleParticipation:
        """Tuple participation of one distinct evidence."""
        if self._participation is None:
            raise RuntimeError(
                "evidence set was built without tuple participation; "
                "rebuild with include_participation=True to use f2/f3"
            )
        return self._participation[evidence_index]

    def predicates_of(self, evidence_index: int) -> tuple[Predicate, ...]:
        """Predicates satisfied by the pairs of one distinct evidence."""
        return self.space.predicates_of(self.masks[evidence_index])

    def predicate_membership(self) -> np.ndarray:
        """Boolean ``(n_predicates, n_evidences)`` membership matrix.

        ``result[p, e]`` is True when evidence ``e`` satisfies predicate
        ``p``.  Both enumerators precompute this matrix to answer "which
        uncovered evidences does this predicate hit" with one fancy index.
        """
        n_predicates = len(self.space)
        contains = np.zeros((n_predicates, len(self)), dtype=bool)
        shifts = np.arange(_WORD_BITS, dtype=np.uint64)[:, None]
        for word in range(self.n_words):
            bits = ((self.words[:, word][None, :] >> shifts) & np.uint64(1)) != 0
            low = word * _WORD_BITS
            high = min(low + _WORD_BITS, n_predicates)
            if high <= low:
                break
            contains[low:high] = bits[: high - low]
        return contains

    # ------------------------------------------------------------------
    # Queries used by the enumerators, approximation functions and tests
    # ------------------------------------------------------------------
    def hitting_words(self, hitting: "int | np.ndarray | Sequence[int]") -> np.ndarray:
        """Normalise a hitting set to its ``(n_words,)`` uint64 word vector.

        Accepts either an arbitrary-precision Python-int bitmask (the
        historical form) or an already-packed word vector, which callers on
        the serving path (:class:`~repro.incremental.serve.ViolationService`,
        the repair ranking) pass to stay off the Python-int conversion.
        """
        if isinstance(hitting, (int, np.integer)):
            return mask_to_words(int(hitting), self.n_words)
        words = np.ascontiguousarray(np.asarray(hitting, dtype=np.uint64))
        if words.shape != (self.n_words,):
            raise ValueError(
                f"hitting words must have shape ({self.n_words},); got {words.shape}"
            )
        return words

    def _unhit(self, hitting_mask: "int | np.ndarray") -> np.ndarray:
        """Boolean vector of evidences with empty intersection with the mask.

        ``hitting_mask`` is a Python-int bitmask or a packed ``(n_words,)``
        uint64 vector; the word form skips the int→word conversion entirely.
        """
        hitting_words = self.hitting_words(hitting_mask)
        return ~(self.words & hitting_words).any(axis=1)

    def uncovered_indices(self, hitting_mask: "int | np.ndarray") -> list[int]:
        """Indices of evidences with empty intersection with ``hitting_mask``.

        In DC terms these are the evidences of the pairs *violating* the DC
        whose complement-predicate set is ``hitting_mask`` (given as a
        Python-int bitmask or a packed uint64 word vector).
        """
        return np.flatnonzero(self._unhit(hitting_mask)).tolist()

    def uncovered_pair_count(self, hitting_mask: "int | np.ndarray") -> int:
        """Number of pairs whose evidence is not hit by ``hitting_mask``.

        Accepts the mask as a Python int or a packed uint64 word vector.
        """
        return int(self.counts[self._unhit(hitting_mask)].sum())

    def pair_count_of(self, evidence_indices: Iterable[int]) -> int:
        """Total number of pairs over a collection of evidence indices."""
        indices = np.asarray(
            evidence_indices if isinstance(evidence_indices, np.ndarray) else list(evidence_indices),
            dtype=np.int64,
        )
        return int(self.counts[indices].sum())

    def tuples_involved(self, evidence_indices: Iterable[int]) -> set[int]:
        """Distinct tuples participating in pairs of the given evidences."""
        involved: set[int] = set()
        for index in evidence_indices:
            involved.update(self.participation(index).tuple_ids.tolist())
        return involved

    def violation_counts_per_tuple(self, evidence_indices: Iterable[int]) -> np.ndarray:
        """Per-tuple number of violating pairs over the given evidences.

        This is the ``v(t)`` vector computed by ``SortTuples`` in Figure 2.
        """
        totals = np.zeros(self.n_rows, dtype=np.int64)
        for index in evidence_indices:
            part = self.participation(index)
            totals[part.tuple_ids] += part.pair_counts
        return totals

    # ------------------------------------------------------------------
    # Utilities
    # ------------------------------------------------------------------
    def restrict_to_predicates(self, predicate_mask: int) -> "EvidenceSet":
        """Project every evidence onto a subset of the predicate space.

        Evidences that become identical after the projection are merged:
        their multiplicities are added and, when the ``vios`` structure is
        available, their tuple participations are merged as well (per-tuple
        pair counts added), so f2/f3 keep working on the projected set.
        """
        projection = mask_to_words(predicate_mask, self.n_words)
        projected = self.words & projection
        unique_words, inverse, _ = unique_word_rows(projected)
        counts = np.zeros(len(unique_words), dtype=np.int64)
        np.add.at(counts, inverse, self.counts)

        participation: list[TupleParticipation] | None = None
        if self._participation is not None:
            participation = []
            order = np.argsort(inverse, kind="stable")
            boundaries = np.searchsorted(inverse[order], np.arange(len(unique_words) + 1))
            for merged in range(len(unique_words)):
                sources = order[boundaries[merged]:boundaries[merged + 1]]
                ids = np.concatenate([self._participation[s].tuple_ids for s in sources])
                per_pair = np.concatenate([self._participation[s].pair_counts for s in sources])
                merged_ids, merged_inverse = np.unique(ids, return_inverse=True)
                merged_counts = np.zeros(len(merged_ids), dtype=np.int64)
                np.add.at(merged_counts, merged_inverse, per_pair)
                participation.append(TupleParticipation(merged_ids, merged_counts))

        return EvidenceSet(
            self.space, counts=counts, n_rows=self.n_rows,
            participation=participation, words=unique_words,
        )

    def describe(self, limit: int = 10) -> str:
        """Human readable summary of the evidence multiset."""
        lines = [
            f"evidence set: {len(self)} distinct evidences over "
            f"{self.recorded_pairs} pairs ({self.n_rows} tuples)"
        ]
        order = np.argsort(-self.counts)
        for index in order[:limit]:
            predicates = ", ".join(str(p) for p in self.predicates_of(int(index)))
            lines.append(f"  x{int(self.counts[index]):>6}  {{{predicates}}}")
        if len(self) > limit:
            lines.append(f"  ... and {len(self) - limit} more")
        return "\n".join(lines)


def evidence_from_pair_masks(
    space: PredicateSpace,
    pair_masks: Iterable[int],
    n_rows: int,
    pair_tuples: Iterable[tuple[int, int]] | None = None,
) -> EvidenceSet:
    """Build an :class:`EvidenceSet` from per-pair bitmasks.

    ``pair_tuples`` optionally provides, for every mask, the ordered pair of
    row indices it came from, enabling the tuple-participation structure.
    This constructor is used by the naive pairwise builder and by tests.
    Evidences are emitted in the canonical lexicographic word order (word 0
    primary), matching the word-plane builders bit for bit.
    """
    pair_masks = list(pair_masks)
    counts: dict[int, int] = {}
    tuple_counts: dict[int, dict[int, int]] = {}
    pairs = list(pair_tuples) if pair_tuples is not None else None
    if pairs is not None and len(pairs) != len(pair_masks):
        raise ValueError("pair_tuples must align with pair_masks")
    for position, mask in enumerate(pair_masks):
        counts[mask] = counts.get(mask, 0) + 1
        if pairs is not None:
            i, j = pairs[position]
            per_tuple = tuple_counts.setdefault(mask, {})
            per_tuple[i] = per_tuple.get(i, 0) + 1
            per_tuple[j] = per_tuple.get(j, 0) + 1
    n_words = n_words_for(len(space))
    masks = sorted(
        counts,
        key=lambda mask: tuple(
            (mask >> (_WORD_BITS * word)) & _WORD_MASK for word in range(n_words)
        ),
    )
    participation = None
    if pairs is not None:
        participation = []
        for mask in masks:
            per_tuple = tuple_counts[mask]
            ids = np.asarray(sorted(per_tuple), dtype=np.int64)
            per_pair = np.asarray([per_tuple[t] for t in ids.tolist()], dtype=np.int64)
            participation.append(TupleParticipation(ids, per_pair))
    return EvidenceSet(space, masks, [counts[m] for m in masks], n_rows, participation)
