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
:meth:`EvidenceSet.uncovered_pair_count`) are vectorised word-plane
operations.  A compatibility view of Python-int ``masks`` is derived
lazily for callers that still want arbitrary-precision bitmasks.

The class also stores the ``vios`` structure of Figure 2: for every distinct
evidence, the tuples participating in pairs with that evidence and how many
such pairs each tuple participates in.  It is one CSR layout of three int64
arrays sorted by ``(evidence, tuple)``: evidence ``e`` owns the slice
``offsets[e]:offsets[e + 1]`` of ``tuple_ids`` (ascending) and of
``pair_counts``.  This is what the tuple-based approximation functions (f2
and the greedy replacement of f3) consume, through
:meth:`EvidenceSet.violation_counts_per_tuple`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.bitset import n_words_for_bits
from repro.core.predicate_space import PredicateSpace
from repro.core.predicates import Predicate
from repro.native import dispatch as native_dispatch

_WORD_BITS = 64
_WORD_MASK = 0xFFFFFFFFFFFFFFFF


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
    evidences in this order, which makes results reproducible and lets a
    store absorb append deltas into its partial evidence set in any order
    while still finalizing to a bit-identical :class:`EvidenceSet`.
    """
    if len(words) == 0:
        return np.zeros(0, dtype=np.int64)
    keys = tuple(words[:, word] for word in range(words.shape[1] - 1, -1, -1))
    return np.lexsort(keys)


def unique_word_rows(words: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct rows of a 2-D uint64 array with inverse indices and counts.

    Rows are returned in the canonical lexicographic order of
    :func:`lexsort_word_rows` (not ``np.unique``'s byte order, which would
    depend on the platform's endianness).  Dispatched to the kernel
    backend, whose compiled dedup is a hash pass over the rows; it takes
    at most :data:`repro.native.cext.MAX_DEDUP_ROWS` rows.  (Tile folds
    dedup inside the backend's ``fold_tiles``; this serves the dense and
    pairwise builders.)
    """
    return native_dispatch.get_backend().kernels.unique_rows(words)


class LazyMaskView(Sequence[int]):
    """Chunk-lazy Python-int view of a packed uint64 word plane.

    Converting a word row to an arbitrary-precision int costs Python-level
    work per row.  The hot paths consume ``EvidenceSet.words`` directly;
    this view serves the cold callers (display helpers, tests, the legacy
    reference enumerators) by converting rows on demand in fixed-size
    chunks and caching each chunk, so indexed access never pays for the
    rows it does not visit.

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
        Optional tuple participation (the ``vios`` structure) as the CSR
        triple ``(offsets, tuple_ids, pair_counts)``; required by the
        f2/f3 approximation functions.
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
        participation: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
        *,
        words: np.ndarray | None = None,
    ) -> None:
        self.space = space
        self.n_words = n_words_for_bits(len(space))
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
        self.n_rows = int(n_rows)
        self.offsets: np.ndarray | None = None
        self.tuple_ids: np.ndarray | None = None
        self.pair_counts: np.ndarray | None = None
        if participation is not None:
            offsets, tuple_ids, pair_counts = (
                np.asarray(array, dtype=np.int64) for array in participation
            )
            if len(offsets) != len(self.words) + 1 or offsets[0] != 0:
                raise ValueError("offsets must hold n_evidences + 1 entries from 0")
            if (np.diff(offsets) < 0).any() or offsets[-1] != len(tuple_ids):
                raise ValueError("offsets must ascend to len(tuple_ids)")
            if len(tuple_ids) != len(pair_counts):
                raise ValueError("tuple_ids and pair_counts must have equal length")
            self.offsets, self.tuple_ids, self.pair_counts = offsets, tuple_ids, pair_counts

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
        return self.offsets is not None

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

    @staticmethod
    def _index_array(evidence_indices: Iterable[int]) -> np.ndarray:
        return np.asarray(
            evidence_indices if isinstance(evidence_indices, np.ndarray) else list(evidence_indices),
            dtype=np.int64,
        )

    def pair_count_of(self, evidence_indices: Iterable[int]) -> int:
        """Total number of pairs over a collection of evidence indices."""
        return int(self.counts[self._index_array(evidence_indices)].sum())

    def violation_counts_per_tuple(self, evidence_indices: Iterable[int]) -> np.ndarray:
        """Per-tuple number of violating pairs over the given evidences.

        This is the ``v(t)`` vector computed by ``SortTuples`` in Figure 2:
        one gather of the evidences' CSR ranges and one ``bincount``.  A
        tuple takes part in at most ``2 (n - 1)`` pairs, so the float64
        weights sum exactly.
        """
        if self.offsets is None:
            raise RuntimeError(
                "evidence set was built without tuple participation; "
                "rebuild with include_participation=True to use f2/f3"
            )
        indices = self._index_array(evidence_indices)
        starts = self.offsets[indices]
        lengths = self.offsets[indices + 1] - starts
        # Gather slot k of range i reads position starts[i] + (k - first slot of i).
        positions = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
        positions += np.arange(len(positions))
        totals = np.bincount(
            self.tuple_ids[positions], weights=self.pair_counts[positions], minlength=self.n_rows
        )
        return totals.astype(np.int64)

    # ------------------------------------------------------------------
    # Utilities
    # ------------------------------------------------------------------
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
    pairs = list(pair_tuples) if pair_tuples is not None else None
    if pairs is not None and len(pairs) != len(pair_masks):
        raise ValueError("pair_tuples must align with pair_masks")
    counts: dict[int, int] = {}
    for mask in pair_masks:
        counts[mask] = counts.get(mask, 0) + 1
    n_words = n_words_for_bits(len(space))
    masks = sorted(
        counts,
        key=lambda mask: tuple(
            (mask >> (_WORD_BITS * word)) & _WORD_MASK for word in range(n_words)
        ),
    )
    participation = None
    if pairs is not None:
        # Imported here because the engine's partials import this module.
        from repro.engine.partial import participation_from_pairs

        rank = {mask: index for index, mask in enumerate(masks)}
        evidence_ids = np.fromiter(map(rank.__getitem__, pair_masks), dtype=np.int64)
        ends = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        participation = participation_from_pairs(
            evidence_ids, ends[:, 0], ends[:, 1], len(masks)
        )
    return EvidenceSet(space, masks, [counts[m] for m in masks], n_rows, participation)
