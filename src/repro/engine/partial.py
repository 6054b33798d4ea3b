"""Mergeable partial evidence sets.

A :class:`PartialEvidenceSet` accumulates the output of tile folds over
any subset of tiles: a word-keyed dedup dictionary of distinct evidences,
per-chunk multiplicity histograms, and per-chunk tuple-participation
histograms keyed ``evidence_id << 32 | tuple_id``.  A fold hands over one
result for its whole tile list (:meth:`PartialEvidenceSet.add_tile`), so a
partial interns once per fold, not once per tile.  The key stride is
fixed rather than tied to the relation's size, so a partial of a growing
relation never re-keys what it absorbed.

Two partials built from disjoint tile sets can be :meth:`merge`-d — the
operation is associative and commutative up to evidence-id relabeling, and
:meth:`finalize` erases the relabeling by sorting evidences into the
canonical lexicographic word order, so *any* merge tree over the same tiles
yields a bit-identical :class:`~repro.core.evidence.EvidenceSet`.  This is
what lets a store merge each append's delta into what it holds.

Every participation chunk lists each of its evidences as one run of
ascending tuples: a fold emits its histogram sorted, and relabeling ids
moves runs without reordering them.  Exporting the histogram in key order
is then a counting sort of each chunk's runs by evidence id
(:func:`aggregate_key_histogram`), not a comparison sort of its keys.
:meth:`PartialEvidenceSet.finalize` cuts that sorted histogram into the
evidence set's CSR participation — ``offsets`` (one per evidence, plus
one), ``tuple_ids`` and ``pair_counts`` — with one ``searchsorted``
(:func:`participation_csr`); the dense and pairwise builders reach the
same arrays from their per-pair evidence ids
(:func:`participation_from_pairs`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.evidence import EvidenceSet, lexsort_word_rows

if TYPE_CHECKING:
    from repro.core.predicate_space import PredicateSpace
    from repro.engine.kernel import TilePartial

#: Participation keys pack ``evidence_id << TUPLE_ID_BITS | tuple_id``.
TUPLE_ID_BITS = 32
_TUPLE_ID_MASK = (1 << TUPLE_ID_BITS) - 1
#: Relations this large do not fit the tuple-id field of a key.
MAX_ROWS = 1 << TUPLE_ID_BITS


def check_row_count(n_rows: int) -> int:
    """``n_rows`` as an int, or ``ValueError`` if keys cannot address it."""
    n_rows = int(n_rows)
    if n_rows >= MAX_ROWS:
        raise ValueError(
            f"relations of {n_rows} rows exceed the {MAX_ROWS}-row limit of "
            f"participation keys"
        )
    return n_rows


def participation_keys(evidence_ids: np.ndarray, tuple_ids: np.ndarray) -> np.ndarray:
    """Pack evidence and tuple ids into ``evidence_id << 32 | tuple_id`` keys."""
    return (evidence_ids.astype(np.int64, copy=False) << TUPLE_ID_BITS) | tuple_ids


class PartialEvidenceSet:
    """Evidence accumulated over a subset of tiles, mergeable with others.

    Parameters
    ----------
    n_rows:
        Number of tuples of the underlying relation (merging partials with
        different ``n_rows`` is an error; :meth:`rebase_rows` grows it).
    n_words:
        Evidence word width.
    include_participation:
        Whether tuple-participation histograms are tracked.
    """

    def __init__(self, n_rows: int, n_words: int, include_participation: bool = True) -> None:
        self.n_rows = check_row_count(n_rows)
        self.n_words = int(n_words)
        self.include_participation = bool(include_participation)
        # Distinct word rows by their bytes; ids are 0..k-1 in insertion
        # order and index the rows of ``_words``, a growable buffer whose
        # first ``len(self._ids)`` rows are the distinct words.
        self._ids: dict[bytes, int] = {}
        self._words = np.zeros((0, self.n_words), dtype=np.uint64)
        self._id_chunks: list[np.ndarray] = []
        self._count_chunks: list[np.ndarray] = []
        self._part_key_chunks: list[np.ndarray] = []
        self._part_count_chunks: list[np.ndarray] = []
        self._chunk_bytes = 0

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def recorded_pairs(self) -> int:
        """Ordered pairs absorbed so far (sum of chunk multiplicities)."""
        return int(sum(int(chunk.sum()) for chunk in self._count_chunks))

    def _chunk_lists(self) -> tuple[list[np.ndarray], ...]:
        return (
            self._id_chunks, self._count_chunks,
            self._part_key_chunks, self._part_count_chunks,
        )

    @property
    def chunk_count(self) -> int:
        """Arrays held across the id, count and participation chunk lists."""
        return sum(len(chunks) for chunks in self._chunk_lists())

    @property
    def chunk_bytes(self) -> int:
        """Bytes held by the chunk arrays (the distinct word rows excluded).

        A running total kept by every method that adds or replaces chunks,
        so reading it is O(1) however many chunks the partial holds.
        """
        return self._chunk_bytes

    def _add_chunks(self, chunks: list[np.ndarray], *arrays: np.ndarray) -> None:
        chunks.extend(arrays)
        self._chunk_bytes += sum(array.nbytes for array in arrays)

    def _recount_chunk_bytes(self) -> None:
        self._chunk_bytes = sum(
            chunk.nbytes for chunks in self._chunk_lists() for chunk in chunks
        )

    def _distinct_words(self) -> np.ndarray:
        """The distinct word rows in intern order (a view; do not mutate)."""
        return self._words[: len(self._ids)]

    def _row_keys(self, words: np.ndarray) -> list[bytes]:
        """Each row of ``words`` as its bytes, in one vectorised step."""
        rows = np.ascontiguousarray(words, dtype=np.uint64).reshape(-1, self.n_words)
        return rows.view(np.dtype((np.void, 8 * self.n_words))).ravel().tolist()

    def _intern(self, keys: list[bytes], words: np.ndarray) -> np.ndarray:
        """Map distinct word rows (with their byte ``keys``) to global ids.

        Rows not seen before get the next ids in order and are copied into
        the word buffer in one slice assignment.  ``keys`` must be distinct,
        which kernel tiles and partials guarantee.
        """
        ids = self._ids
        base = len(ids)
        unseen = [key for key in keys if key not in ids]
        ids.update(zip(unseen, range(base, base + len(unseen))))
        mapping = np.fromiter(map(ids.__getitem__, keys), dtype=np.int64, count=len(keys))
        fresh = words[mapping >= base]
        if len(fresh):
            stop = base + len(fresh)
            if stop > len(self._words):
                # Doubling keeps the row copies amortized O(1) per word.
                grown = np.empty((max(stop, 2 * base), self.n_words), dtype=np.uint64)
                grown[:base] = self._words[:base]
                self._words = grown
            self._words[base:stop] = fresh
        return mapping

    @staticmethod
    def _remap_part_keys(keys: np.ndarray, mapping: np.ndarray) -> np.ndarray:
        """Rewrite the evidence ids of ``local_id << 32 | tuple`` keys."""
        return participation_keys(mapping[keys >> TUPLE_ID_BITS], keys & _TUPLE_ID_MASK)

    def add_tile(self, tile_partial: "TilePartial") -> "PartialEvidenceSet":
        """Absorb one kernel result (a fold of any number of tiles);
        returns ``self`` for chaining."""
        words = tile_partial.words
        mapping = self._intern(self._row_keys(words), words)
        self._add_chunks(self._id_chunks, mapping)
        self._add_chunks(self._count_chunks, np.asarray(tile_partial.counts, dtype=np.int64))
        if self.include_participation:
            if tile_partial.part_keys is None:
                raise ValueError("tile partial lacks the participation histogram")
            self._add_chunks(
                self._part_key_chunks,
                self._remap_part_keys(tile_partial.part_keys, mapping),
            )
            self._add_chunks(
                self._part_count_chunks,
                np.asarray(tile_partial.part_counts, dtype=np.int64),
            )
        return self

    def merge(self, other: "PartialEvidenceSet") -> "PartialEvidenceSet":
        """Fold ``other`` into ``self``; returns ``self`` for chaining.

        The word dictionaries are unioned (``other``'s ids remapped onto
        ``self``'s), multiplicity chunks concatenate (their histograms add
        at finalization), and participation chunks concatenate with their
        evidence ids rewritten.  The operation is associative and
        commutative up to id relabeling, which :meth:`finalize` erases.
        """
        if other.n_rows != self.n_rows or other.n_words != self.n_words:
            raise ValueError("cannot merge partials of different relations")
        if other.include_participation != self.include_participation:
            raise ValueError("cannot merge partials with mismatched participation")
        # other._ids already holds each row's byte key in id order, so the
        # union reuses the keys instead of re-serializing every row.
        remap = self._intern(list(other._ids), other._distinct_words())
        self._add_chunks(self._id_chunks, *(remap[chunk] for chunk in other._id_chunks))
        self._add_chunks(self._count_chunks, *other._count_chunks)
        if self.include_participation:
            self._add_chunks(
                self._part_key_chunks,
                *(self._remap_part_keys(keys, remap) for keys in other._part_key_chunks),
            )
            self._add_chunks(self._part_count_chunks, *other._part_count_chunks)
        return self

    def rebase_rows(self, new_n_rows: int) -> "PartialEvidenceSet":
        """Adopt a grown relation of ``new_n_rows`` tuples; O(1).

        Appends never renumber existing tuples and participation keys have a
        fixed stride, so nothing absorbed so far changes: only ``n_rows``
        moves, which lets the partial merge tiles of the grown relation.
        Returns ``self`` for chaining.
        """
        if new_n_rows < self.n_rows:
            raise ValueError(
                f"cannot rebase partial of {self.n_rows} rows down to {new_n_rows}"
            )
        self.n_rows = check_row_count(new_n_rows)
        return self

    def _totals(self) -> np.ndarray:
        """Summed multiplicity of every distinct word, by intern id."""
        totals = np.zeros(len(self._ids), dtype=np.int64)
        for ids, chunk_counts in zip(self._id_chunks, self._count_chunks):
            np.add.at(totals, ids, chunk_counts)
        return totals

    def compact(self) -> "PartialEvidenceSet":
        """Fold every chunk list into one histogram chunk; returns ``self``.

        The id/count chunks become one ``word_histogram`` chunk and the
        participation chunks one :func:`aggregate_key_histogram` chunk, so
        the partial holds one entry per distinct evidence and per distinct
        ``(evidence, tuple)`` pair.  Everything is computed before any list
        is replaced and no array is mutated, so a failure leaves the old
        (equivalent) chunks in place and :meth:`copy`-shared chunks intact.
        """
        id_chunks = [np.arange(len(self._ids), dtype=np.int64)] if self._ids else []
        count_chunks = [self._totals()] if self._ids else []
        key_chunks, part_count_chunks = self._part_key_chunks, self._part_count_chunks
        if key_chunks:
            keys, counts = aggregate_key_histogram(
                key_chunks, part_count_chunks, len(self._ids)
            )
            key_chunks, part_count_chunks = [keys], [counts]
        self._id_chunks, self._count_chunks = id_chunks, count_chunks
        self._part_key_chunks, self._part_count_chunks = key_chunks, part_count_chunks
        self._recount_chunk_bytes()
        return self

    def word_histogram(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct evidence words and their summed multiplicities, unfinalized.

        Returns ``(words, totals)``: the ``(n_distinct, n_words)`` uint64
        rows in *intern* order (not the canonical lexicographic order —
        callers aggregating over rows must not depend on row positions; a
        read-only view of the word buffer, not a copy) and the per-row total
        pair multiplicity across all absorbed chunks.

        This is the maintenance hook of the push-based violation counters
        (:class:`repro.serve.counters.ViolationCounters`): summing pair
        multiplicities over the rows a DC's hitting set misses gives the
        exact violating-pair count of :meth:`finalize` +
        :meth:`~repro.core.evidence.EvidenceSet.uncovered_pair_count`
        without paying the lexsort or the participation merge — duplicate
        grouping cannot change a sum.
        """
        return self._distinct_words(), self._totals()

    def state_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The partial compacted to four arrays, for durable snapshots.

        Returns ``(words, totals, part_keys, part_counts)``: the distinct
        word rows in intern order with their summed multiplicities, plus the
        fully aggregated ``evidence_id * n_rows + tuple_id`` participation
        histogram (sorted by key; empty arrays when participation is off).
        That is the snapshot file's key layout, so the in-memory ``<< 32``
        keys are converted on the way out (and back by
        :meth:`from_state_arrays`).  Evidence ids inside ``part_keys`` index
        into ``words`` rows.  The chunk structure — which tiles were absorbed
        in which order, through which merge tree — is deliberately erased:
        :meth:`finalize` already guarantees it cannot influence the result,
        so a partial restored via :meth:`from_state_arrays` finalizes
        bit-identically.
        """
        words, totals = self.word_histogram()
        if self.include_participation and self._part_key_chunks:
            keys, part_counts = aggregate_key_histogram(
                self._part_key_chunks, self._part_count_chunks, len(self._ids)
            )
            stride = max(self.n_rows, 1)
            part_keys = (keys >> TUPLE_ID_BITS) * stride + (keys & _TUPLE_ID_MASK)
        else:
            part_keys = np.zeros(0, dtype=np.int64)
            part_counts = np.zeros(0, dtype=np.int64)
        return words, totals, part_keys, part_counts

    @classmethod
    def from_state_arrays(
        cls,
        n_rows: int,
        n_words: int,
        include_participation: bool,
        words: np.ndarray,
        totals: np.ndarray,
        part_keys: np.ndarray,
        part_counts: np.ndarray,
    ) -> "PartialEvidenceSet":
        """Rebuild a partial from :meth:`state_arrays` output.

        ``part_keys`` come in the snapshot's ``evidence_id * n_rows +
        tuple_id`` layout and are converted to ``<< 32`` keys.  The restored
        partial merges, rebases, and finalizes exactly like the
        original — intern order is preserved by construction, and finalize
        erases it anyway.
        """
        partial = cls(n_rows, n_words, include_participation)
        words = np.array(words, dtype=np.uint64, order="C").reshape(-1, int(n_words))
        if len(words):
            keys = partial._row_keys(words)
            partial._ids = dict(zip(keys, range(len(keys))))
            if len(partial._ids) != len(words):
                raise ValueError("snapshot word rows are not distinct")
            partial._words = words
            partial._id_chunks = [np.arange(len(words), dtype=np.int64)]
            partial._count_chunks = [np.asarray(totals, dtype=np.int64)]
        if include_participation and len(part_keys):
            part_keys = np.asarray(part_keys, dtype=np.int64)
            evidence_ids, tuple_ids = np.divmod(part_keys, max(partial.n_rows, 1))
            partial._part_key_chunks = [participation_keys(evidence_ids, tuple_ids)]
            partial._part_count_chunks = [np.asarray(part_counts, dtype=np.int64)]
        partial._recount_chunk_bytes()
        return partial

    def copy(self) -> "PartialEvidenceSet":
        """Independent copy.

        Chunk arrays are shared (they are never mutated); the word buffer
        is copied because both partials go on appending rows to it.
        """
        duplicate = PartialEvidenceSet(self.n_rows, self.n_words, self.include_participation)
        duplicate._ids = dict(self._ids)
        duplicate._words = self._distinct_words().copy()
        duplicate._id_chunks = list(self._id_chunks)
        duplicate._count_chunks = list(self._count_chunks)
        duplicate._part_key_chunks = list(self._part_key_chunks)
        duplicate._part_count_chunks = list(self._part_count_chunks)
        duplicate._chunk_bytes = self._chunk_bytes
        return duplicate

    def finalize(self, space: "PredicateSpace") -> EvidenceSet:
        """Resolve the accumulated chunks into a canonical evidence set.

        Evidences are emitted in lexicographic word order regardless of the
        order tiles were absorbed or partials merged, so every merge tree
        over the same tiles finalizes to a bit-identical result.
        """
        n_evidences = len(self._ids)
        words = self._distinct_words()
        order = lexsort_word_rows(words)
        rank = np.empty(n_evidences, dtype=np.int64)
        rank[order] = np.arange(n_evidences, dtype=np.int64)
        words = words[order]

        counts = np.zeros(n_evidences, dtype=np.int64)
        for ids, chunk_counts in zip(self._id_chunks, self._count_chunks):
            np.add.at(counts, rank[ids], chunk_counts)

        participation = None
        if self.include_participation:
            keys, key_counts = aggregate_key_histogram(
                self._part_key_chunks, self._part_count_chunks, n_evidences, rank
            )
            participation = participation_csr(keys, key_counts, n_evidences)
        return EvidenceSet(
            space, counts=counts, n_rows=self.n_rows,
            participation=participation, words=words,
        )


def _key_ordered(
    keys: np.ndarray, counts: np.ndarray, n_ids: int, rank: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """One chunk relabeled through ``rank`` and put in key order.

    A chunk whose evidences each form one run of ascending tuples is
    ordered by a counting sort of its runs: run sizes per id, their prefix
    sums, one scatter.  Any other chunk falls back to a stable sort.
    """
    ids = keys >> TUPLE_ID_BITS
    if rank is not None:
        ids = rank[ids]
        keys = participation_keys(ids, keys & _TUPLE_ID_MASK)
    if len(keys) < 2:
        return keys, counts
    starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
    run_ids = ids[starts]
    if np.bincount(run_ids, minlength=n_ids).max() == 1:
        lengths = np.diff(np.r_[starts, len(keys)])
        sizes = np.zeros(n_ids, dtype=np.int64)
        sizes[run_ids] = lengths
        offsets = np.cumsum(sizes) - sizes
        targets = np.repeat(offsets[run_ids] - starts, lengths) + np.arange(len(keys))
        ordered_keys = np.empty_like(keys)
        ordered_keys[targets] = keys
        ordered_counts = np.empty_like(counts)
        ordered_counts[targets] = counts
        if (ordered_keys[1:] > ordered_keys[:-1]).all():
            return ordered_keys, ordered_counts
    order = np.argsort(keys, kind="stable")
    return keys[order], counts[order]


def aggregate_key_histogram(
    key_chunks: list[np.ndarray],
    count_chunks: list[np.ndarray],
    n_ids: int,
    rank: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sum per-chunk ``(key, count)`` histograms into one sorted histogram.

    Evidence ids (``< n_ids``) are relabeled through ``rank`` first when it
    is given.  Each chunk is put in key order on its own
    (:func:`_key_ordered`); a single chunk is then already the histogram,
    and several are merged by a stable sort, which only has to interleave
    their sorted runs, and summed key by key.  No chunks give an empty
    histogram.
    """
    ordered = [
        _key_ordered(keys, np.asarray(counts, dtype=np.int64), n_ids, rank)
        for keys, counts in zip(key_chunks, count_chunks)
    ]
    if not ordered:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    if len(ordered) == 1:
        keys, counts = ordered[0]
    else:
        keys = np.concatenate([chunk_keys for chunk_keys, _ in ordered])
        counts = np.concatenate([chunk_counts for _, chunk_counts in ordered])
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        counts = counts[order]
    if len(keys) > 1 and not (keys[1:] > keys[:-1]).all():
        starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        keys = keys[starts]
        counts = np.add.reduceat(counts, starts)
    return keys, counts


def participation_csr(
    keys: np.ndarray, key_counts: np.ndarray, n_evidences: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cut a sorted ``evidence << 32 | tuple`` histogram into CSR participation.

    Returns ``(offsets, tuple_ids, pair_counts)``: key order is
    ``(evidence, tuple)`` order, so evidence ``e``'s tuples are the
    ascending slice ``offsets[e]:offsets[e + 1]``, found by one
    ``searchsorted`` of the keys' evidence ids.
    """
    keys = np.asarray(keys, dtype=np.int64)
    offsets = np.searchsorted(keys >> TUPLE_ID_BITS, np.arange(n_evidences + 1, dtype=np.int64))
    return (
        offsets.astype(np.int64, copy=False),
        keys & _TUPLE_ID_MASK,
        np.array(key_counts, dtype=np.int64),
    )


def participation_from_pairs(
    evidence_ids: np.ndarray, left: np.ndarray, right: np.ndarray, n_evidences: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR participation of the ordered pairs ``(left[k], right[k])``.

    ``evidence_ids[k]`` is the evidence of pair ``k``; both of its tuples
    take part in it once.
    """
    keys = np.concatenate([
        participation_keys(evidence_ids, left),
        participation_keys(evidence_ids, right),
    ])
    return participation_csr(*np.unique(keys, return_counts=True), n_evidences)
