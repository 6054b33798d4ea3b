"""Mergeable partial evidence sets.

A :class:`PartialEvidenceSet` accumulates the output of tile kernels over
any subset of tiles: a word-keyed dedup dictionary of distinct evidences,
per-chunk multiplicity histograms, and per-chunk tuple-participation
histograms (keyed ``evidence_id << 32 | tuple_id``, CSR-style at
finalization).  The key stride is fixed rather than tied to the relation's
size, so a partial of a growing relation never re-keys what it absorbed.
Two partials built from disjoint tile sets can be :meth:`merge`-d — the
operation is associative and commutative up to evidence-id relabeling, and
:meth:`finalize` erases the relabeling by sorting evidences into the
canonical lexicographic word order, so *any* merge tree over the same tiles
yields a bit-identical :class:`~repro.core.evidence.EvidenceSet`.  This is
what lets cluster workers combine results in completion order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.evidence import EvidenceSet, TupleParticipation, lexsort_word_rows

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
        self._ids: dict[bytes, int] = {}
        self._rows: list[np.ndarray] = []
        self._id_chunks: list[np.ndarray] = []
        self._count_chunks: list[np.ndarray] = []
        self._part_key_chunks: list[np.ndarray] = []
        self._part_count_chunks: list[np.ndarray] = []

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
        """Bytes held by the chunk arrays (the distinct word rows excluded)."""
        return sum(chunk.nbytes for chunks in self._chunk_lists() for chunk in chunks)

    def _intern_rows(self, words: np.ndarray) -> np.ndarray:
        """Map distinct word rows to global ids, registering new ones."""
        mapping = np.empty(len(words), dtype=np.int64)
        ids = self._ids
        for local, row in enumerate(words):
            key = row.tobytes()
            global_id = ids.get(key)
            if global_id is None:
                global_id = len(ids)
                ids[key] = global_id
                # copy: appending the view would pin the source array,
                # defeating the O(tile^2) memory bound.
                self._rows.append(row.copy())
            mapping[local] = global_id
        return mapping

    @staticmethod
    def _remap_part_keys(keys: np.ndarray, mapping: np.ndarray) -> np.ndarray:
        """Rewrite the evidence ids of ``local_id << 32 | tuple`` keys."""
        return participation_keys(mapping[keys >> TUPLE_ID_BITS], keys & _TUPLE_ID_MASK)

    def add_tile(self, tile_partial: "TilePartial") -> "PartialEvidenceSet":
        """Absorb one tile kernel result; returns ``self`` for chaining."""
        mapping = self._intern_rows(tile_partial.words)
        self._id_chunks.append(mapping)
        self._count_chunks.append(np.asarray(tile_partial.counts, dtype=np.int64))
        if self.include_participation:
            if tile_partial.part_keys is None:
                raise ValueError("tile partial lacks the participation histogram")
            self._part_key_chunks.append(
                self._remap_part_keys(tile_partial.part_keys, mapping)
            )
            self._part_count_chunks.append(
                np.asarray(tile_partial.part_counts, dtype=np.int64)
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
        # other._ids already holds each row's byte key, and other._rows owns
        # copies that are never mutated, so the union can reuse both instead
        # of re-serializing and re-copying every row.
        remap = np.empty(len(other._rows), dtype=np.int64)
        for key, other_id in other._ids.items():
            global_id = self._ids.get(key)
            if global_id is None:
                global_id = len(self._ids)
                self._ids[key] = global_id
                self._rows.append(other._rows[other_id])
            remap[other_id] = global_id
        for chunk in other._id_chunks:
            self._id_chunks.append(remap[chunk])
        self._count_chunks.extend(other._count_chunks)
        if self.include_participation:
            for keys in other._part_key_chunks:
                self._part_key_chunks.append(self._remap_part_keys(keys, remap))
            self._part_count_chunks.extend(other._part_count_chunks)
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
            keys, counts = aggregate_key_histogram(key_chunks, part_count_chunks)
            key_chunks, part_count_chunks = [keys], [counts]
        self._id_chunks, self._count_chunks = id_chunks, count_chunks
        self._part_key_chunks, self._part_count_chunks = key_chunks, part_count_chunks
        return self

    def word_histogram(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct evidence words and their summed multiplicities, unfinalized.

        Returns ``(words, totals)``: the ``(n_distinct, n_words)`` uint64
        rows in *intern* order (not the canonical lexicographic order —
        callers aggregating over rows must not depend on row positions) and
        the per-row total pair multiplicity across all absorbed chunks.

        This is the maintenance hook of the push-based violation counters
        (:class:`repro.serve.counters.ViolationCounters`): summing pair
        multiplicities over the rows a DC's hitting set misses gives the
        exact violating-pair count of :meth:`finalize` +
        :meth:`~repro.core.evidence.EvidenceSet.uncovered_pair_count`
        without paying the lexsort or the participation merge — duplicate
        grouping cannot change a sum.
        """
        words = (
            np.vstack(self._rows)
            if self._rows
            else np.zeros((0, self.n_words), dtype=np.uint64)
        )
        return words, self._totals()

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
                self._part_key_chunks, self._part_count_chunks
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
        words = np.ascontiguousarray(words, dtype=np.uint64).reshape(-1, int(n_words))
        if len(words):
            partial._rows = [row for row in words]
            partial._ids = {row.tobytes(): i for i, row in enumerate(words)}
            if len(partial._ids) != len(words):
                raise ValueError("snapshot word rows are not distinct")
            partial._id_chunks = [np.arange(len(words), dtype=np.int64)]
            partial._count_chunks = [np.asarray(totals, dtype=np.int64)]
        if include_participation and len(part_keys):
            part_keys = np.asarray(part_keys, dtype=np.int64)
            evidence_ids, tuple_ids = np.divmod(part_keys, max(partial.n_rows, 1))
            partial._part_key_chunks = [participation_keys(evidence_ids, tuple_ids)]
            partial._part_count_chunks = [np.asarray(part_counts, dtype=np.int64)]
        return partial

    def copy(self) -> "PartialEvidenceSet":
        """Independent copy (chunk arrays are shared, never mutated)."""
        duplicate = PartialEvidenceSet(self.n_rows, self.n_words, self.include_participation)
        duplicate._ids = dict(self._ids)
        duplicate._rows = list(self._rows)
        duplicate._id_chunks = list(self._id_chunks)
        duplicate._count_chunks = list(self._count_chunks)
        duplicate._part_key_chunks = list(self._part_key_chunks)
        duplicate._part_count_chunks = list(self._part_count_chunks)
        return duplicate

    def finalize(self, space: "PredicateSpace") -> EvidenceSet:
        """Resolve the accumulated chunks into a canonical evidence set.

        Evidences are emitted in lexicographic word order regardless of the
        order tiles were absorbed or partials merged, so every merge tree
        over the same tiles finalizes to a bit-identical result.
        """
        n_evidences = len(self._ids)
        words = (
            np.vstack(self._rows)
            if self._rows
            else np.zeros((0, self.n_words), dtype=np.uint64)
        )
        order = lexsort_word_rows(words)
        rank = np.empty(n_evidences, dtype=np.int64)
        rank[order] = np.arange(n_evidences, dtype=np.int64)
        words = words[order]

        counts = np.zeros(n_evidences, dtype=np.int64)
        for ids, chunk_counts in zip(self._id_chunks, self._count_chunks):
            np.add.at(counts, rank[ids], chunk_counts)

        participation = None
        if self.include_participation:
            key_chunks = [
                self._remap_part_keys(keys, rank) for keys in self._part_key_chunks
            ]
            participation = participation_from_key_chunks(
                key_chunks, self._part_count_chunks, n_evidences
            )
        return EvidenceSet(
            space, counts=counts, n_rows=self.n_rows,
            participation=participation, words=words,
        )


def participation_from_key_chunks(
    key_chunks: list[np.ndarray],
    count_chunks: list[np.ndarray],
    n_evidences: int,
) -> list[TupleParticipation]:
    """Merge per-chunk ``evidence << 32 | tuple`` histograms into ``vios``.

    Each chunk contributes pre-aggregated ``(key, count)`` pairs; keys may
    repeat across chunks, so they are re-aggregated with a sort + segmented
    sum before being split per evidence.
    """
    if not key_chunks:
        return [
            TupleParticipation(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
            for _ in range(n_evidences)
        ]
    unique_keys, summed = aggregate_key_histogram(key_chunks, count_chunks)
    return split_participation(unique_keys, summed, n_evidences)


def aggregate_key_histogram(
    key_chunks: list[np.ndarray],
    count_chunks: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Sum per-chunk ``(key, count)`` histograms into one sorted histogram."""
    keys = np.concatenate(key_chunks)
    counts = np.concatenate(count_chunks)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    counts = counts[order]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    unique_keys = keys[starts]
    summed = np.add.reduceat(counts, starts)
    return unique_keys, summed


def split_participation(
    unique_keys: np.ndarray,
    key_counts: np.ndarray,
    n_evidences: int,
) -> list[TupleParticipation]:
    """Split sorted ``evidence << 32 | tuple`` keys into per-evidence rows.

    The key order is ``(evidence, tuple)`` order, so each evidence's slice
    lists its tuples ascending.
    """
    participation: list[TupleParticipation] = []
    owners = unique_keys >> TUPLE_ID_BITS
    tuples = unique_keys & _TUPLE_ID_MASK
    boundaries = np.searchsorted(owners, np.arange(n_evidences + 1))
    for evidence in range(n_evidences):
        start, stop = boundaries[evidence], boundaries[evidence + 1]
        participation.append(
            TupleParticipation(
                tuples[start:stop].copy(), key_counts[start:stop].astype(np.int64, copy=True)
            )
        )
    return participation
