"""Durability layer: WAL, snapshots, journals, and crash-point recovery.

The central claim under test: recovery after a crash at *any* fault point
is **bit-identical** to a fresh build on the rows that survived — same
finalized evidence words and counts, same tuple participation, same
generation — property-tested over seeded random crash schedules, plus
deterministic tests for each recovery source (wal-only, snapshot+tail,
snapshot-only) and every edge case the format can produce.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.relation import Relation, running_example
from repro.data.types import ColumnType
from repro.durability import (
    DedupWindow,
    DurabilityError,
    RecoveryError,
    SnapshotError,
    StoreJournal,
    WriteAheadLog,
    load_snapshot,
    write_snapshot,
)
from repro.durability.journal import plain_rows, relation_types
from repro.durability.snapshot import snapshot_path
from repro.durability.wal import MAGIC
from repro.engine.partial import PartialEvidenceSet
from repro.incremental.store import EvidenceStore
from tests.faults import FaultSchedule, SimulatedCrash, injected

#: Hand-written DC specs over the running example's schema (valid in the
#: seed relation's predicate space: same-column equality predicates).
SPECS = [
    [
        {"left": "State", "op": "==", "right": "State",
         "form": "two_tuple_same_column"},
        {"left": "Zip", "op": "!=", "right": "Zip",
         "form": "two_tuple_same_column"},
    ],
]


def example_rows() -> tuple[list[dict], dict[str, str]]:
    relation = running_example()
    return plain_rows(relation), relation_types(relation)


def column_types(types: dict[str, str]) -> dict[str, ColumnType]:
    return {column: ColumnType(text) for column, text in types.items()}


def build_oracle(
    name: str, types: dict[str, str], seed: list[dict], batches: list[list[dict]]
) -> EvidenceStore:
    """The ground truth: a fresh store fed the same batches, no journal."""
    store = EvidenceStore(Relation.from_records(name, seed, column_types(types)))
    for batch in batches:
        store.append(batch)
    return store


def assert_bit_identical(recovered: EvidenceStore, oracle: EvidenceStore) -> None:
    assert recovered.n_rows == oracle.n_rows
    assert recovered.generation == oracle.generation
    a, b = recovered.evidence(), oracle.evidence()
    assert a.words.tobytes() == b.words.tobytes()
    assert np.array_equal(a.counts, b.counts)
    assert np.array_equal(a.offsets, b.offsets)
    assert np.array_equal(a.tuple_ids, b.tuple_ids)
    assert np.array_equal(a.pair_counts, b.pair_counts)


# ----------------------------------------------------------------------
# WriteAheadLog
# ----------------------------------------------------------------------
class TestWriteAheadLog:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "wal.log"
        payloads = [b"alpha", b"", b"\x00" * 100, b"omega" * 50]
        with WriteAheadLog(path) as wal:
            for payload in payloads:
                wal.append(payload)
            wal.sync()
            assert list(wal.replay()) == payloads

    def test_reopen_continues_appending(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append(b"one")
            wal.sync()
        with WriteAheadLog(path) as wal:
            assert wal.n_records == 1
            wal.append(b"two")
            wal.sync()
            assert list(wal.replay()) == [b"one", b"two"]

    def test_torn_tail_is_truncated(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append(b"keep-me")
            wal.append(b"torn-away")
            wal.sync()
        intact = path.stat().st_size
        with open(path, "r+b") as handle:
            handle.truncate(intact - 4)  # tear the last record's tail
        with WriteAheadLog(path) as wal:
            assert wal.n_records == 1
            assert wal.truncated_bytes > 0
            assert list(wal.replay()) == [b"keep-me"]
            wal.append(b"after-heal")  # the healed log keeps working
            wal.sync()
            assert list(wal.replay()) == [b"keep-me", b"after-heal"]

    def test_corrupt_record_truncates_from_there(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append(b"good")
            wal.append(b"bad-to-be")
            wal.append(b"unreachable")
            wal.sync()
        raw = bytearray(path.read_bytes())
        # Flip a byte inside the second record's payload: its CRC fails,
        # and everything after it is unreachable garbage by definition.
        offset = len(MAGIC) + 8 + len(b"good") + 8
        raw[offset] ^= 0xFF
        path.write_bytes(bytes(raw))
        with WriteAheadLog(path) as wal:
            assert list(wal.replay()) == [b"good"]

    def test_reset_empties_the_log(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append(b"gone-after-reset")
            wal.sync()
            wal.reset()
            assert wal.n_records == 0
            assert list(wal.replay()) == []
            assert path.stat().st_size == len(MAGIC)

    def test_fsync_policies_all_round_trip(self, tmp_path):
        for policy in ("always", "commit", "never"):
            path = tmp_path / f"wal-{policy}.log"
            with WriteAheadLog(path, fsync=policy) as wal:
                wal.append(b"payload")
                wal.sync()
                assert list(wal.replay()) == [b"payload"]

    def test_torn_write_fault_persists_only_a_prefix(self, tmp_path):
        path = tmp_path / "wal.log"
        faults = FaultSchedule(torn_writes={("wal_write", 1): 5})
        with injected(faults), WriteAheadLog(path) as wal:
            wal.append(b"whole")
            wal.sync()
            with pytest.raises(SimulatedCrash):
                wal.append(b"torn-record-payload")
        assert faults.fired  # the scheduled point was actually reached
        with WriteAheadLog(path) as wal:
            assert list(wal.replay()) == [b"whole"]
            assert wal.truncated_bytes > 0

    def test_fsync_failure_surfaces_as_oserror(self, tmp_path):
        path = tmp_path / "wal.log"
        faults = FaultSchedule(sync_failures=frozenset({("wal_sync", 1)}))
        with injected(faults), WriteAheadLog(path, fsync="commit") as wal:
            wal.append(b"first")
            wal.sync()  # occurrence 0: fine
            wal.append(b"second")
            with pytest.raises(OSError):
                wal.sync()


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------
class TestSnapshot:
    def test_round_trip_preserves_meta_key_order_and_arrays(self, tmp_path):
        path = tmp_path / "snapshot-00000001.snap"
        meta = {"zebra": 1, "alpha": 2, "rows": [{"B": 1, "A": 2}]}
        arrays = {
            "words": np.arange(12, dtype=np.uint64).reshape(3, 4),
            "totals": np.array([5, 6, 7], dtype=np.int64),
        }
        write_snapshot(path, meta, arrays)
        loaded_meta, loaded_arrays = load_snapshot(path)
        # Key order is semantic (column order derives the bit layout), so
        # the JSON round trip must preserve it exactly.
        assert list(loaded_meta["rows"][0]) == ["B", "A"]
        assert list(loaded_meta)[:3] == ["zebra", "alpha", "rows"]
        for name, array in arrays.items():
            assert np.array_equal(loaded_arrays[name], array)
            assert loaded_arrays[name].dtype == array.dtype

    def test_corruption_is_detected(self, tmp_path):
        path = tmp_path / "snapshot-00000001.snap"
        write_snapshot(path, {"v": 1}, {"a": np.arange(3)})
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError):
            load_snapshot(path)

    def test_crash_before_rename_leaves_old_version_live(self, tmp_path):
        path = tmp_path / "snapshot-00000001.snap"
        write_snapshot(path, {"v": 1}, {"a": np.arange(3)})
        faults = FaultSchedule.crash_at("snapshot_rename")
        with injected(faults), pytest.raises(SimulatedCrash):
            write_snapshot(path, {"v": 2}, {"a": np.arange(9)})
        meta, arrays = load_snapshot(path)
        assert meta["v"] == 1 and len(arrays["a"]) == 3

    def test_not_a_snapshot_file(self, tmp_path):
        path = tmp_path / "snapshot-00000001.snap"
        path.write_bytes(b"definitely not a snapshot")
        with pytest.raises(SnapshotError):
            load_snapshot(path)


# ----------------------------------------------------------------------
# PartialEvidenceSet state arrays
# ----------------------------------------------------------------------
class TestPartialStateRoundTrip:
    def test_state_arrays_round_trip_is_bit_identical(self):
        rows, types = example_rows()
        store = build_oracle("people", types, rows[:8], [rows[8:12], rows[12:15]])
        partial = store.partial
        words, totals, part_keys, part_counts = partial.state_arrays()
        restored = PartialEvidenceSet.from_state_arrays(
            partial.n_rows, partial.n_words, True,
            words, totals, part_keys, part_counts,
        )
        a = partial.finalize(store.space)
        b = restored.finalize(store.space)
        assert a.words.tobytes() == b.words.tobytes()
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.offsets, b.offsets)
        assert np.array_equal(a.tuple_ids, b.tuple_ids)
        assert np.array_equal(a.pair_counts, b.pair_counts)


# ----------------------------------------------------------------------
# StoreJournal: the three recovery sources
# ----------------------------------------------------------------------
def run_journaled_workload(
    directory: Path,
    seed: list[dict],
    batches: list[list[dict]],
    types: dict[str, str],
    snapshot_every_bytes: int = 1 << 30,
    progress: dict | None = None,
) -> tuple[StoreJournal, EvidenceStore, int]:
    """Create + append through the journal exactly as the server does.

    Returns ``(journal, store, acked_batches)``.  Under an injected fault
    schedule it raises wherever the schedule says; ``progress`` then holds
    what had happened by the crash: the ``journal`` (once created),
    ``acked`` batches and whether the constraints were ``constraints_acked``.
    """
    progress = {} if progress is None else progress
    progress.update(acked=0, constraints_acked=False)
    journal = StoreJournal.create(
        directory, "people", seed, types,
        snapshot_every_bytes=snapshot_every_bytes,
    )
    progress["journal"] = journal
    store = EvidenceStore(Relation.from_records("people", seed, column_types(types)))
    acked = 0
    for index, batch in enumerate(batches):
        if index == 2:
            journal.log_constraints(SPECS, 0.05, "declared")
            progress["constraints_acked"] = True
        store.append(
            batch,
            pre_commit=lambda n, b=batch, k=index: journal.log_append(
                b, [[f"req-{k}", len(b)]]
            ),
        )
        acked = index + 1
        progress["acked"] = acked
        journal.maybe_snapshot(store, None)
    return journal, store, acked


class TestStoreJournalRecovery:
    def make_batches(self, rows):
        return [rows[8:10], rows[10:12], rows[12:14], rows[14:15],
                [dict(row, Name=row["Name"] + "-dup") for row in rows[3:6]]]

    def test_wal_only_recovery(self, tmp_path):
        rows, types = example_rows()
        batches = self.make_batches(rows)
        journal, live, _ = run_journaled_workload(
            tmp_path / "people", rows[:8], batches, types
        )
        journal.close()
        recovered = StoreJournal.recover(tmp_path / "people")
        try:
            assert recovered.stats.source == "wal"
            assert_bit_identical(recovered.store, live)
            assert recovered.constraint_specs == SPECS
            assert recovered.epsilon == 0.05
            assert recovered.constraint_source == "declared"
        finally:
            recovered.journal.close()

    @pytest.mark.parametrize("journaled", ["string", "float"])
    def test_journaled_types_pin_a_column_with_missing_values(self, tmp_path, journaled):
        """A column with missing numbers recovers as the type its journal
        recorded: stores persisted with such a column as ``string`` stay
        ``string``, and inference never re-runs on recovery."""
        raw = [{"x": 1.5, "s": "a"}, {"x": None, "s": "b"}, {"x": 4.0, "s": "a"}]
        types = {"x": journaled, "s": "string"}
        relation = Relation.from_records("gaps", raw, column_types(types))
        journal = StoreJournal.create(
            tmp_path / "gaps", "gaps", plain_rows(relation), relation_types(relation)
        )
        journal.close()
        recovered = StoreJournal.recover(tmp_path / "gaps")
        try:
            assert recovered.store.relation.column_type("x") is ColumnType(journaled)
            assert_bit_identical(recovered.store, EvidenceStore(relation))
        finally:
            recovered.journal.close()

    def test_snapshot_plus_tail_recovery(self, tmp_path):
        rows, types = example_rows()
        batches = self.make_batches(rows)
        journal, live, _ = run_journaled_workload(
            tmp_path / "people", rows[:8], batches, types
        )
        # Snapshot now, then append a post-snapshot tail.
        journal.snapshot(live, None)
        tail = [dict(row, Name=row["Name"] + "-tail") for row in rows[:3]]
        live.append(tail, pre_commit=lambda n: journal.log_append(
            tail, [["req-tail", len(tail)]]
        ))
        journal.close()
        recovered = StoreJournal.recover(tmp_path / "people")
        try:
            assert recovered.stats.source == "snapshot+wal"
            assert recovered.stats.replayed_records == 1
            assert_bit_identical(recovered.store, live)
            assert recovered.constraint_specs == SPECS
            # The replayed tail rebuilds its dedup entry.
            assert any(key == "req-tail" for key, _ in recovered.dedup_entries)
        finally:
            recovered.journal.close()

    def test_snapshot_only_recovery(self, tmp_path):
        rows, types = example_rows()
        batches = self.make_batches(rows)
        journal, live, _ = run_journaled_workload(
            tmp_path / "people", rows[:8], batches, types
        )
        journal.snapshot(live, None)
        journal.close()
        recovered = StoreJournal.recover(tmp_path / "people")
        try:
            assert recovered.stats.source == "snapshot"
            assert_bit_identical(recovered.store, live)
        finally:
            recovered.journal.close()

    def test_snapshot_in_the_size_strided_key_layout_recovers(self, tmp_path):
        """Snapshots key participation as ``evidence_id * n_rows + tuple_id``.

        The in-memory keys use a fixed ``<< 32`` stride; the file format
        does not.  A snapshot whose arrays are built by hand in the file's
        layout must recover bit-identically, participation included, and
        the journal must keep writing that layout.
        """
        rows, types = example_rows()
        batches = self.make_batches(rows)
        journal, live, _ = run_journaled_workload(
            tmp_path / "people", rows[:8], batches, types
        )
        version = journal.snapshot(live, None)
        journal.close()
        path = snapshot_path(tmp_path / "people", version)
        meta, written = load_snapshot(path)

        evidence = live.evidence()
        n = live.n_rows
        owners = np.repeat(np.arange(len(evidence)), np.diff(evidence.offsets))
        by_hand = {
            "words": evidence.words,
            "totals": evidence.counts,
            "part_keys": (owners * n + evidence.tuple_ids).astype(np.int64),
            "part_counts": evidence.pair_counts.astype(np.int64),
        }

        def triples(arrays):
            ids, tuples = np.divmod(arrays["part_keys"], n)
            return sorted(
                (arrays["words"][e].tobytes(), int(t), int(c))
                for e, t, c in zip(ids, tuples, arrays["part_counts"])
            )

        assert triples(written) == triples(by_hand)
        del meta["arrays"]
        write_snapshot(path, meta, by_hand)
        recovered = StoreJournal.recover(tmp_path / "people")
        try:
            assert recovered.stats.source == "snapshot"
            assert_bit_identical(recovered.store, live)
            assert_bit_identical(
                recovered.store, build_oracle("people", types, rows[:8], batches)
            )
        finally:
            recovered.journal.close()

    def test_recovery_matches_fresh_build_oracle(self, tmp_path):
        rows, types = example_rows()
        batches = self.make_batches(rows)
        journal, _, _ = run_journaled_workload(
            tmp_path / "people", rows[:8], batches, types,
            snapshot_every_bytes=1,  # snapshot after every append
        )
        journal.close()
        recovered = StoreJournal.recover(tmp_path / "people")
        try:
            oracle = build_oracle("people", types, rows[:8], batches)
            assert_bit_identical(recovered.store, oracle)
        finally:
            recovered.journal.close()


# ----------------------------------------------------------------------
# Recovery is bit-identical at every crash point
# ----------------------------------------------------------------------
def crash_and_recover(schedule: FaultSchedule, snapshot_every: int) -> None:
    """Run the journaled workload under ``schedule``, then recover and
    assert the store is bit-identical to a fresh build on the surviving
    batches, which cover at least every acknowledged one."""
    rows, types = example_rows()
    seed_rows = rows[:8]
    batches = [rows[8:10], rows[10:12], rows[12:14], rows[14:15],
               [dict(row, Name=row["Name"] + "-x") for row in rows[5:8]]]
    sizes = [len(seed_rows)]
    for batch in batches:
        sizes.append(sizes[-1] + len(batch))
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp) / "people"
        progress: dict = {}
        with injected(schedule):
            try:
                run_journaled_workload(
                    directory, seed_rows, batches, types,
                    snapshot_every_bytes=snapshot_every, progress=progress,
                )
            except (SimulatedCrash, OSError):
                pass
            finally:
                journal = progress.get("journal")
                if journal is not None and not journal.closed:
                    try:
                        journal.close()
                    except (SimulatedCrash, OSError):
                        pass
        created = "journal" in progress
        acked = progress["acked"]

        if not created and not directory.exists():
            return  # crashed before any directory existed

        try:
            recovered = StoreJournal.recover(directory)
        except RecoveryError:
            # Legal only when nothing was ever acknowledged: the
            # creation record itself died mid-write.
            assert not created
            return
        try:
            # The recovered row count must sit on a batch boundary at
            # or past everything acknowledged (fsync-crash simulations
            # leave buffered-but-unacked records readable).
            assert recovered.store.n_rows in sizes
            survived = sizes.index(recovered.store.n_rows)
            assert survived >= acked
            oracle = build_oracle(
                "people", types, seed_rows, batches[:survived]
            )
            assert_bit_identical(recovered.store, oracle)
            if progress["constraints_acked"]:
                assert recovered.constraint_specs == SPECS
        finally:
            recovered.journal.close()


#: Snapshot thresholds of the two sweep modes: compact after every append,
#: or never.
SNAPSHOT_EVERY = {"snapshot-every-append": 1, "no-snapshots": 1 << 30}

#: How often the journaled workload reaches each fault point, per mode: 7
#: WAL records (creation, 5 appends, the constraints) each written, whole
#: and synced, and per snapshot 5 sections, a rename and a log reset.
FAULT_POINTS = {
    "snapshot-every-append": {
        "wal_write": 7, "wal_record": 7, "wal_sync": 7,
        "snapshot_write": 25, "snapshot_rename": 5, "snapshot_reset": 5,
    },
    "no-snapshots": {"wal_write": 7, "wal_record": 7, "wal_sync": 7},
}


class TestCrashPointSweep:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=100_000))
    def test_recovery_bit_identical_after_seeded_crash(self, seed):
        snapshot_every = 1 if seed % 2 else 1 << 30
        crash_and_recover(FaultSchedule.seeded(seed), snapshot_every)

    @pytest.mark.parametrize("mode, total", [("snapshot-every-append", 56), ("no-snapshots", 21)])
    def test_fault_point_census(self, mode, total):
        """The workload reaches every fault point the durability code marks,
        exactly as often as :data:`FAULT_POINTS` says."""
        census = FaultSchedule()
        crash_and_recover(census, SNAPSHOT_EVERY[mode])
        assert census.counts == FAULT_POINTS[mode]
        assert sum(census.counts.values()) == total

    @pytest.mark.parametrize(
        "mode, label",
        [(mode, label) for mode, points in FAULT_POINTS.items() for label in points],
    )
    def test_recovery_bit_identical_at_every_fault_point(self, mode, label):
        """One run per occurrence of ``label``, crashing there; plus a torn
        write at the first and last record or snapshot-section write, and a
        failed fsync at the first and last sync."""
        count = FAULT_POINTS[mode][label]
        schedules = [FaultSchedule.crash_at(label, occurrence) for occurrence in range(count)]
        for occurrence in sorted({0, count - 1}):
            point = (label, occurrence)
            if label in ("wal_write", "snapshot_write"):
                schedules.append(FaultSchedule(torn_writes={point: 0.5}))
            elif label == "wal_sync":
                schedules.append(FaultSchedule(sync_failures=frozenset({point})))
        for schedule in schedules:
            crash_and_recover(schedule, SNAPSHOT_EVERY[mode])
            assert len(schedule.fired) == 1, schedule


# ----------------------------------------------------------------------
# Edge cases
# ----------------------------------------------------------------------
class TestRecoveryEdgeCases:
    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(RecoveryError):
            StoreJournal.recover(tmp_path / "never-created")

    def test_empty_wal_without_snapshot_raises(self, tmp_path):
        directory = tmp_path / "people"
        directory.mkdir()
        WriteAheadLog(directory / "wal.log").close()  # magic only
        with pytest.raises(RecoveryError):
            StoreJournal.recover(directory)

    def test_create_refuses_existing_journal(self, tmp_path):
        rows, types = example_rows()
        journal = StoreJournal.create(tmp_path / "people", "people", rows[:4], types)
        journal.close()
        with pytest.raises(DurabilityError):
            StoreJournal.create(tmp_path / "people", "people", rows[:4], types)

    def test_truncated_final_record_drops_exactly_that_batch(self, tmp_path):
        rows, types = example_rows()
        batches = [rows[8:11], rows[11:15]]
        journal, _, _ = run_journaled_workload(
            tmp_path / "people", rows[:8], batches, types
        )
        journal.close()
        wal_path = tmp_path / "people" / "wal.log"
        with open(wal_path, "r+b") as handle:
            handle.truncate(wal_path.stat().st_size - 3)
        recovered = StoreJournal.recover(tmp_path / "people")
        try:
            assert recovered.stats.truncated_bytes > 0
            oracle = build_oracle("people", types, rows[:8], batches[:-1])
            assert_bit_identical(recovered.store, oracle)
        finally:
            recovered.journal.close()

    def test_duplicate_request_key_replay_dedups(self, tmp_path):
        rows, types = example_rows()
        journal, store, _ = run_journaled_workload(
            tmp_path / "people", rows[:8], [rows[8:10]], types
        )
        journal.close()
        recovered = StoreJournal.recover(tmp_path / "people")
        try:
            dedup = DedupWindow()
            dedup.load(recovered.dedup_entries)
            hit = dedup.get("req-0")
            assert hit is not None
            assert hit["appended"] == 2
            assert dedup.hits == 1
        finally:
            recovered.journal.close()

    def test_declared_but_never_mined_constraints_survive(self, tmp_path):
        rows, types = example_rows()
        journal = StoreJournal.create(tmp_path / "people", "people", rows[:8], types)
        journal.log_constraints(SPECS, 0.2, "declared")
        journal.log_epsilon(0.35)
        journal.close()
        recovered = StoreJournal.recover(tmp_path / "people")
        try:
            assert recovered.constraint_specs == SPECS
            assert recovered.epsilon == 0.35  # epsilon record wins
            assert recovered.constraint_source == "declared"
            assert recovered.store.n_rows == 8  # seed only, never appended
        finally:
            recovered.journal.close()

    def test_corrupt_newest_snapshot_falls_back_to_older(self, tmp_path):
        rows, types = example_rows()
        journal, live, _ = run_journaled_workload(
            tmp_path / "people", rows[:8], [rows[8:12]], types
        )
        first = journal.snapshot(live, None)
        first_path = tmp_path / "people" / f"snapshot-{first:08d}.snap"
        first_bytes = first_path.read_bytes()
        live.append(rows[12:15], pre_commit=lambda n: journal.log_append(
            rows[12:15], [[None, 3]]
        ))
        second = journal.snapshot(live, None)
        journal.close()
        # Resurrect the older version (compaction deleted it) and corrupt
        # the newest: recovery must skip the bad file and fall back.
        first_path.write_bytes(first_bytes)
        second_path = tmp_path / "people" / f"snapshot-{second:08d}.snap"
        raw = bytearray(second_path.read_bytes())
        raw[-1] ^= 0x01
        second_path.write_bytes(bytes(raw))
        recovered = StoreJournal.recover(tmp_path / "people")
        try:
            assert recovered.stats.skipped_snapshots == [second]
            assert recovered.stats.snapshot_version == first
            # The WAL was reset by the second compaction, so the fallback
            # recovers exactly the first snapshot's state.
            oracle = build_oracle("people", types, rows[:8], [rows[8:12]])
            assert_bit_identical(recovered.store, oracle)
        finally:
            recovered.journal.close()

    def test_corrupt_sole_snapshot_with_empty_wal_raises(self, tmp_path):
        rows, types = example_rows()
        journal, live, _ = run_journaled_workload(
            tmp_path / "people", rows[:8], [rows[8:12]], types
        )
        version = journal.snapshot(live, None)
        journal.close()
        snap = tmp_path / "people" / f"snapshot-{version:08d}.snap"
        raw = bytearray(snap.read_bytes())
        raw[-1] ^= 0x01
        snap.write_bytes(bytes(raw))
        with pytest.raises(RecoveryError):
            StoreJournal.recover(tmp_path / "people")
