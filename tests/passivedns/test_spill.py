"""Crash-safety tests for the on-disk spill store.

Three layers:

- unit tests of :class:`SpillStore` (commit protocol, recovery scan,
  quarantine semantics) and of the spill-backed
  :class:`PassiveDnsDatabase` mode (every aggregate byte-identical to
  the in-memory path);
- the deterministic **crash-at-every-write-boundary matrix**: a probe
  run enumerates every durability boundary of a workload that commits
  two generations *and compacts them* (so every ``compact()`` boundary
  — merged-segment write, superseding manifest, commit journal line,
  retirement unlinks and dirsyncs — is in the enumeration), then the
  workload is re-run once per (boundary, injector) pair — torn write,
  bit flip, lost fsync — and reopening the store must either recover a
  digest-consistent prior generation or quarantine the damage with a
  precise report, never serve silently wrong data or a hybrid of two
  generations;
- compaction, incremental-recovery (the manifest's stat facts),
  commits-free-nothing, read-only open, quarantine-reclamation, and
  concurrent-reader suites;
- hypothesis properties drawing random boundaries/injectors/seeds and
  random interleavings of ingest/commit/compact over the same
  invariant, and pipeline checkpoint/resume surviving an injected
  mid-ingest crash.
"""

import io
import json
import os
import tracemalloc
import zlib

import numpy as np
import pytest

from repro.dns.name import DomainName
from repro.errors import (
    ConfigError,
    CorruptArchiveError,
    InjectedCrashError,
    WorkloadError,
)
from repro.faults.injectors import (
    BitFlipInjector,
    FsyncLossInjector,
    InjectionLog,
    StorageFaultInjector,
    TornWriteInjector,
)
from repro.passivedns.database import PassiveDnsDatabase
from repro.passivedns.io import load_checkpoint, save_checkpoint
from repro.passivedns.pipeline import ResilientIngestPipeline
from repro.passivedns.spill import SPILL_FORMAT_VERSION, SpillStore
from repro.rand import derive_seed, make_rng
from repro.workloads.trace import NxdomainTraceGenerator, TraceConfig
from tests.passivedns.reference import ScalarDatabase

INJECTOR_CLASSES = (TornWriteInjector, BitFlipInjector, FsyncLossInjector)


def _injector(cls, at, seed=0):
    return cls(
        make_rng(derive_seed(seed, f"{cls.name}-{at}")), InjectionLog(), at=at
    )


def _fill(db, data_seed=7, rounds=2, batches=2, rows=200):
    """Deterministic batched rows; commits once per round when spilled.

    Returns {generation: fingerprint} for every committed generation.
    """
    recorded = {}
    rng = make_rng(derive_seed(data_seed, "spill-data"))
    for round_index in range(rounds):
        for batch in range(batches):
            domains = [
                DomainName(f"d{round_index}-{batch}-{i}.example.com")
                for i in range(25)
            ]
            ids = np.repeat(db.intern_many(domains), rows // 25)
            times = np.sort(
                rng.integers(1_400_000_000, 1_600_000_000, len(ids))
            )
            counts = rng.integers(1, 5, len(ids))
            db.add_batch(ids, times, counts)
        if db.spill is not None:
            generation = db.spill_commit({"round": round_index})
            recorded[generation] = db.fingerprint()
    return recorded


def _check_recovery(root, recorded, completed):
    """The matrix invariant: recovered-and-consistent, or quarantined.

    Reopening must succeed and serve a store whose mergeable row
    digest matches the digest its own manifest committed (so a
    compaction crash can never leave a hybrid of two generations) and
    — when the harness saw that generation commit — the fingerprint
    recorded at commit time; any silent rollback of a completed
    workload must come with a non-clean recovery report naming what
    was damaged.
    """
    db = PassiveDnsDatabase(spill_dir=root)
    report = db.spill.last_recovery
    generation = db.spill.generation
    assert generation == report.generation
    if generation > 0:
        expected = db.spill.meta.get("store_digest")
        assert expected is not None and db.fingerprint() == expected
        if generation in recorded:
            assert db.fingerprint() == recorded[generation]
    else:
        assert db.row_count() == 0
    if completed and generation < max(recorded, default=0):
        assert not report.clean()
        assert report.quarantined or report.rejected_generations
    return db, report


class TestSpillStoreBasics:
    def test_fresh_directory_opens_empty(self, tmp_path):
        store = SpillStore.open(tmp_path / "s")
        assert store.generation == 0
        assert store.segments() == []
        assert store.last_recovery.clean()

    def test_commit_and_reopen(self, tmp_path):
        store = SpillStore.open(tmp_path / "s")
        ids = np.arange(10, dtype=np.int64)
        store.append_segment(ids, ids * 7, ids + 1, digest=0)
        assert store.commit({"tag": "first"}) == 1
        again = SpillStore.open(tmp_path / "s")
        assert again.generation == 1
        assert again.meta["tag"] == "first"
        assert again.row_count() == 10
        got_ids, got_times, got_counts = again.mmap_segment(again.segments()[0])
        assert np.array_equal(got_ids, ids)
        assert np.array_equal(got_times, ids * 7)
        assert np.array_equal(got_counts, ids + 1)

    def test_indented_documents_still_open_and_verify(self, tmp_path):
        """Self-checksummed JSON is written compact, but the checksum
        covers the canonical payload encoding, so documents in the
        older indented layout still open, warm and paranoid."""
        root = tmp_path / "s"
        db = PassiveDnsDatabase(spill_dir=root)
        _fill(db, rounds=1)
        expected = db.fingerprint()
        for path in sorted(root.glob("manifest-*.json")):
            assert b"\n" not in path.read_bytes()
            document = json.loads(path.read_bytes())
            path.write_bytes(
                json.dumps(document, sort_keys=True, indent=1).encode("utf-8")
            )
        warm = PassiveDnsDatabase(spill_dir=root)
        assert warm.spill.last_recovery.clean()
        assert warm.spill.last_recovery.segments_crc_streamed == 0
        assert warm.fingerprint() == expected
        paranoid = PassiveDnsDatabase(spill_dir=root, spill_paranoid=True)
        assert paranoid.spill.last_recovery.clean()
        assert paranoid.spill.last_recovery.segments_crc_streamed > 0
        assert paranoid.fingerprint() == expected

    def test_uncommitted_segment_is_quarantined_on_reopen(self, tmp_path):
        store = SpillStore.open(tmp_path / "s")
        ids = np.arange(5, dtype=np.int64)
        store.append_segment(ids, ids, ids + 1, digest=0)
        store.commit()
        store.append_segment(ids, ids, ids + 2, digest=0)  # staged, never committed
        again = SpillStore.open(tmp_path / "s")
        assert again.generation == 1
        assert again.row_count() == 5
        kinds = {entry.kind for entry in again.last_recovery.quarantined}
        assert kinds == {"orphan-segment"}

    def test_damaged_segment_falls_back_a_generation(self, tmp_path):
        store = SpillStore.open(tmp_path / "s")
        ids = np.arange(6, dtype=np.int64)
        store.append_segment(ids, ids, ids + 1, digest=0)
        store.commit()
        info = store.append_segment(ids, ids * 3, ids + 1, digest=0)
        store.commit()
        victim = tmp_path / "s" / "segments" / info.name
        raw = bytearray(victim.read_bytes())
        raw[-1] ^= 0xFF
        victim.write_bytes(bytes(raw))
        again = SpillStore.open(tmp_path / "s")
        assert again.generation == 1
        assert again.last_recovery.rejected_generations == [2]
        entries = {
            entry.path: entry.kind for entry in again.last_recovery.quarantined
        }
        assert entries == {f"segments/{info.name}": "damaged-segment"}

    def test_torn_manifest_is_quarantined(self, tmp_path):
        store = SpillStore.open(tmp_path / "s")
        ids = np.arange(4, dtype=np.int64)
        store.append_segment(ids, ids, ids + 1, digest=0)
        store.commit()
        manifest = tmp_path / "s" / "manifest-0000001.json"
        manifest.write_bytes(manifest.read_bytes()[:-20])
        again = SpillStore.open(tmp_path / "s")
        assert again.generation == 0
        kinds = {entry.kind for entry in again.last_recovery.quarantined}
        assert "torn-manifest" in kinds

    def test_open_on_file_raises_typed_error(self, tmp_path):
        victim = tmp_path / "not-a-dir"
        victim.write_text("hello")
        with pytest.raises(CorruptArchiveError):
            SpillStore.open(victim)

    def test_empty_segment_rejected(self, tmp_path):
        store = SpillStore.open(tmp_path / "s")
        empty = np.empty(0, dtype=np.int64)
        with pytest.raises(ConfigError):
            store.append_segment(empty, empty, empty, digest=0)

    def test_sidecar_roundtrip_and_kind_validation(self, tmp_path):
        store = SpillStore.open(tmp_path / "s")
        with pytest.raises(ConfigError):
            store.write_sidecar("Bad-Kind", b"x")
        store.write_sidecar("domains", b"payload")
        ids = np.arange(3, dtype=np.int64)
        store.append_segment(ids, ids, ids + 1, digest=0)
        store.commit()
        again = SpillStore.open(tmp_path / "s")
        assert again.read_sidecar("domains") == b"payload"
        assert again.read_sidecar("missing") is None

    def test_segment_names_never_reused_after_quarantine(self, tmp_path):
        store = SpillStore.open(tmp_path / "s")
        ids = np.arange(3, dtype=np.int64)
        store.append_segment(ids, ids, ids + 1, digest=0)  # uncommitted -> quarantined
        again = SpillStore.open(tmp_path / "s")
        info = again.append_segment(ids, ids, ids + 1, digest=0)
        assert info.name == "seg-0000002.npy"


class TestSpillBackedDatabase:
    @pytest.fixture(scope="class")
    def trace(self):
        config = TraceConfig(total_domains=400, squat_count=16)
        return NxdomainTraceGenerator(seed=11, config=config).generate()

    def test_aggregates_byte_identical_to_in_memory(self, trace, tmp_path):
        spilled = trace.spilled(tmp_path / "spill")
        memory = trace.nx_db
        disk = spilled.nx_db
        assert disk.fingerprint() == memory.fingerprint()
        assert disk.tld_histogram() == memory.tld_histogram()
        assert disk.monthly_response_series() == memory.monthly_response_series()
        mem_decay = memory.lifespan_decay()
        disk_decay = disk.lifespan_decay()
        assert np.array_equal(mem_decay[0], disk_decay[0])
        assert np.array_equal(mem_decay[1], disk_decay[1])
        for domain in memory.all_domains()[:30]:
            profile = memory.profile(domain)
            assert np.array_equal(
                memory.daily_series_for(domain, profile.first_seen, 90),
                disk.daily_series_for(domain, profile.first_seen, 90),
            )

    def test_reopen_restores_and_verifies_fingerprint(self, trace, tmp_path):
        trace.spilled(tmp_path / "spill")
        reopened = PassiveDnsDatabase(spill_dir=tmp_path / "spill")
        assert reopened.fingerprint() == trace.nx_db.fingerprint()
        assert reopened.unique_domains() == trace.nx_db.unique_domains()

    def test_spilled_reuses_matching_directory(self, trace, tmp_path):
        first = trace.spilled(tmp_path / "spill")
        again = trace.spilled(tmp_path / "spill")
        assert again.nx_db.fingerprint() == first.nx_db.fingerprint()

    def test_spilled_rejects_foreign_directory(self, trace, tmp_path):
        foreign = PassiveDnsDatabase(spill_dir=tmp_path / "spill")
        foreign.add_rows(DomainName("other.example"), [0], [1])
        foreign.spill_commit()
        with pytest.raises(WorkloadError):
            trace.spilled(tmp_path / "spill")

    def test_spill_commit_requires_spill_mode(self):
        with pytest.raises(ConfigError):
            PassiveDnsDatabase().spill_commit()

    def test_copy_rows_into_preserves_fingerprint(self, trace):
        clone = PassiveDnsDatabase()
        trace.nx_db.copy_rows_into(clone)
        assert clone.fingerprint() == trace.nx_db.fingerprint()
        assert clone.tld_histogram() == trace.nx_db.tld_histogram()

    @pytest.mark.parametrize("kind", ["garbage", "npy", "no-table", "torn-zip"])
    def test_unloadable_domain_sidecar_is_a_typed_error(self, kind, tmp_path):
        """A sidecar whose CRC verifies but numpy cannot read as the table."""
        npy, npz = io.BytesIO(), io.BytesIO()
        np.save(npy, np.arange(4))
        np.savez(npz, other=np.arange(4))
        blob = {
            "garbage": b"not a domain table",
            "npy": npy.getvalue(),
            "no-table": npz.getvalue(),
            "torn-zip": npz.getvalue()[:-12],
        }[kind]
        store = SpillStore.open(tmp_path / "s")
        sidecar = store.write_sidecar("domains", blob)
        store.commit({})
        with pytest.raises(CorruptArchiveError) as caught:
            PassiveDnsDatabase(spill_dir=tmp_path / "s")
        assert caught.value.path.endswith(sidecar.name)
        assert "domain sidecar" in caught.value.detail

    def test_compressed_domain_sidecar_still_opens(self, tmp_path):
        """Stores written with a deflated sidecar open unchanged."""
        db = PassiveDnsDatabase(spill_dir=tmp_path / "s")
        _fill(db, rounds=1)
        store = SpillStore.open(tmp_path / "s")
        with np.load(io.BytesIO(store.read_sidecar("domains"))) as payload:
            table = {key: payload[key] for key in payload.files}
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **table)
        assert len(buffer.getvalue()) < store.sidecar_path("domains").stat().st_size
        store.write_sidecar("domains", buffer.getvalue())
        store.commit(dict(store.meta))
        reopened = PassiveDnsDatabase(spill_dir=tmp_path / "s")
        assert reopened.fingerprint() == db.fingerprint()
        assert reopened.all_domains() == db.all_domains()
        assert reopened.aggregate_snapshot()[3].tolist() == (
            db.aggregate_snapshot()[3].tolist()
        )

    def test_appends_after_reopen_extend_the_store(self, tmp_path):
        db = PassiveDnsDatabase(spill_dir=tmp_path / "s")
        _fill(db, rounds=1)
        reopened = PassiveDnsDatabase(spill_dir=tmp_path / "s")
        reopened.add_rows(DomainName("late.example.com"), [1_500_000_000], [1])
        reopened.spill_commit()
        final = PassiveDnsDatabase(spill_dir=tmp_path / "s")
        assert final.row_count() == db.row_count() + 1
        assert final.fingerprint() == reopened.fingerprint()


class _RecordingProbe(StorageFaultInjector):
    """A never-firing probe that records each boundary's op.

    It also records every boundary that frees a file: an ``unlink``,
    or a ``replace`` whose target already exists (the rename frees
    the old file's blocks just as an unlink would).
    """

    def __init__(self):
        super().__init__(make_rng(0), InjectionLog(), at=None)
        self.ops = []
        self.freed = []
        self.sized = []

    def decide(self, op, path, size=0):
        self.ops.append(op)
        self.sized.append((op, path, size))
        if op == "unlink" or (op == "replace" and os.path.exists(path)):
            self.freed.append((op, path))
        return super().decide(op, path, size)


#: Every durability boundary of the matrix workload (two commits, the
#: second compacting), as "op file" in order.
_PINNED_BOUNDARIES = [
    line.strip()
    for line in """
    append journal.log; fsync journal.log; write seg-0000001.npy.tmp;
    fsync seg-0000001.npy.tmp; replace seg-0000001.npy; dirsync segments;
    append journal.log; fsync journal.log; write domains-0000001.bin.tmp;
    fsync domains-0000001.bin.tmp; replace domains-0000001.bin;
    dirsync probe; append journal.log; fsync journal.log;
    write manifest-0000001.json.tmp; fsync manifest-0000001.json.tmp;
    replace manifest-0000001.json; dirsync probe; append journal.log;
    fsync journal.log; append journal.log; fsync journal.log;
    write seg-0000002.npy.tmp; fsync seg-0000002.npy.tmp;
    replace seg-0000002.npy; dirsync segments; append journal.log;
    fsync journal.log; write domains-0000002.bin.tmp;
    fsync domains-0000002.bin.tmp; replace domains-0000002.bin;
    dirsync probe; append journal.log; fsync journal.log;
    write manifest-0000002.json.tmp; fsync manifest-0000002.json.tmp;
    replace manifest-0000002.json; dirsync probe; append journal.log;
    fsync journal.log; append journal.log; fsync journal.log;
    write seg-0000003.npy.tmp; fsync seg-0000003.npy.tmp;
    replace seg-0000003.npy; dirsync segments; append journal.log;
    fsync journal.log; write manifest-0000003.json.tmp;
    fsync manifest-0000003.json.tmp; replace manifest-0000003.json;
    dirsync probe; append journal.log; fsync journal.log;
    unlink manifest-0000001.json; unlink manifest-0000002.json;
    dirsync probe; unlink seg-0000001.npy; unlink seg-0000002.npy;
    dirsync segments; unlink domains-0000001.bin; dirsync probe;
    append journal.log; fsync journal.log
    """.split(";")
]


def _count_boundaries(tmp_path):
    """Probe run: every durability boundary of the matrix workload.

    With ``spill_compact_threshold=2`` the second commit triggers a
    compaction, so the enumeration covers every ``compact()`` boundary
    — merged-segment write, superseding manifest, ``commit`` journal
    line, retirement ``unlink``/``dirsync`` — on top of the commit
    protocol.
    """
    probe = StorageFaultInjector(make_rng(0), InjectionLog(), at=None)
    recorded = _fill(
        PassiveDnsDatabase(
            spill_dir=tmp_path / "probe",
            spill_faults=probe,
            spill_compact_threshold=2,
        )
    )
    assert not probe.fired
    return probe.decisions, recorded


def _run_matrix_point(root, cls, at, seed=0):
    """One matrix cell: inject, reopen, assert the recovery invariant."""
    injector = _injector(cls, at, seed)
    recorded, completed = {}, False
    try:
        recorded = _fill(
            PassiveDnsDatabase(
                spill_dir=root,
                spill_faults=injector,
                spill_compact_threshold=2,
            ),
            data_seed=7,
        )
        completed = True
    except InjectedCrashError:
        pass  # the writer died at the pinned boundary
    except CorruptArchiveError:
        pass  # post-write verification caught in-flight corruption
    assert injector.at is None or injector.fired or completed
    return _check_recovery(root, recorded, completed)


class TestCrashAtEveryBoundary:
    """The deterministic torn-write/bit-flip/fsync-loss matrix."""

    def test_matrix(self, tmp_path):
        boundaries, clean_recorded = _count_boundaries(tmp_path)
        assert boundaries > 40  # commits + a full compaction cycle
        assert len(clean_recorded) == 2
        # The clean workload must actually have compacted: generation 3
        # is the superseding compaction commit, so the boundary range
        # provably spans every compact() durability point.
        assert max(clean_recorded) == 3
        quarantines = 0
        for cls in INJECTOR_CLASSES:
            for at in range(boundaries):
                root = tmp_path / f"{cls.name}-{at}"
                _, report = _run_matrix_point(root, cls, at)
                quarantines += len(report.quarantined)
        probe = _RecordingProbe()
        _fill(
            PassiveDnsDatabase(
                spill_dir=tmp_path / "unlink-probe",
                spill_faults=probe,
                spill_compact_threshold=2,
            )
        )
        # Retirement must be part of the enumerated matrix, and the
        # matrix must actually exercise the quarantine machinery, not
        # pass vacuously because nothing ever got damaged.
        assert probe.ops.count("unlink") >= 2  # manifests + segments
        assert quarantines > 0

    def test_boundary_counts_are_deterministic(self, tmp_path):
        first, _ = _count_boundaries(tmp_path / "a")
        second, _ = _count_boundaries(tmp_path / "b")
        assert first == second

    def test_boundary_sequence_is_pinned(self, tmp_path):
        """Streamed segment writes keep every boundary where it was.

        Segments are written from a list of buffers; under an injector
        they are joined first, so each write boundary still sees the
        whole payload.  The matrix workload's (op, file) sequence and
        its segment payload sizes are pinned.
        """
        probe = _RecordingProbe()
        _fill(
            PassiveDnsDatabase(
                spill_dir=tmp_path / "probe",
                spill_faults=probe,
                spill_compact_threshold=2,
            )
        )
        assert [
            f"{op} {os.path.basename(path)}" for op, path, _ in probe.sized
        ] == _PINNED_BOUNDARIES
        assert {
            os.path.basename(path): size
            for op, path, size in probe.sized
            if op == "write" and "seg-" in path
        } == {
            "seg-0000001.npy.tmp": 9728,
            "seg-0000002.npy.tmp": 9728,
            "seg-0000003.npy.tmp": 19328,
        }


class TestOneMapPerSegment:
    """A store maps each segment once; compaction streams its inputs
    through those maps instead of mapping every input again."""

    def test_compaction_reuses_the_store_maps(self, tmp_path, monkeypatch):
        store = TestStreamedCompaction._store(tmp_path / "s", segments=3, rows=500)
        held = [store.mmap_segment(info) for info in store.segments()]
        again = [store.mmap_segment(info) for info in store.segments()]
        assert all(a is b for a, b in zip(held, again))
        loads = []
        load = np.load

        def counting(*args, **kwargs):
            loads.append(args[0])
            return load(*args, **kwargs)

        monkeypatch.setattr(np, "load", counting)
        assert store.compact() is not None
        assert loads == []
        (merged,) = store.segments()
        part = store.mmap_segment(merged)
        assert store.mmap_segment(merged) is part
        assert len(loads) == 1
        assert np.array_equal(part[0], np.concatenate([ids for ids, _, _ in held]))


def _three_generation_store(root):
    """A store with three committed single-segment generations."""
    store = SpillStore.open(root)
    for round_index in range(3):
        ids = np.arange(8, dtype=np.int64) + round_index * 100
        store.append_segment(ids, ids * 3, ids % 5 + 1, digest=0)
        store.commit({"round": round_index})
    return store


class TestCommitsFreeNothing:
    """Structural gate: only compaction frees files.

    Freeing an fsynced file is the expensive step on a filesystem that
    discards blocks synchronously, so a non-compacting commit and a
    clean reopen must free none, and a compaction must free exactly
    the files it retires.
    """

    @staticmethod
    def _files(root):
        return {
            path.relative_to(root).as_posix()
            for path in root.rglob("*")
            if path.is_file()
        }

    def test_commit_and_clean_reopen_free_no_file(self, tmp_path):
        root = tmp_path / "s"
        probe = _RecordingProbe()
        _fill(PassiveDnsDatabase(spill_dir=root, spill_faults=probe), rounds=3)
        assert probe.ops.count("replace") >= 3  # the gate is not vacuous
        assert probe.freed == []
        reopen = _RecordingProbe()
        reopened = PassiveDnsDatabase(spill_dir=root, spill_faults=reopen)
        assert reopened.spill.last_recovery.clean()
        assert reopen.ops == []  # a clean writable open writes nothing
        _fill(reopened, data_seed=9, rounds=1)
        assert "replace" in reopen.ops
        assert reopen.freed == []

    def test_compaction_unlinks_exactly_the_retired_files(self, tmp_path):
        root = tmp_path / "s"
        probe = _RecordingProbe()
        db = PassiveDnsDatabase(spill_dir=root, spill_faults=probe)
        _fill(db, rounds=3)
        before = self._files(root)
        assert db.spill_compact() is not None
        after = self._files(root)
        assert len([n for n in after if n.startswith("manifest-")]) == 1
        assert len([n for n in after if n.startswith("segments/")]) == 1
        assert len([n for n in after if n.endswith(".bin")]) == 1
        retired = {
            name
            for name in before
            if name.startswith(("manifest-", "segments/"))
            or (name.endswith(".bin") and name not in after)
        }
        assert retired == before - after
        assert all(op == "unlink" for op, _ in probe.freed)
        freed = [
            os.path.relpath(path, root).replace(os.sep, "/")
            for _, path in probe.freed
        ]
        assert sorted(freed) == sorted(retired)


class TestCompaction:
    def test_compact_merges_and_supersedes(self, tmp_path):
        store = _three_generation_store(tmp_path / "s")
        rows_before = store.row_count()
        old_names = [info.name for info in store.segments()]
        generation = store.compact()
        assert generation == 4
        assert len(store.segments()) == 1
        assert store.row_count() == rows_before
        assert store.meta["compacted"]["inputs"] == old_names
        # Superseded files are gone: one manifest, one segment remain.
        manifests = sorted(
            p.name for p in (tmp_path / "s").glob("manifest-*.json")
        )
        assert manifests == ["manifest-0000004.json"]
        segments = sorted(
            p.name for p in (tmp_path / "s" / "segments").glob("seg-*.npy")
        )
        assert segments == [store.segments()[0].name]

    def test_compacted_store_reopens_clean_with_same_rows(self, tmp_path):
        store = _three_generation_store(tmp_path / "s")
        expected = [
            np.concatenate(parts)
            for parts in zip(
                *(store.mmap_segment(info) for info in store.segments())
            )
        ]
        store.compact()
        again = SpillStore.open(tmp_path / "s")
        assert again.last_recovery.clean()
        assert again.generation == 4
        got = again.mmap_segment(again.segments()[0])
        for want, have in zip(expected, got):
            assert np.array_equal(want, have)

    def test_compact_below_min_segments_is_a_noop(self, tmp_path):
        store = SpillStore.open(tmp_path / "s")
        ids = np.arange(4, dtype=np.int64)
        store.append_segment(ids, ids, ids + 1, digest=0)
        store.commit()
        assert store.compact() is None
        assert store.generation == 1

    def test_compact_rejects_staged_segments(self, tmp_path):
        store = _three_generation_store(tmp_path / "s")
        ids = np.arange(4, dtype=np.int64)
        store.append_segment(ids, ids, ids + 1, digest=0)
        with pytest.raises(ConfigError):
            store.compact()

    def test_compact_rejects_min_segments_below_two(self, tmp_path):
        store = _three_generation_store(tmp_path / "s")
        with pytest.raises(ConfigError):
            store.compact(min_segments=1)

    def test_merged_digest_is_sum_of_inputs(self, tmp_path):
        store = SpillStore.open(tmp_path / "s")
        ids = np.arange(5, dtype=np.int64)
        store.append_segment(ids, ids, ids + 1, digest=17)
        store.commit()
        store.append_segment(ids, ids * 2, ids + 1, digest=(1 << 128) - 9)
        store.commit()
        store.compact()
        merged = store.segments()[0]
        assert merged.digest == (17 + (1 << 128) - 9) & ((1 << 128) - 1)

    def test_segment_without_digest_is_refused(self, tmp_path):
        store = SpillStore.open(tmp_path / "s")
        ids = np.arange(5, dtype=np.int64)
        for digest in (None, -1, 1 << 128):
            with pytest.raises(ConfigError):
                store.append_segment(ids, ids, ids + 1, digest=digest)
        assert store.segments() == []
        assert list((tmp_path / "s" / "segments").iterdir()) == []

    def test_database_compaction_preserves_everything(self, tmp_path):
        db = PassiveDnsDatabase(spill_dir=tmp_path / "s")
        _fill(db, rounds=3)
        fingerprint = db.fingerprint()
        histogram = db.tld_histogram()
        generation = db.spill_compact()
        assert generation is not None
        assert db.fingerprint() == fingerprint
        assert db.tld_histogram() == histogram
        reopened = PassiveDnsDatabase(spill_dir=tmp_path / "s")
        assert reopened.spill.last_recovery.clean()
        assert reopened.fingerprint() == fingerprint

    def test_database_compact_requires_committed_tail(self, tmp_path):
        db = PassiveDnsDatabase(spill_dir=tmp_path / "s")
        _fill(db, rounds=2)
        db.add_rows(DomainName("tail.example.com"), [1_500_000_000], [1])
        with pytest.raises(ConfigError):
            db.spill_compact()

    def test_auto_compaction_at_threshold(self, tmp_path):
        db = PassiveDnsDatabase(
            spill_dir=tmp_path / "s", spill_compact_threshold=2
        )
        recorded = _fill(db, rounds=2)
        # Commit 1 -> generation 1; commit 2 -> generation 2, then the
        # threshold trips and compaction supersedes it as generation 3.
        assert sorted(recorded) == [1, 3]
        assert len(db.spill.segments()) == 1
        assert db.spill.generation == 3
        reopened = PassiveDnsDatabase(spill_dir=tmp_path / "s")
        assert reopened.fingerprint() == recorded[3]

    def test_compact_threshold_validation(self, tmp_path):
        with pytest.raises(ConfigError):
            PassiveDnsDatabase(
                spill_dir=tmp_path / "s", spill_compact_threshold=1
            )
        with pytest.raises(ConfigError):
            PassiveDnsDatabase(
                spill_dir=tmp_path / "s2", spill_compact_threshold=-3
            )


class TestStreamedCompaction:
    """Compaction streams its inputs into the merged segment file."""

    @staticmethod
    def _store(root, segments, rows):
        store = SpillStore.open(root)
        rng = make_rng(derive_seed(5, "streamed-compaction"))
        for _ in range(segments):
            ids = rng.integers(0, 5000, rows)
            times = rng.integers(1_400_000_000, 1_600_000_000, rows)
            store.append_segment(ids, times, rng.integers(1, 9, rows), digest=0)
            store.commit()
        return store

    def test_merged_segment_is_byte_identical_to_np_save(self, tmp_path):
        store = self._store(tmp_path / "s", segments=3, rows=1000)
        stacked = np.stack(
            [
                np.concatenate(column)
                for column in zip(
                    *(store.mmap_segment(info) for info in store.segments())
                )
            ]
        )
        expected = io.BytesIO()
        np.save(expected, stacked)
        store.compact()
        merged = tmp_path / "s" / "segments" / store.segments()[0].name
        assert merged.read_bytes() == expected.getvalue()
        assert store.segments()[0].crc32 == zlib.crc32(expected.getvalue())

    def test_compaction_holds_less_than_one_copy_of_the_rows(self, tmp_path):
        rows = 4 * 60_000
        store = self._store(tmp_path / "s", segments=4, rows=rows // 4)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            assert store.compact() is not None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert store.row_count() == rows
        assert peak < rows * 24, f"compaction peaked at {peak} bytes"


class TestIncrementalRecovery:
    def test_warm_reopen_streams_zero_segments(self, tmp_path):
        db = PassiveDnsDatabase(spill_dir=tmp_path / "s")
        _fill(db, rounds=2)
        reopened = PassiveDnsDatabase(spill_dir=tmp_path / "s")
        report = reopened.spill.last_recovery
        assert report.clean()
        # The acceptance gate: an unchanged committed store reopens
        # with ZERO segment CRC streams — every verification is a hit
        # on the stat facts its manifest recorded.
        assert report.segments_crc_streamed == 0
        assert report.cache_hits >= len(reopened.spill.segments())
        assert reopened.fingerprint() == db.fingerprint()

    def test_paranoid_reopen_streams_everything(self, tmp_path):
        db = PassiveDnsDatabase(spill_dir=tmp_path / "s")
        _fill(db, rounds=2)
        reopened = PassiveDnsDatabase(
            spill_dir=tmp_path / "s", spill_paranoid=True
        )
        report = reopened.spill.last_recovery
        assert report.clean()
        assert report.cache_hits == 0
        assert report.segments_crc_streamed == len(reopened.spill.segments())
        assert reopened.fingerprint() == db.fingerprint()

    def test_touched_file_is_streamed_then_rerecorded(self, tmp_path):
        import os as _os

        root = tmp_path / "s"
        db = PassiveDnsDatabase(spill_dir=root)
        _fill(db, rounds=2)
        victim = sorted((root / "segments").glob("seg-*.npy"))[0]
        stat = victim.stat()
        _os.utime(victim, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1))
        reopened = PassiveDnsDatabase(spill_dir=root)
        report = reopened.spill.last_recovery
        assert report.clean()
        # Only the touched file pays the byte stream; the open records
        # nothing on disk, so a second open streams it again...
        assert report.segments_crc_streamed == 1
        assert reopened.fingerprint() == db.fingerprint()
        again = PassiveDnsDatabase(spill_dir=root)
        assert again.spill.last_recovery.segments_crc_streamed == 1
        # ...until the next commit records its current stat.
        again.add_rows(DomainName("late.example.com"), [1_500_000_000], [1])
        again.spill_commit()
        warm = PassiveDnsDatabase(spill_dir=root)
        assert warm.spill.last_recovery.clean()
        assert warm.spill.last_recovery.segments_crc_streamed == 0
        assert warm.fingerprint() == again.fingerprint()

    def test_forged_facts_are_caught_by_the_manifest(self, tmp_path):
        """Facts edited without re-signing fail the self-checksum.

        The stat facts are only ever trusted under the manifest's own
        checksum: forging them to cover a tampered segment tears the
        manifest, and recovery falls back a generation instead of
        serving the tampered bytes.
        """
        import os as _os

        root = tmp_path / "s"
        recorded = _fill(PassiveDnsDatabase(spill_dir=root), rounds=2)
        victim = sorted((root / "segments").glob("seg-*.npy"))[-1]
        raw = bytearray(victim.read_bytes())
        raw[-9] ^= 0x40  # same size, different bytes
        victim.write_bytes(bytes(raw))
        manifest = sorted(root.glob("manifest-*.json"))[-1]
        document = json.loads(manifest.read_bytes())
        for segment in document["payload"]["segments"]:
            if segment[0] == victim.name:
                segment[5] += 1  # [name, rows, crc, digest, size, mtime_ns]
                forged = segment[5]
        manifest.write_text(json.dumps(document, sort_keys=True))
        _os.utime(victim, ns=(forged, forged))
        reopened = PassiveDnsDatabase(spill_dir=root)
        report = reopened.spill.last_recovery
        kinds = {entry.kind for entry in report.quarantined}
        assert "torn-manifest" in kinds and "orphan-segment" in kinds
        assert reopened.spill.generation == min(recorded)
        assert reopened.fingerprint() == recorded[min(recorded)]

    def test_tampered_segment_is_caught(self, tmp_path):
        db = PassiveDnsDatabase(spill_dir=tmp_path / "s")
        recorded = _fill(db, rounds=2)
        victim = sorted((tmp_path / "s" / "segments").glob("seg-*.npy"))[-1]
        raw = bytearray(victim.read_bytes())
        raw[-9] ^= 0x40
        victim.write_bytes(bytes(raw))
        reopened = PassiveDnsDatabase(spill_dir=tmp_path / "s")
        report = reopened.spill.last_recovery
        assert not report.clean()
        assert report.rejected_generations
        assert any(
            entry.kind == "damaged-segment" for entry in report.quarantined
        )
        assert reopened.fingerprint() == recorded[min(recorded)]

    def test_paranoid_catches_stat_forging_tamper(self, tmp_path):
        """In-place tampering that forges mtime+size beats the stat
        facts' trust model by construction — paranoid mode exists for
        it."""
        import os as _os

        db = PassiveDnsDatabase(spill_dir=tmp_path / "s")
        _fill(db, rounds=2)
        victim = sorted((tmp_path / "s" / "segments").glob("seg-*.npy"))[-1]
        stat = victim.stat()
        raw = bytearray(victim.read_bytes())
        raw[-9] ^= 0x40  # same size, different bytes
        victim.write_bytes(bytes(raw))
        _os.utime(victim, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        cached = PassiveDnsDatabase(spill_dir=tmp_path / "s")
        # The stat facts cannot see this (documented limitation)...
        assert cached.spill.last_recovery.segments_crc_streamed == 0
        # ...but the full scan still does.
        paranoid = PassiveDnsDatabase(
            spill_dir=tmp_path / "s", spill_paranoid=True
        )
        assert not paranoid.spill.last_recovery.clean()


class TestReadOnlyOpen:
    def _listing(self, root):
        return sorted(
            (
                path.relative_to(root).as_posix(),
                path.stat().st_size,
                path.stat().st_mtime_ns,
            )
            for path in root.rglob("*")
            if path.is_file()
        )

    def test_read_only_creates_and_mutates_nothing(self, tmp_path):
        db = PassiveDnsDatabase(spill_dir=tmp_path / "s")
        _fill(db, rounds=2)
        # Strip everything optional so creation would be observable.
        (tmp_path / "s" / "quarantine").rmdir()
        before = self._listing(tmp_path / "s")
        reader = PassiveDnsDatabase(
            spill_dir=tmp_path / "s", spill_read_only=True
        )
        assert reader.fingerprint() == db.fingerprint()
        assert not (tmp_path / "s" / "quarantine").exists()
        assert self._listing(tmp_path / "s") == before

    def test_read_only_reports_damage_without_moving_it(self, tmp_path):
        store = SpillStore.open(tmp_path / "s")
        ids = np.arange(5, dtype=np.int64)
        store.append_segment(ids, ids, ids + 1, digest=0)
        store.commit()
        store.append_segment(ids, ids, ids + 2, digest=0)  # staged, uncommitted
        before = self._listing(tmp_path / "s")
        reader = SpillStore.open(tmp_path / "s", read_only=True)
        kinds = {e.kind for e in reader.last_recovery.quarantined}
        assert kinds == {"orphan-segment"}
        assert self._listing(tmp_path / "s") == before

    def test_read_only_rejects_writes(self, tmp_path):
        store = _three_generation_store(tmp_path / "s")
        reader = SpillStore.open(tmp_path / "s", read_only=True)
        ids = np.arange(3, dtype=np.int64)
        with pytest.raises(ConfigError):
            reader.append_segment(ids, ids, ids + 1, digest=0)
        with pytest.raises(ConfigError):
            reader.write_sidecar("domains", b"x")
        with pytest.raises(ConfigError):
            reader.commit()
        with pytest.raises(ConfigError):
            reader.compact()
        with pytest.raises(ConfigError):
            reader.purge_quarantine()
        assert store.generation == reader.generation

    def test_read_only_database_rejects_spill_commit(self, tmp_path):
        db = PassiveDnsDatabase(spill_dir=tmp_path / "s")
        _fill(db, rounds=1)
        reader = PassiveDnsDatabase(
            spill_dir=tmp_path / "s", spill_read_only=True
        )
        with pytest.raises(ConfigError):
            reader.spill_commit()
        with pytest.raises(ConfigError):
            reader.spill_compact()

    def test_read_only_requires_existing_directory(self, tmp_path):
        with pytest.raises(ConfigError):
            SpillStore.open(tmp_path / "absent", read_only=True)

    def test_read_only_rejects_fault_injection(self, tmp_path):
        _three_generation_store(tmp_path / "s")
        with pytest.raises(ConfigError):
            SpillStore.open(
                tmp_path / "s",
                faults=_injector(TornWriteInjector, 0),
                read_only=True,
            )


class TestFormatVersion:
    """A store of another spill format is refused, never quarantined."""

    @staticmethod
    def _listing(root):
        return sorted(
            (path.relative_to(root).as_posix(), path.read_bytes())
            for path in root.rglob("*")
            if path.is_file()
        )

    @staticmethod
    def _resign_as(root, version):
        """Rewrite every manifest as ``version`` with a valid checksum."""
        for manifest in root.glob("manifest-*.json"):
            document = json.loads(manifest.read_text())
            document["payload"]["format"] = version
            encoded = json.dumps(document["payload"], sort_keys=True)
            document["checksum"] = zlib.crc32(encoded.encode()) & 0xFFFFFFFF
            manifest.write_text(json.dumps(document, sort_keys=True, indent=1))

    @pytest.mark.parametrize("read_only", [False, True])
    def test_older_format_is_refused_and_nothing_moves(
        self, tmp_path, read_only
    ):
        root = tmp_path / "s"
        _fill(PassiveDnsDatabase(spill_dir=root), rounds=2)
        self._resign_as(root, SPILL_FORMAT_VERSION - 1)
        # A torn manifest scanned first must not be moved either.
        (root / "manifest-0000000.json").write_text("{ torn")
        before = self._listing(root)
        with pytest.raises(ConfigError, match="spill format"):
            SpillStore.open(root, read_only=read_only)
        with pytest.raises(ConfigError, match="spill format"):
            PassiveDnsDatabase(spill_dir=root, spill_read_only=read_only)
        assert self._listing(root) == before


class TestQuarantineReclamation:
    def _store_with_orphans(self, root, orphans=2):
        store = SpillStore.open(root)
        ids = np.arange(6, dtype=np.int64)
        store.append_segment(ids, ids, ids + 1, digest=0)
        store.commit()
        for _ in range(orphans):
            store.append_segment(ids, ids, ids + 2, digest=0)  # never committed
        return SpillStore.open(root)  # quarantines the orphans

    def test_entries_are_typed_and_indexed(self, tmp_path):
        store = self._store_with_orphans(tmp_path / "s")
        entries = store.quarantine_entries()
        assert len(entries) == 2
        assert {e.kind for e in entries} == {"orphan-segment"}
        assert all(e.generation == store.generation for e in entries)
        # The labels survive a further reopen (they live in the index).
        again = SpillStore.open(tmp_path / "s")
        assert {e.kind for e in again.quarantine_entries()} == {
            "orphan-segment"
        }

    def test_purge_everything(self, tmp_path):
        store = self._store_with_orphans(tmp_path / "s")
        removed, freed = store.purge_quarantine()
        assert removed == 2 and freed > 0
        assert store.quarantine_entries() == []
        assert SpillStore.open(tmp_path / "s").last_recovery.clean()

    def test_purge_is_typed(self, tmp_path):
        store = self._store_with_orphans(tmp_path / "s")
        removed, _ = store.purge_quarantine(kinds={"damaged-segment"})
        assert removed == 0
        removed, _ = store.purge_quarantine(kinds={"orphan-segment"})
        assert removed == 2

    def test_purge_retention_by_generation(self, tmp_path):
        store = self._store_with_orphans(tmp_path / "s")
        generation = store.quarantine_entries()[0].generation
        kept, _ = store.purge_quarantine(before_generation=generation)
        assert kept == 0  # quarantined AT that generation -> retained
        removed, _ = store.purge_quarantine(
            before_generation=generation + 1
        )
        assert removed == 2

    def test_damaged_index_lists_unknown_but_keeps_evidence(self, tmp_path):
        store = self._store_with_orphans(tmp_path / "s")
        index = tmp_path / "s" / "quarantine" / "index.json"
        index.write_bytes(b"{not json")
        entries = store.quarantine_entries()
        assert len(entries) == 2
        assert {e.kind for e in entries} == {"unknown"}
        removed, _ = store.purge_quarantine()
        assert removed == 2

    def test_read_only_lists_but_cannot_purge(self, tmp_path):
        self._store_with_orphans(tmp_path / "s")
        reader = SpillStore.open(tmp_path / "s", read_only=True)
        assert len(reader.quarantine_entries()) == 2
        with pytest.raises(ConfigError):
            reader.purge_quarantine()


class TestConcurrentReaders:
    """A read-only open mid-commit / mid-compact of another handle.

    The newest valid manifest is authoritative and read-only opens
    move nothing, so a
    reader racing a writer — modelled deterministically by killing the
    writer at every boundary of the operation and opening the
    directory it left behind — must always observe a complete,
    digest-consistent committed generation and leave the writer's
    staged files exactly where they were.
    """

    def _listing(self, root):
        return sorted(
            (path.relative_to(root).as_posix(), path.stat().st_size)
            for path in root.rglob("*")
            if path.is_file()
        )

    def _reader_invariant(self, root, recorded):
        before = self._listing(root)
        reader = PassiveDnsDatabase(
            spill_dir=root, spill_read_only=True
        )
        store = reader.spill
        assert store.read_only
        if store.generation > 0:
            expected = store.meta.get("store_digest")
            assert expected is not None and reader.fingerprint() == expected
            if store.generation in recorded:
                assert reader.fingerprint() == recorded[store.generation]
        assert self._listing(root) == before

    def test_reader_mid_commit_and_mid_compact_at_every_boundary(
        self, tmp_path
    ):
        boundaries, _ = _count_boundaries(tmp_path)
        for at in range(0, boundaries, 3):
            for cls in (TornWriteInjector, FsyncLossInjector):
                root = tmp_path / f"reader-{cls.name}-{at}"
                injector = _injector(cls, at)
                recorded = {}
                try:
                    recorded = _fill(
                        PassiveDnsDatabase(
                            spill_dir=root,
                            spill_faults=injector,
                            spill_compact_threshold=2,
                        )
                    )
                except (InjectedCrashError, CorruptArchiveError):
                    pass
                self._reader_invariant(root, recorded)


try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is a dev dependency
    HAVE_HYPOTHESIS = False


if HAVE_HYPOTHESIS:

    class TestCrashRecoveryProperty:
        """Random (injector, boundary, seed) draws over the invariant."""

        @settings(deadline=None, max_examples=25)
        @given(
            cls=st.sampled_from(INJECTOR_CLASSES),
            at=st.integers(min_value=0, max_value=220),
            seed=st.integers(min_value=0, max_value=2**31 - 1),
        )
        def test_recovery_never_serves_wrong_data(
            self, tmp_path_factory, cls, at, seed
        ):
            root = tmp_path_factory.mktemp("spill-prop")
            _run_matrix_point(root / "store", cls, at, seed=seed)

        @settings(deadline=None, max_examples=20)
        @given(
            ops=st.lists(
                st.sampled_from(["ingest", "commit", "compact"]),
                min_size=1,
                max_size=8,
            ),
            cls=st.sampled_from(INJECTOR_CLASSES),
            at=st.integers(min_value=0, max_value=400),
            seed=st.integers(min_value=0, max_value=2**31 - 1),
        )
        def test_interleaved_ingest_commit_compact(
            self, tmp_path_factory, ops, cls, at, seed
        ):
            """Random ingest/commit/compact programs, crashed anywhere.

            Whatever prefix of the program the injected crash allows,
            reopening must serve a committed generation whose digest
            matches its manifest — never a hybrid, never silent loss.
            """
            root = tmp_path_factory.mktemp("spill-interleave") / "store"
            injector = _injector(cls, at, seed)
            rng = make_rng(derive_seed(seed, "interleave-data"))
            recorded, completed, dirty = {}, False, False
            try:
                db = PassiveDnsDatabase(
                    spill_dir=root, spill_faults=injector
                )
                for step, op in enumerate(ops):
                    if op == "ingest":
                        domains = [
                            DomainName(f"i{step}-{i}.example.com")
                            for i in range(10)
                        ]
                        ids = np.repeat(db.intern_many(domains), 4)
                        times = np.sort(
                            rng.integers(1_400_000_000, 1_600_000_000, len(ids))
                        )
                        counts = rng.integers(1, 5, len(ids))
                        db.add_batch(ids, times, counts)
                        dirty = True
                        continue
                    if op == "compact" and dirty:
                        generation = db.spill_commit({"step": step})
                        recorded[generation] = db.fingerprint()
                        dirty = False
                    if op == "commit" or dirty:
                        generation = db.spill_commit({"step": step})
                        recorded[generation] = db.fingerprint()
                        dirty = False
                    if op == "compact":
                        generation = db.spill_compact()
                        if generation is not None:
                            recorded[generation] = db.fingerprint()
                completed = True
            except InjectedCrashError:
                pass
            except CorruptArchiveError:
                pass
            assert injector.at is None or injector.fired or completed
            _check_recovery(root, recorded, completed)


class TestPipelineCrashResume:
    def _observations(self):
        db = PassiveDnsDatabase()
        _fill(db, data_seed=3, rounds=1, batches=1, rows=150)
        return list(db.iter_observations())

    def _clean_fingerprint(self, observations):
        db = ScalarDatabase()
        for observation in observations:
            db.ingest(observation)
        return db.fingerprint()

    def test_checkpoint_resume_survives_injected_crash(self, tmp_path):
        observations = self._observations()
        expected = self._clean_fingerprint(observations)
        for at in (3, 9, 15):
            root = tmp_path / f"crash-{at}"
            injector = _injector(TornWriteInjector, at)
            pipeline = ResilientIngestPipeline(
                spill_dir=root, checkpoint_every=40, spill_faults=injector
            )
            try:
                pipeline.ingest_many(observations)
                pipeline.finish()
            except InjectedCrashError:
                pass
            resumed = ResilientIngestPipeline(
                spill_dir=root, checkpoint_every=40
            )
            cursor = resumed.resume()
            assert 0 <= cursor <= len(observations)
            resumed.ingest_many(observations[cursor:])
            resumed.finish()
            assert resumed.database.fingerprint() == expected

    def test_spill_checkpoint_roundtrip_without_faults(self, tmp_path):
        db = PassiveDnsDatabase(spill_dir=tmp_path / "s")
        _fill(db, rounds=1)
        save_checkpoint(db, cursor=123, extra={"offered": 123})
        reopened = PassiveDnsDatabase(spill_dir=tmp_path / "s")
        state = load_checkpoint(reopened)
        assert state is not None
        assert state.cursor == 123
        assert state.extra == {"offered": 123}
        assert reopened.fingerprint() == db.fingerprint()

    def test_resume_from_spill_layout_without_current(self, tmp_path):
        """The manifests alone carry a checkpoint.

        There is no pointer file, and with the journal gone too the
        newest manifest still recovers the store and its checkpoint.
        """
        observations = self._observations()
        expected = self._clean_fingerprint(observations)
        root = tmp_path / "s"
        pipeline = ResilientIngestPipeline(spill_dir=root, checkpoint_every=40)
        pipeline.ingest_many(observations[:100])
        pipeline.checkpoint()
        assert not (root / "CURRENT").exists()
        (root / "journal.log").unlink()
        resumed = ResilientIngestPipeline(spill_dir=root, checkpoint_every=40)
        cursor = resumed.resume()
        assert cursor == 100
        resumed.ingest_many(observations[cursor:])
        resumed.finish()
        assert resumed.database.fingerprint() == expected
