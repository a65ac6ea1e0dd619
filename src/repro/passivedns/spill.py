"""Crash-safe on-disk chunk spill: the durable segment store.

The paper's 8-year, 146 B-record Farsight store outlives any single
process; this module gives the columnar substrate the same property.
A :class:`SpillStore` owns a directory holding immutable row segments
(`.npy`, memory-mapped on read) described by a journaled, checksummed,
monotonically versioned JSON manifest:

```
<dir>/
  manifest-0000003.json    one per committed generation (self-checksummed)
  journal.log              append-only intent records (JSONL, fsync'd)
  segments/seg-0000001.npy immutable (3, n) int64 row triples
  domains-0000002.bin      sidecar blobs (e.g. the interned domain table)
  quarantine/              damaged/orphaned files moved aside on open
  quarantine/index.json    typed retention index for quarantined files
```

Every manifest entry for a segment or sidecar carries the file's
CRC32 *and* its verified-at facts — ``size`` and ``mtime_ns``, taken
by a stat right after the file's durable write — all under the
manifest's self-checksum.  The newest valid manifest is the committed
generation; there is no pointer file and no separate cache.

Commit protocol (every arrow is a separate durability boundary):

1. append a ``segment-intent`` journal line → write the segment to a
   same-directory temp file → fsync → ``os.replace`` onto its fresh
   name → fsync dir → CRC read-back → stat;
2. append a ``commit-intent`` line → write ``manifest-<gen>.json``
   (tmp+fsync+rename onto a fresh name) → append a ``commit`` line.

Every name a commit writes is new, so a non-compacting commit frees
no file: no rename lands on an existing path and nothing is unlinked.
On filesystems that discard freed blocks synchronously, freeing a
file that was fsynced is the most expensive thing a commit could do.

:meth:`SpillStore.compact` is the log-structured half: it merges every
committed segment into one, commits the merged manifest through the
same journaled discipline, read-back-verifies it, and only *then*
retires the superseded files (``unlink`` boundaries, manifests first).
Compaction is the only operation that frees files, and it frees
exactly the retired ones.  The supersession invariant: a crash at any
boundary recovers either the old generation or the new one, never a
hybrid.

:meth:`SpillStore.open` is the recovery scan: it verifies every
manifest's self-checksum and every referenced segment and sidecar,
quarantines torn manifests, damaged segments, orphaned temp files and
uncommitted segments into ``quarantine/`` with a typed
:class:`RecoveryReport`, and resumes from the newest fully consistent
generation.  It never returns silently wrong data: what it serves
passed every checksum, and everything else is named in the report.
Reopens are incremental: a file whose stat still matches the facts
recorded in the manifest under verification skips the byte stream;
anything else is CRC-streamed, and ``paranoid=True`` streams
everything.  A clean writable open writes nothing; files it had to
stream are re-recorded by the next commit.  ``read_only=True`` opens
a store for serving: nothing is created, moved, or written — would-be
quarantine actions are only *reported* — so a reader can safely open
a directory another process is writing.

All durable IO flows through :class:`_DurableIo`, whose boundaries an
optional storage fault injector (``repro.faults.injectors``:
``TornWriteInjector`` / ``BitFlipInjector`` / ``FsyncLossInjector``)
can corrupt or kill — the deterministic crash-at-every-write-boundary
harness in ``tests/passivedns/test_spill.py`` drives exactly that.
"""

from __future__ import annotations

import io
import json
import os
import re
import threading
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigError, CorruptArchiveError

SPILL_FORMAT_VERSION = 3
QUARANTINE_INDEX_NAME = "index.json"

#: Modulus of the mergeable per-segment row digest (see
#: ``PassiveDnsDatabase.fingerprint``): 128-bit row values summed mod
#: 2**128, so the digest of a merged segment is the sum of its inputs'.
DIGEST_MASK = (1 << 128) - 1

PathLike = Union[str, "os.PathLike[str]"]

_MANIFEST_RE = re.compile(r"^manifest-(\d{7})\.json$")
_SEGMENT_RE = re.compile(r"^seg-(\d{7})\.npy$")
_SIDECAR_RE = re.compile(r"^(?:[a-z]+)-(\d{7})\.bin$")


# ---------------------------------------------------------------------------
# atomic file primitives (shared with the JSON/JSONL persistence writers)
# ---------------------------------------------------------------------------


def fsync_directory(directory: PathLike) -> None:
    """Flush a directory entry so renames inside it are durable.

    Best-effort on platforms that cannot open directories (Windows);
    on POSIX this is the step that makes ``os.replace`` crash-safe.
    """
    try:
        fd = os.open(os.fspath(directory), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write_bytes(path: PathLike, data: bytes) -> None:
    """Write ``data`` to ``path`` without ever exposing a torn file.

    Same-directory temp file, flush, fsync, then ``os.replace`` and a
    directory fsync — a crash at any point leaves either the old
    content or the new content, never a prefix.
    """
    _write_buffers_atomic(Path(path), [data])


def _write_buffers_atomic(target: Path, buffers: Sequence[Any]) -> int:
    """:func:`atomic_write_bytes` of ``buffers`` written back to back.

    Each buffer (bytes, or a contiguous array such as a memory-mapped
    column) goes straight to the file, so the payload is never joined
    in memory.  Returns the CRC32 of the bytes written, accumulated
    buffer by buffer.
    """
    tmp = target.parent / (target.name + ".tmp")
    crc = 0
    with open(tmp, "wb") as handle:
        for buffer in buffers:
            crc = zlib.crc32(buffer, crc)
            handle.write(buffer)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, target)
    fsync_directory(target.parent)
    return crc & 0xFFFFFFFF


class _DurableIo:
    """Every durable write of a spill directory, behind fault hooks.

    With no injector this is plain tmp+fsync+rename IO.  With one, each
    call below reports its boundaries to ``injector.decide`` and applies
    the returned :class:`~repro.faults.injectors.FaultAction` — torn
    payloads, flipped bits, lost fsyncs (the file rolls back to its
    pre-write content), and crashes before/after any boundary.
    """

    def __init__(self, injector: Optional[Any] = None) -> None:
        self.injector = injector
        #: Pre-write file contents, kept only under injection so a lost
        #: fsync can roll the file back (None = file did not exist).
        self._pre: Dict[str, Optional[bytes]] = {}

    # -- boundary plumbing --------------------------------------------------

    def _boundary(self, op: str, path: Path, data: Optional[bytes]) -> bytes:
        """Run one boundary: consult the injector, apply its action."""
        if self.injector is None:
            return data if data is not None else b""
        action = self.injector.decide(op, str(path), len(data or b""))
        if action.crash_before:
            self.injector.crash(f"before {op} {path.name}")
        mutated = data if data is not None else b""
        if action.truncate_to is not None:
            mutated = mutated[: action.truncate_to]
        if action.flip is not None and mutated:
            position, mask = action.flip
            buffer = bytearray(mutated)
            buffer[position % len(buffer)] ^= mask
            mutated = bytes(buffer)
        if action.lose and op == "fsync":
            self._rollback(path)
        self._apply(op, path, mutated)
        if action.crash_after:
            self.injector.crash(f"after {op} {path.name}")
        return mutated

    def _apply(self, op: str, path: Path, data: bytes) -> None:
        if op == "write":
            self._snapshot(path)
            with open(path, "wb") as handle:
                handle.write(data)
                handle.flush()
        elif op == "append":
            self._snapshot(path)
            with open(path, "ab") as handle:
                handle.write(data)
                handle.flush()
        elif op == "fsync":
            if path.exists():
                with open(path, "rb+") as handle:
                    os.fsync(handle.fileno())
            self._pre.pop(str(path), None)
        elif op == "dirsync":
            fsync_directory(path)

    def _snapshot(self, path: Path) -> None:
        """Record pre-write content once per unsynced write window."""
        if self.injector is None:
            return
        key = str(path)
        if key not in self._pre:
            self._pre[key] = path.read_bytes() if path.exists() else None

    def _rollback(self, path: Path) -> None:
        """Undo writes whose fsync was injected away."""
        previous = self._pre.pop(str(path), None)
        if previous is None:
            if path.exists():
                path.unlink()
        else:
            path.write_bytes(previous)

    # -- public operations --------------------------------------------------

    def write_atomic(self, path: Path, buffers: Sequence[Any]) -> int:
        """Injected counterpart of :func:`atomic_write_bytes`.

        Writes ``buffers`` back to back and returns the CRC32 of the
        intended bytes.  Only under an injector are they joined, so
        the write boundary sees the whole payload exactly as a single
        buffer would present it.
        """
        if self.injector is None:
            return _write_buffers_atomic(path, buffers)
        data = b"".join(buffers)
        tmp = path.parent / (path.name + ".tmp")
        self._boundary("write", tmp, data)
        self._boundary("fsync", tmp, None)
        action = self.injector.decide("replace", str(path), 0)
        if action.crash_before:
            self.injector.crash(f"before replace {path.name}")
        os.replace(tmp, path)
        self._pre.pop(str(tmp), None)
        if action.crash_after:
            self.injector.crash(f"after replace {path.name}")
        self._boundary("dirsync", path.parent, None)
        return _crc32(data)

    def append_line(self, path: Path, line: str) -> None:
        """Append one journal line durably (append + fsync boundaries)."""
        payload = (line + "\n").encode("utf-8")
        if self.injector is None:
            with open(path, "ab") as handle:
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            return
        self._boundary("append", path, payload)
        self._boundary("fsync", path, None)

    def unlink(self, path: Path) -> None:
        """Remove one retired file (an ``unlink`` boundary).

        A lost unlink (``FaultAction.lose``) leaves the file in place —
        the removal never reached the disk — which is why retirement
        tolerates already-present debris: recovery quarantines it.
        """
        if self.injector is None:
            self._unlink_quiet(path)
            return
        action = self.injector.decide("unlink", str(path), 0)
        if action.crash_before:
            self.injector.crash(f"before unlink {path.name}")
        if not action.lose:
            self._unlink_quiet(path)
        if action.crash_after:
            self.injector.crash(f"after unlink {path.name}")

    @staticmethod
    def _unlink_quiet(path: Path) -> None:
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass

    def sync_directory(self, directory: Path) -> None:
        """Flush a directory entry (a ``dirsync`` boundary)."""
        if self.injector is None:
            fsync_directory(directory)
            return
        self._boundary("dirsync", directory, None)


# ---------------------------------------------------------------------------
# manifest / report record types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SegmentInfo:
    """One immutable on-disk row segment."""

    name: str
    rows: int
    crc32: int
    #: Mergeable 128-bit multiset digest of the rows (row values summed
    #: mod 2**128).  Merged segments inherit the sum of their inputs'
    #: digests, which the database checks against the merged rows.
    digest: int
    #: Verified-at facts: the file's byte size and mtime as stat'd
    #: right after its durable write (or its last full CRC stream).
    size: int
    mtime_ns: int

    def to_json(self) -> List[Any]:
        """Compact manifest form (digest as hex)."""
        return [
            self.name,
            self.rows,
            self.crc32,
            f"{self.digest:032x}",
            self.size,
            self.mtime_ns,
        ]

    @classmethod
    def from_json(cls, payload: List[Any]) -> "SegmentInfo":
        """Inverse of :meth:`to_json`."""
        name, rows, crc32, digest, size, mtime_ns = payload
        return cls(
            str(name),
            int(rows),
            int(crc32),
            int(str(digest), 16),
            int(size),
            int(mtime_ns),
        )


@dataclass(frozen=True)
class SidecarInfo:
    """A named auxiliary blob committed alongside the segments.

    The database layer stores its interned domain table here; the
    spill store only knows the blob's name, checksum and stat facts.
    """

    name: str
    size: int
    crc32: int
    #: Verified-at fact next to ``size``: the file's mtime (see
    #: :attr:`SegmentInfo.mtime_ns`).
    mtime_ns: int

    def to_json(self) -> List[Any]:
        """Compact manifest form."""
        return [self.name, self.size, self.crc32, self.mtime_ns]

    @classmethod
    def from_json(cls, payload: List[Any]) -> "SidecarInfo":
        """Inverse of :meth:`to_json`."""
        name, size, crc32, mtime_ns = payload
        return cls(str(name), int(size), int(crc32), int(mtime_ns))


@dataclass(frozen=True)
class QuarantineEntry:
    """One file the recovery scan moved aside, and why.

    In a :class:`RecoveryReport`, ``path`` is the original name
    relative to the spill directory; entries returned by
    :meth:`SpillStore.quarantine_entries` instead carry the file's
    current name inside ``quarantine/``.  A read-only open *reports*
    entries without moving anything.
    """

    path: str
    #: ``torn-manifest`` | ``damaged-segment`` | ``damaged-sidecar`` |
    #: ``orphan-segment`` | ``orphan-sidecar`` | ``orphan-temp`` |
    #: ``unknown`` (predates the index)
    kind: str
    detail: str = ""
    #: Store generation live when the file was quarantined (0 when
    #: unknown) — the retention key for :meth:`purge_quarantine`.
    generation: int = 0


@dataclass
class RecoveryReport:
    """What :meth:`SpillStore.open` found and did."""

    #: Generation actually recovered (0 = empty store).
    generation: int = 0
    #: Generations whose manifests existed but could not be served.
    rejected_generations: List[int] = field(default_factory=list)
    quarantined: List[QuarantineEntry] = field(default_factory=list)
    #: The journal ended mid-record (a torn append) — informational.
    torn_journal_tail: bool = False
    #: Journal intents with no committed outcome (labels the orphans).
    unfinished_intents: List[str] = field(default_factory=list)
    #: Segment files whose bytes were CRC-streamed during this open
    #: (the full-scan cost the manifest's stat facts exist to avoid).
    segments_crc_streamed: int = 0
    #: Segment/sidecar verifications satisfied by the stat facts of
    #: the manifest under verification (no byte stream).
    cache_hits: int = 0

    def clean(self) -> bool:
        """True when recovery found nothing to repair or quarantine."""
        return (
            not self.quarantined
            and not self.rejected_generations
            and not self.torn_journal_tail
        )

    def summary(self) -> str:
        """One-line operator summary."""
        return (
            f"recovered generation {self.generation}; "
            f"{len(self.quarantined)} file(s) quarantined, "
            f"{len(self.rejected_generations)} generation(s) rejected"
        )


@dataclass(frozen=True)
class _Manifest:
    """A parsed, checksum-verified manifest file."""

    generation: int
    segments: Tuple[SegmentInfo, ...]
    sidecars: Tuple[SidecarInfo, ...]
    meta: Dict[str, Any]


def _crc32(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


def _stat_facts(path: Path) -> Optional[Tuple[int, int]]:
    """A file's verified-at facts, (size, mtime_ns); None when absent."""
    try:
        stat = path.stat()
    except OSError:
        return None
    return stat.st_size, stat.st_mtime_ns


def _with_facts(info: Any, facts: Optional[Tuple[int, int]]) -> Any:
    """``info`` (segment or sidecar) re-recorded with a fresh stat."""
    if facts is None:
        return info
    return replace(info, size=facts[0], mtime_ns=facts[1])


def _stream_crc32(path: Path) -> int:
    """CRC32 of a file's bytes, streamed (segments can be large)."""
    crc = 0
    with open(path, "rb") as handle:
        while True:
            block = handle.read(1 << 20)
            if not block:
                return crc & 0xFFFFFFFF
            crc = zlib.crc32(block, crc)


# ---------------------------------------------------------------------------
# quarantine plumbing
# ---------------------------------------------------------------------------


class _QuarantineSink:
    """Collects quarantine decisions; moves files only when writable.

    Read-only opens pass ``quarantine_dir=None``: every decision still
    lands in the report (the caller is told exactly what a writable
    open would have moved), but the directory is left untouched — the
    property that makes concurrent read-only opens safe against a live
    writer's staged-but-uncommitted files.
    """

    def __init__(
        self, quarantine_dir: Optional[Path], report: RecoveryReport
    ) -> None:
        self.quarantine_dir = quarantine_dir
        self.report = report
        #: (name inside quarantine/, entry) for files actually moved.
        self.moved: List[Tuple[str, QuarantineEntry]] = []

    def take(self, path: Path, relative: str, kind: str, detail: str) -> None:
        """Report ``path`` as quarantined; move it if writable."""
        entry = QuarantineEntry(relative, kind, detail)
        self.report.quarantined.append(entry)
        if self.quarantine_dir is None or not path.exists():
            return
        target = _quarantine(path, self.quarantine_dir)
        self.moved.append((target.name, entry))


# ---------------------------------------------------------------------------
# the store
# ---------------------------------------------------------------------------


class SpillStore:
    """A crash-safe, append-only segment store under one directory.

    Use :meth:`open` (which creates an empty store on a fresh
    directory and runs the recovery scan on an existing one), then
    :meth:`append_segment` / :meth:`write_sidecar` to stage data and
    :meth:`commit` to make a new generation durable.  Uncommitted
    stages are lost on crash — by design: the commit is the
    checkpoint boundary.
    """

    def __init__(
        self,
        directory: Path,
        io_layer: _DurableIo,
        manifest: Optional[_Manifest],
        report: RecoveryReport,
        next_segment: int,
        next_sidecar: int,
        read_only: bool = False,
    ) -> None:
        self.directory = directory
        self.read_only = read_only
        self._io = io_layer
        self._segments: List[SegmentInfo] = (
            list(manifest.segments) if manifest else []
        )
        self._sidecars: Dict[str, SidecarInfo] = {
            _sidecar_kind(s.name): s for s in (manifest.sidecars if manifest else ())
        }
        self.generation = manifest.generation if manifest else 0
        self.meta: Dict[str, Any] = dict(manifest.meta) if manifest else {}
        self.last_recovery = report
        self._next_segment = next_segment
        self._next_sidecar = next_sidecar
        #: Segments staged since the last commit (already on disk,
        #: referenced by no manifest yet).
        self._pending: List[SegmentInfo] = []
        #: Guards the published in-memory view of the store (committed
        #: segment list, staged list, sidecar table, generation, meta)
        #: so readers in other threads never observe a half-applied
        #: commit.  Durable IO happens *before* the lock is taken —
        #: only the in-memory publish of an already-durable state is
        #: guarded, never an fsync or a rename.
        self._lock = threading.Lock()
        #: One memory map per segment name (see :meth:`mmap_segment`).
        self._maps: Dict[str, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    # -- opening ------------------------------------------------------------

    @classmethod
    def open(
        cls,
        directory: PathLike,
        faults: Optional[Any] = None,
        paranoid: bool = False,
        read_only: bool = False,
    ) -> "SpillStore":
        """Open (or initialize) a spill directory, recovering if needed.

        ``paranoid=True`` ignores the manifests' stat facts and streams
        every referenced byte.  A clean writable open writes nothing.
        ``read_only=True`` opens for serving: nothing is created or
        moved — damage is reported, not quarantined — and every write
        method raises :class:`ConfigError`; the directory must already
        exist.

        Raises :class:`CorruptArchiveError` when ``directory`` exists
        but is not a spill store (e.g. it is a file, or holds foreign
        content where the layout should be), and :class:`ConfigError`,
        moving nothing, when it holds an intact store of another
        ``SPILL_FORMAT_VERSION``.
        """
        root = Path(directory)
        if root.exists() and not root.is_dir():
            raise CorruptArchiveError(root, "spill path is not a directory")
        if read_only:
            if faults is not None:
                raise ConfigError(
                    "read-only opens perform no writes to inject into"
                )
            if not root.is_dir():
                raise ConfigError(
                    f"read-only open of missing spill directory {root}"
                )
        segments_dir = root / "segments"
        quarantine_dir = root / "quarantine"
        if not read_only:
            segments_dir.mkdir(parents=True, exist_ok=True)
            quarantine_dir.mkdir(parents=True, exist_ok=True)
        io_layer = _DurableIo(faults)
        report = RecoveryReport()
        sink = _QuarantineSink(None if read_only else quarantine_dir, report)
        # First, so a store of another format is refused before
        # anything is moved.
        manifests = cls._scan_manifests(root, sink)
        journal_intents = cls._scan_journal(root, report)
        chosen = cls._choose_generation(
            root, manifests, sink, report, paranoid
        )
        cls._quarantine_strays(
            root,
            segments_dir,
            [manifest for _, manifest in manifests],
            sink,
            journal_intents,
        )
        report.generation = chosen.generation if chosen else 0
        next_segment, next_sidecar = cls._next_counters(root, journal_intents)
        store = cls(
            root,
            io_layer,
            chosen,
            report,
            next_segment,
            next_sidecar,
            read_only=read_only,
        )
        if not read_only:
            store._update_quarantine_index(sink.moved)
        return store

    @staticmethod
    def _scan_journal(root: Path, report: RecoveryReport) -> List[Dict[str, Any]]:
        """Parse journal.log tolerantly; a torn tail is reported, not fatal."""
        journal = root / "journal.log"
        intents: List[Dict[str, Any]] = []
        if not journal.exists():
            return intents
        raw = journal.read_bytes().decode("utf-8", errors="replace")
        lines = raw.split("\n")
        committed: set = set()
        for index, line in enumerate(lines):
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                # Only the final record can legitimately be torn; any
                # earlier damage is still just reported — the journal
                # is advisory, manifests/checksums are authoritative.
                report.torn_journal_tail = True
                continue
            if not isinstance(record, dict):
                report.torn_journal_tail = True
                continue
            intents.append(record)
            if record.get("op") == "commit":
                committed.add(int(record.get("generation", -1)))
        for record in intents:
            if (
                record.get("op") == "commit-intent"
                and int(record.get("generation", -1)) not in committed
            ):
                report.unfinished_intents.append(
                    f"commit-intent generation {record.get('generation')}"
                )
        return intents

    @staticmethod
    def _scan_manifests(
        root: Path, sink: _QuarantineSink
    ) -> List[Tuple[Path, _Manifest]]:
        """Load every manifest file, quarantining the unverifiable ones.

        A checksum-valid manifest of another format raises
        :class:`ConfigError` before anything is quarantined.
        """
        found: List[Tuple[Path, _Manifest]] = []
        torn: List[Tuple[Path, str]] = []
        for path in sorted(root.glob("manifest-*.json")):
            if not _MANIFEST_RE.match(path.name):
                continue
            try:
                manifest = _parse_manifest(path.read_bytes())
            except CorruptArchiveError as error:
                torn.append((path, error.detail))
                continue
            found.append((path, manifest))
        for path, detail in torn:
            sink.take(path, path.name, "torn-manifest", detail)
        found.sort(key=lambda item: item[1].generation)
        return found

    @classmethod
    def _choose_generation(
        cls,
        root: Path,
        manifests: List[Tuple[Path, _Manifest]],
        sink: _QuarantineSink,
        report: RecoveryReport,
        paranoid: bool,
    ) -> Optional[_Manifest]:
        """Newest generation whose segments and sidecars all verify.

        A generation that references a damaged file is rejected (the
        damaged file quarantined) and the scan falls back to the next
        older one; segments shared with the survivor are of course
        kept.  The newest checksum-valid manifest is authoritative: a
        crash after its rename but before the journal's ``commit`` line
        still recovers it.

        Trust model: a file whose current stat (size, mtime_ns) equals
        the facts recorded in *the manifest under verification* skips
        the byte stream (a cache hit).  Those facts sit next to the
        file's CRC under the manifest's self-checksum, so they can
        only vouch for the CRC they were recorded with; a tampered or
        rewritten file changes its stat and is streamed.  In-place
        tampering that forges size+mtime is outside the model, and
        ``paranoid=True`` (stream everything) exists for it.  A file
        that is streamed and verifies gets its current stat recorded
        in the returned manifest, so the next commit re-records it.
        """
        damaged: set = set()
        for path, manifest in reversed(manifests):
            bad: List[Tuple[Path, QuarantineEntry]] = []
            segments: List[SegmentInfo] = []
            sidecars: List[SidecarInfo] = []
            for segment in manifest.segments:
                target = root / "segments" / segment.name
                relative = f"segments/{segment.name}"
                seen = _stat_facts(target)
                if not paranoid and seen == (segment.size, segment.mtime_ns):
                    report.cache_hits += 1
                    segments.append(segment)
                    continue
                if seen is not None:
                    report.segments_crc_streamed += 1
                problem = _verify_segment(target, segment)
                if problem is None:
                    segments.append(_with_facts(segment, seen))
                else:
                    bad.append(
                        (
                            target,
                            QuarantineEntry(
                                relative, "damaged-segment", problem
                            ),
                        )
                    )
            for sidecar in manifest.sidecars:
                target = root / sidecar.name
                seen = _stat_facts(target)
                if not paranoid and seen == (sidecar.size, sidecar.mtime_ns):
                    report.cache_hits += 1
                    sidecars.append(sidecar)
                    continue
                problem = _verify_sidecar(target, sidecar)
                if problem is None:
                    sidecars.append(_with_facts(sidecar, seen))
                else:
                    bad.append(
                        (
                            target,
                            QuarantineEntry(
                                sidecar.name, "damaged-sidecar", problem
                            ),
                        )
                    )
            if not bad:
                return replace(
                    manifest,
                    segments=tuple(segments),
                    sidecars=tuple(sidecars),
                )
            report.rejected_generations.append(manifest.generation)
            for target, entry in bad:
                if entry.path in damaged:
                    continue
                damaged.add(entry.path)
                sink.take(target, entry.path, entry.kind, entry.detail)
        return None

    @staticmethod
    def _quarantine_strays(
        root: Path,
        segments_dir: Path,
        manifests: List[_Manifest],
        sink: _QuarantineSink,
        journal_intents: List[Dict[str, Any]],
    ) -> None:
        """Move aside temp files and uncommitted segments/sidecars.

        A file referenced by *any* checksum-valid manifest is kept —
        older generations are the fallback chain for future recoveries
        — so only files no committed manifest ever named (uncommitted
        stages from a crashed writer, or retirement debris a lost
        unlink left behind after compaction) are moved aside.
        """
        referenced = {s.name for m in manifests for s in m.segments}
        sidecar_names = {s.name for m in manifests for s in m.sidecars}
        intended = {
            str(record.get("name"))
            for record in journal_intents
            if record.get("op")
            in ("segment-intent", "sidecar-intent", "compact-intent")
        }
        quarantine_dir = root / "quarantine"
        for path in sorted(root.rglob("*.tmp")):
            if quarantine_dir in path.parents:
                continue
            relative = path.relative_to(root).as_posix()
            sink.take(path, relative, "orphan-temp", "interrupted write")
        for path in sorted(segments_dir.glob("seg-*.npy")):
            if path.name in referenced:
                continue
            detail = (
                "journaled intent, never committed"
                if path.name in intended
                else "referenced by no committed manifest"
            )
            sink.take(
                path, f"segments/{path.name}", "orphan-segment", detail
            )
        for path in sorted(root.glob("*.bin")):
            if path.name in sidecar_names:
                continue
            detail = (
                "journaled intent, never committed"
                if path.name in intended
                else "referenced by no committed manifest"
            )
            sink.take(path, path.name, "orphan-sidecar", detail)

    @staticmethod
    def _next_counters(
        root: Path, journal_intents: List[Dict[str, Any]]
    ) -> Tuple[int, int]:
        """Counters strictly above anything ever named, even quarantined."""
        highest_segment = 0
        highest_sidecar = 0
        candidates = [
            path.name
            for path in list(root.rglob("seg-*.npy"))
            + list(root.glob("*.bin"))
            + list((root / "quarantine").glob("*"))
        ]
        candidates.extend(
            str(record.get("name", ""))
            for record in journal_intents
            if record.get("op")
            in ("segment-intent", "sidecar-intent", "compact-intent")
        )
        for name in candidates:
            match = _SEGMENT_RE.match(name)
            if match:
                highest_segment = max(highest_segment, int(match.group(1)))
            match = _SIDECAR_RE.match(name)
            if match:
                highest_sidecar = max(highest_sidecar, int(match.group(1)))
        return highest_segment + 1, highest_sidecar + 1

    # -- reading ------------------------------------------------------------

    def segments(self) -> List[SegmentInfo]:
        """Committed + staged segments, in append order."""
        return list(self._segments) + list(self._pending)

    def row_count(self) -> int:
        """Total rows across committed and staged segments."""
        return sum(info.rows for info in self.segments())

    def mmap_segment(
        self, info: SegmentInfo
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Memory-map one segment as its (ids, times, counts) triple.

        Each segment is mapped once: later calls return the same views
        until :meth:`compact` retires the segment, so a merge streams
        through the pages the store's reader already holds.
        """
        with self._lock:
            mapped = self._maps.get(info.name)
        if mapped is not None:
            return mapped
        path = self.directory / "segments" / info.name
        try:
            # The returned row views pin the mmap open for as long as
            # the caller holds them; closing here would invalidate them.
            stacked = np.load(path, mmap_mode="r")  # repro: noqa[REP303]
        except (OSError, ValueError) as error:
            raise CorruptArchiveError(path, f"unreadable segment: {error}")
        if stacked.ndim != 2 or stacked.shape[0] != 3:
            raise CorruptArchiveError(
                path, f"segment has shape {stacked.shape}, expected (3, n)"
            )
        # Plain ndarray views (their base keeps the map open): gathers
        # from a memmap pay for its Python-level __getitem__.
        rows = stacked.view(np.ndarray)
        with self._lock:
            return self._maps.setdefault(info.name, (rows[0], rows[1], rows[2]))

    def sidecar_path(self, kind: str) -> Optional[Path]:
        """Where the committed sidecar of ``kind`` lives (None when absent)."""
        info = self._sidecars.get(kind)
        return None if info is None else self.directory / info.name

    def read_sidecar(self, kind: str) -> Optional[bytes]:
        """The named sidecar's verified bytes (None when absent)."""
        info = self._sidecars.get(kind)
        if info is None:
            return None
        path = self.directory / info.name
        data = path.read_bytes()
        if _crc32(data) != info.crc32:
            raise CorruptArchiveError(path, "sidecar checksum mismatch")
        return data

    # -- writing ------------------------------------------------------------

    def _assert_writable(self, operation: str) -> None:
        if self.read_only:
            raise ConfigError(
                f"store was opened read-only; {operation} writes"
            )

    def append_segment(
        self,
        ids: np.ndarray,
        times: np.ndarray,
        counts: np.ndarray,
        digest: int,
    ) -> SegmentInfo:
        """Stage one immutable row segment (durable but uncommitted).

        ``digest`` is the caller-computed mergeable row digest (see
        :class:`SegmentInfo`); the store records it in the manifest
        but does not recompute it — rows are the caller's domain.
        """
        self._assert_writable("append_segment()")
        if not isinstance(digest, int) or not 0 <= digest <= DIGEST_MASK:
            raise ConfigError("a segment needs its 128-bit row digest")
        if not (len(ids) == len(times) == len(counts)):
            raise ConfigError("segment columns must have equal length")
        if len(ids) == 0:
            raise ConfigError("cannot spill an empty segment")
        name = f"seg-{self._next_segment:07d}.npy"
        self._next_segment += 1
        self._journal({"op": "segment-intent", "name": name, "rows": len(ids)})
        crc, size, mtime_ns = self._write_verified(
            self.directory / "segments" / name,
            _segment_buffers([(ids, times, counts)]),
        )
        info = SegmentInfo(name, len(ids), crc, digest, size, mtime_ns)
        with self._lock:
            self._pending.append(info)
        return info

    def write_sidecar(self, kind: str, data: bytes) -> SidecarInfo:
        """Stage a named auxiliary blob for the next commit."""
        self._assert_writable("write_sidecar()")
        if not kind.isalpha() or not kind.islower():
            raise ConfigError("sidecar kind must be a lowercase word")
        name = f"{kind}-{self._next_sidecar:07d}.bin"
        self._next_sidecar += 1
        self._journal({"op": "sidecar-intent", "name": name})
        crc, size, mtime_ns = self._write_verified(self.directory / name, [data])
        info = SidecarInfo(name, size, crc, mtime_ns)
        with self._lock:
            self._sidecars[kind] = info
        return info

    def _write_verified(
        self, path: Path, buffers: Sequence[Any]
    ) -> Tuple[int, int, int]:
        """Write ``buffers`` durably to a fresh ``path``: (crc, size, mtime_ns).

        Read-back verification: segments are memory-mapped into service
        immediately and the manifest will vouch for the stat facts
        returned here, so a write corrupted in flight (a flipped bit, a
        short write) must be caught *here*, before any manifest
        references the file, not at the next open.  At-rest rot is
        still the recovery scan's job.
        """
        crc = self._io.write_atomic(path, buffers)
        written = _stream_crc32(path)
        if written != crc:
            raise CorruptArchiveError(
                path,
                "post-write verification failed "
                f"(expected {crc:#010x}, file {written:#010x})",
            )
        stat = path.stat()
        return crc, stat.st_size, stat.st_mtime_ns

    def _write_manifest(
        self,
        generation: int,
        segments: List[SegmentInfo],
        meta: Dict[str, Any],
    ) -> str:
        """Write ``manifest-<gen>.json`` atomically; returns its name."""
        payload = {
            "format": SPILL_FORMAT_VERSION,
            "generation": generation,
            "segments": [s.to_json() for s in segments],
            "sidecars": [
                self._sidecars[kind].to_json()
                for kind in sorted(self._sidecars)
            ],
            "meta": dict(meta),
        }
        name = f"manifest-{generation:07d}.json"
        self._io.write_atomic(self.directory / name, [_envelope(payload)])
        return name

    def commit(self, meta: Optional[Dict[str, Any]] = None) -> int:
        """Make everything staged durable as a new generation.

        Returns the committed generation number.  The manifest lands
        via tmp+fsync+rename onto its fresh name, then the journal's
        ``commit`` line follows — a crash between the two leaves a
        fully valid manifest that recovery still prefers.  Nothing is
        replaced or unlinked: older manifests stay as the fallback
        chain until the next :meth:`compact`.
        """
        self._assert_writable("commit()")
        generation = self.generation + 1
        segments = list(self._segments) + list(self._pending)
        self._journal(
            {
                "op": "commit-intent",
                "generation": generation,
                "segments": [s.name for s in self._pending],
            }
        )
        self._write_manifest(generation, segments, dict(meta or {}))
        self._journal({"op": "commit", "generation": generation})
        with self._lock:
            self.generation = generation
            self._segments = segments
            self._pending = []
            self.meta = dict(meta or {})
        return generation

    def compact(self, min_segments: int = 2) -> Optional[int]:
        """Merge every committed segment into one superseding generation.

        The log-structured reclaim step.  Protocol, every arrow its
        own durability boundary:

        1. journal a ``compact-intent`` naming the merged segment and
           its inputs;
        2. write the merged segment (tmp+fsync+rename+dirsync) and
           CRC-verify it by read-back;
        3. journal a ``commit-intent``, write the superseding manifest
           (referencing *only* the merged segment), and **read it back
           through the full parse+checksum path** — retirement must
           never start on the strength of a manifest that does not
           verify on disk (a bit-flipped manifest write survives the
           writer; deleting the old generation under it would be
           silent data loss);
        4. journal ``commit``;
        5. retire superseded files — old manifests first, then
           unreferenced segments, then unreferenced sidecars, each
           batch followed by a dirsync.

        A crash before step 4's journal line recovers the *old*
        generation (the merged segment is quarantined as an orphan); a
        crash during step 5 recovers the *new* generation with some
        already-unreferenced debris for the next open to quarantine.
        Either way the recovered store verifies in full — never a mix.

        Returns the new generation, or ``None`` when fewer than
        ``min_segments`` committed segments exist.  Staged-but-
        uncommitted segments must be committed first.
        """
        self._assert_writable("compact()")
        if min_segments < 2:
            raise ConfigError("min_segments must be at least 2")
        if self._pending:
            raise ConfigError(
                "commit staged segments before compacting"
            )
        if len(self._segments) < min_segments:
            return None
        inputs = list(self._segments)
        name = f"seg-{self._next_segment:07d}.npy"
        self._next_segment += 1
        generation = self.generation + 1
        self._journal(
            {
                "op": "compact-intent",
                "generation": generation,
                "name": name,
                "inputs": [info.name for info in inputs],
            }
        )
        crc, size, mtime_ns = self._write_verified(
            self.directory / "segments" / name,
            _segment_buffers([self.mmap_segment(info) for info in inputs]),
        )
        merged = SegmentInfo(
            name,
            sum(info.rows for info in inputs),
            crc,
            sum(info.digest for info in inputs) & DIGEST_MASK,
            size,
            mtime_ns,
        )
        meta = dict(self.meta)
        meta["compacted"] = {
            "inputs": [info.name for info in inputs],
            "merged": name,
            "superseded_generation": self.generation,
        }
        self._journal(
            {
                "op": "commit-intent",
                "generation": generation,
                "segments": [name],
            }
        )
        manifest_name = self._write_manifest(generation, [merged], meta)
        parsed = _parse_manifest(
            (self.directory / manifest_name).read_bytes()
        )
        if parsed.generation != generation or [
            s.name for s in parsed.segments
        ] != [name]:
            raise CorruptArchiveError(
                self.directory / manifest_name,
                "superseding manifest does not verify on read-back; "
                "aborting compaction with the old generation intact",
            )
        self._journal({"op": "commit", "generation": generation})
        with self._lock:
            self.generation = generation
            self._segments = [merged]
            self.meta = meta
            # The inputs are retired: their maps go with them.
            self._maps = {}
        retired = self._retire_superseded()
        self._journal(
            {"op": "retired", "generation": generation, "files": retired}
        )
        return generation

    def _retire_superseded(self) -> List[str]:
        """Delete files the committed manifest no longer references.

        Order matters for the supersession invariant: superseded
        *manifests* go first (with a dirsync), so no surviving
        manifest can ever reference a file deleted later in the same
        pass.  A crash anywhere in here leaves extra-but-unreferenced
        files that the next open quarantines as orphans — harmless
        debris, reclaimed by :meth:`purge_quarantine` — never a
        manifest pointing at a hole.
        """
        keep_manifest = f"manifest-{self.generation:07d}.json"
        keep_segments = {info.name for info in self._segments}
        keep_sidecars = {info.name for info in self._sidecars.values()}
        removed: List[str] = []
        manifests = [
            path
            for path in sorted(self.directory.glob("manifest-*.json"))
            if _MANIFEST_RE.match(path.name) and path.name != keep_manifest
        ]
        for path in manifests:
            self._io.unlink(path)
            removed.append(path.name)
        if manifests:
            self._io.sync_directory(self.directory)
        segments = [
            path
            for path in sorted((self.directory / "segments").glob("seg-*.npy"))
            if path.name not in keep_segments
        ]
        for path in segments:
            self._io.unlink(path)
            removed.append(f"segments/{path.name}")
        if segments:
            self._io.sync_directory(self.directory / "segments")
        sidecars = [
            path
            for path in sorted(self.directory.glob("*.bin"))
            if path.name not in keep_sidecars
        ]
        for path in sidecars:
            self._io.unlink(path)
            removed.append(path.name)
        if sidecars:
            self._io.sync_directory(self.directory)
        return removed

    def _journal(self, record: Dict[str, Any]) -> None:
        self._io.append_line(
            self.directory / "journal.log", json.dumps(record, sort_keys=True)
        )

    # -- quarantine reclamation ---------------------------------------------

    def _load_quarantine_index(self) -> Dict[str, Dict[str, Any]]:
        """Typed retention records, keyed by name inside quarantine/."""
        path = self.directory / "quarantine" / QUARANTINE_INDEX_NAME
        if not path.exists():
            return {}
        try:
            document = json.loads(path.read_bytes().decode("utf-8"))
            payload = document["payload"]
            encoded = json.dumps(payload, sort_keys=True).encode("utf-8")
            if _crc32(encoded) != document.get("checksum"):
                return {}
            return {
                str(key): dict(value)
                for key, value in payload.get("entries", {}).items()
            }
        except (
            json.JSONDecodeError,
            UnicodeDecodeError,
            KeyError,
            TypeError,
            ValueError,
            OSError,
        ):
            # A damaged index loses the *labels*, never the evidence:
            # the files stay, listed with kind "unknown".
            return {}

    def _write_quarantine_index(
        self, entries: Dict[str, Dict[str, Any]]
    ) -> None:
        payload = {
            "format": 1,
            "entries": {key: entries[key] for key in sorted(entries)},
        }
        self._io.write_atomic(
            self.directory / "quarantine" / QUARANTINE_INDEX_NAME,
            [_envelope(payload)],
        )

    def _update_quarantine_index(
        self, moved: List[Tuple[str, QuarantineEntry]]
    ) -> None:
        """Fold this open's moves into the index; prune gone files."""
        quarantine_dir = self.directory / "quarantine"
        entries = self._load_quarantine_index()
        pruned = {
            key: value
            for key, value in entries.items()
            if (quarantine_dir / key).exists()
        }
        changed = len(pruned) != len(entries)
        for target_name, entry in moved:
            pruned[target_name] = {
                "kind": entry.kind,
                "detail": entry.detail,
                "generation": self.last_recovery.generation,
            }
            changed = True
        if changed:
            self._write_quarantine_index(pruned)

    def quarantine_entries(self) -> List[QuarantineEntry]:
        """What sits in ``quarantine/`` right now, with typed labels.

        ``path`` is the file's current name inside ``quarantine/``;
        files that predate the index (or whose index was lost) are
        listed with kind ``unknown`` rather than hidden.
        """
        quarantine_dir = self.directory / "quarantine"
        if not quarantine_dir.is_dir():
            return []
        index = self._load_quarantine_index()
        entries: List[QuarantineEntry] = []
        for path in sorted(quarantine_dir.iterdir()):
            if path.name == QUARANTINE_INDEX_NAME or path.is_dir():
                continue
            record = index.get(path.name)
            if record is None:
                entries.append(
                    QuarantineEntry(
                        path.name, "unknown", "predates the quarantine index"
                    )
                )
            else:
                entries.append(
                    QuarantineEntry(
                        path.name,
                        str(record.get("kind", "unknown")),
                        str(record.get("detail", "")),
                        int(record.get("generation", 0)),
                    )
                )
        return entries

    def purge_quarantine(
        self,
        kinds: Optional[Any] = None,
        before_generation: Optional[int] = None,
    ) -> Tuple[int, int]:
        """Reclaim quarantined debris; returns (files removed, bytes).

        Typed retention: ``kinds`` restricts the purge to those entry
        kinds (e.g. only ``orphan-segment`` debris from compaction,
        keeping damaged-file evidence); ``before_generation`` keeps
        anything quarantined at or after that store generation.  With
        neither, everything goes.  Removals run through the injectable
        ``unlink`` boundary like any other durable mutation.
        """
        self._assert_writable("purge_quarantine()")
        wanted = set(kinds) if kinds is not None else None
        quarantine_dir = self.directory / "quarantine"
        index = self._load_quarantine_index()
        removed = 0
        freed = 0
        for entry in self.quarantine_entries():
            if wanted is not None and entry.kind not in wanted:
                continue
            if (
                before_generation is not None
                and entry.generation >= before_generation
            ):
                continue
            path = quarantine_dir / entry.path
            try:
                size = path.stat().st_size
            except OSError:
                size = 0
            self._io.unlink(path)
            index.pop(entry.path, None)
            removed += 1
            freed += size
        if removed:
            self._write_quarantine_index(index)
            self._io.sync_directory(quarantine_dir)
        return removed, freed


def _sidecar_kind(name: str) -> str:
    return name.split("-", 1)[0]


def _quarantine(path: Path, quarantine_dir: Path) -> Path:
    """Move a damaged/orphaned file aside (never delete evidence)."""
    target = quarantine_dir / path.name
    suffix = 0
    while target.exists():
        suffix += 1
        target = quarantine_dir / f"{path.name}.{suffix}"
    os.replace(path, target)
    return target


def _envelope(payload: Dict[str, Any]) -> bytes:
    """A self-checksummed JSON document around ``payload``.

    The checksum covers the canonical encoding (sorted keys, default
    separators), which readers recompute from the parsed payload, so
    a document verifies whatever its layout.  Documents are written
    compact: indentation forces the pure-Python encoder, which costs
    several times the C one on a large manifest.
    """
    encoded = json.dumps(payload, sort_keys=True).encode("utf-8")
    return json.dumps(
        {"payload": payload, "checksum": _crc32(encoded)}, sort_keys=True
    ).encode("utf-8")


def _parse_manifest(data: bytes) -> _Manifest:
    """Decode + checksum-verify one manifest document."""
    try:
        document = json.loads(data.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise CorruptArchiveError("<manifest>", f"unparseable JSON: {error}")
    if not isinstance(document, dict) or "payload" not in document:
        raise CorruptArchiveError("<manifest>", "missing payload envelope")
    payload = document["payload"]
    encoded = json.dumps(payload, sort_keys=True).encode("utf-8")
    if _crc32(encoded) != document.get("checksum"):
        raise CorruptArchiveError("<manifest>", "manifest checksum mismatch")
    if payload.get("format") != SPILL_FORMAT_VERSION:
        # Intact but foreign: refuse it rather than treat it as torn,
        # which would quarantine a whole older-format store.
        raise ConfigError(
            f"unsupported spill format {payload.get('format')} "
            f"(this build speaks {SPILL_FORMAT_VERSION})"
        )
    return _Manifest(
        generation=int(payload["generation"]),
        segments=tuple(
            SegmentInfo.from_json(item) for item in payload["segments"]
        ),
        sidecars=tuple(
            SidecarInfo.from_json(item) for item in payload.get("sidecars", [])
        ),
        meta=dict(payload.get("meta", {})),
    )


def _segment_buffers(
    parts: List[Tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> List[Any]:
    """The ``.npy`` of the (3, n) int64 rows of ``parts``, as buffers.

    The header, then every part's ids, every part's times, every
    part's counts: written back to back these are byte-identical to
    ``np.save`` of the stacked, concatenated parts, yet no copy of the
    rows is made — a compaction streams its input memory maps straight
    into the merged file.
    """
    rows = sum(len(ids) for ids, _, _ in parts)
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        header,
        {
            "descr": np.lib.format.dtype_to_descr(np.dtype(np.int64)),
            "fortran_order": False,
            "shape": (3, rows),
        },
    )
    return [header.getvalue()] + [
        np.ascontiguousarray(part[column], dtype=np.int64)
        for column in range(3)
        for part in parts
    ]


def _stored_shape(path: Path) -> Tuple[int, ...]:
    """The array shape recorded in a ``.npy`` file's header.

    Verification only needs the geometry, and the header carries it;
    reading it directly avoids mapping the whole payload and leaves no
    OS handle behind once the ``with`` block exits (a memmap opened
    just to inspect ``.shape`` would linger until garbage collection).
    """
    with open(path, "rb") as handle:
        version = np.lib.format.read_magic(handle)
        if version == (1, 0):
            shape, _, _ = np.lib.format.read_array_header_1_0(handle)
        else:
            shape, _, _ = np.lib.format.read_array_header_2_0(handle)
    return shape


def _verify_segment(path: Path, info: SegmentInfo) -> Optional[str]:
    """None when the segment file is intact, else the failure detail."""
    if not path.exists():
        return "segment file missing"
    crc = _stream_crc32(path)
    if crc != info.crc32:
        return f"checksum mismatch (manifest {info.crc32:#010x}, file {crc:#010x})"
    try:
        shape = _stored_shape(path)
    except (OSError, ValueError) as error:
        return f"unreadable npy: {error}"
    if len(shape) != 2 or shape[0] != 3 or shape[1] != info.rows:
        return f"shape {shape} does not match manifest rows {info.rows}"
    return None


def _verify_sidecar(path: Path, info: SidecarInfo) -> Optional[str]:
    """None when the sidecar file is intact, else the failure detail."""
    if not path.exists():
        return "sidecar file missing"
    data = path.read_bytes()
    if len(data) != info.size:
        return f"size {len(data)} does not match manifest size {info.size}"
    crc = _crc32(data)
    if crc != info.crc32:
        return f"checksum mismatch (manifest {info.crc32:#010x}, file {crc:#010x})"
    return None
