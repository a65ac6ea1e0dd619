"""The passive DNS database: a chunked columnar NXDomain store.

The analytical heart of the scale study.  Rows are
``(domain_id, timestamp, count)`` triples held in consolidated numpy
chunks (the BigQuery-mirror stand-in); a domain dictionary interns
names and keeps per-domain aggregates (first/last seen, total queries,
interned TLD id, 64-bit name hash) in parallel numpy columns.  All §4
aggregations — monthly volume, TLD histograms, lifespan decay, the
per-domain timelines of Figure 6 — are numpy reductions over these
columns.

Performance layout (see ``docs/PERFORMANCE.md``):

- **ingest** appends into a numpy tail buffer that is sealed into an
  immutable chunk at ``_CHUNK`` rows, so appends stay O(1) amortized
  per row and :meth:`add_batch` / :meth:`add_rows` land whole arrays
  without a per-row Python loop;
- **aggregates** (monthly series, TLD histogram, lifespan decay, the
  fingerprint) are cached against a generation counter that every
  mutation bumps, so repeated analysis passes over a quiescent store
  cost one computation;
- **identity**: :meth:`fingerprint` sums per-row 128-bit splitmix64
  mixes in ``uint64`` numpy — no sort, no per-row Python — so it
  ignores row order and each segment's digest is computed once;
- **per-domain queries** go through one CSR-style domain→rows index
  per immutable row part (a spill segment or a sealed in-memory
  chunk), built lazily on first use and kept until compaction retires
  the part; the live tail's index is cached against the generation.
  :meth:`daily_series_for` gathers one domain's rows from each part,
  so a writer wave costs an index of its own rows, not a rebuild
  over the whole store.

Durability layout (see ``docs/RESILIENCE.md``): constructing the store
with ``spill_dir=`` opens a :class:`repro.passivedns.spill.SpillStore`
under that directory.  Sealed chunks are spilled to checksummed,
memory-mapped ``.npy`` segments instead of staying resident, the
aggregate builders stream over the part list instead of forcing one
in-memory concatenation, and :meth:`spill_commit` makes the current
contents a durable manifest generation.  Every query — the per-part
indexes, the aggregates, the :meth:`fingerprint` — answers
byte-identically to the in-memory path.
"""

from __future__ import annotations

import bisect
import hashlib
import io as _stdio
import threading
import zipfile
import zlib
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.clock import SECONDS_PER_DAY, month_key
from repro.dns.message import RCode
from repro.dns.name import DomainName
from repro.passivedns.record import DnsObservation
from repro.passivedns.spill import DIGEST_MASK, SpillStore
from repro.errors import ConfigError, CorruptArchiveError

#: Sentinels for a freshly interned domain before its first row lands:
#: min/max updates against them always lose to a real timestamp.
_FIRST_SEEN_SENTINEL = np.int64(2**62)
_LAST_SEEN_SENTINEL = np.int64(-(2**62))

#: splitmix64's finalizer multipliers.
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
#: Seeds of the two row-digest lanes (high and low 64 bits).
_LANE_SEEDS = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xD1B54A32D192ED03))


#: What ``np.load`` raises on bytes that are not a loadable ``.npz``
#: (an ``.npy`` payload fails the ``with`` as a TypeError, or an
#: AttributeError on older Pythons).
_UNLOADABLE_NPZ = (
    ValueError,
    KeyError,
    EOFError,
    OSError,
    TypeError,
    AttributeError,
    zipfile.BadZipFile,
    zlib.error,
)


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer, in place on a wrapping ``uint64`` array."""
    x ^= x >> np.uint64(30)
    x *= _MIX_A
    x ^= x >> np.uint64(27)
    x *= _MIX_B
    x ^= x >> np.uint64(31)
    return x


def _previous_occurrence(matrix: np.ndarray) -> np.ndarray:
    """Index of the previous row equal to each row of ``matrix`` (-1: none).

    Rows are grouped by a 64-bit mix of their columns with one stable
    argsort, and neighbours in that order are compared in full, so the
    answer is exact; should two distinct rows ever share a mix, the
    rows are lexsorted column by column instead.
    """
    mixed = np.zeros(len(matrix), dtype=np.uint64)
    for column in matrix.T:
        mixed ^= column.astype(np.uint64)
        _mix64(mixed)
    order = np.argsort(mixed, kind="stable")
    later, earlier = order[1:], order[:-1]
    same_mix = mixed[later] == mixed[earlier]
    pairs = np.flatnonzero(same_mix)
    equal = (matrix[later[pairs]] == matrix[earlier[pairs]]).all(axis=1)
    if not equal.all():
        order = np.lexsort(matrix.T[::-1])
        later, earlier = order[1:], order[:-1]
        pairs = np.flatnonzero((matrix[later] == matrix[earlier]).all(axis=1))
    previous = np.full(len(matrix), -1, dtype=np.int64)
    previous[later[pairs]] = earlier[pairs]
    return previous


def _hash_name(text: str) -> int:
    """64-bit identity of a domain name (signed, for an int64 column)."""
    raw = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(raw, "little", signed=True)


def pack_names(names: Iterable[Any]) -> np.ndarray:
    """Pickle-free on-disk domain table: ``\\x00``-joined UTF-8 bytes."""
    joined = "\x00".join(str(name) for name in names).encode("utf-8")
    return np.frombuffer(joined, dtype=np.uint8)


def unpack_names(buffer: np.ndarray) -> List[DomainName]:
    """Inverse of :func:`pack_names`."""
    text = np.asarray(buffer, dtype=np.uint8).tobytes().decode("utf-8")
    return [DomainName(name) for name in text.split("\x00")] if text else []


def _domain_index(ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """CSR-style domain→rows index of one row part: (order, starts).

    ``order[starts[d]:starts[d + 1]]`` are the positions of domain
    ``d``'s rows in ``ids``, in insertion order (the argsort is
    stable).  ``starts`` covers ids up to the part's largest, so a
    domain interned after the part was built has no slice in it.
    """
    order = np.argsort(ids, kind="stable")
    starts = np.zeros(int(ids.max()) + 2 if len(ids) else 1, dtype=np.int64)
    np.cumsum(np.bincount(ids), out=starts[1:])
    return order, starts


class _IntColumn:
    """Amortized-append ``int64`` column (capacity-doubling array).

    The growable building block of the store: appends are O(1)
    amortized, :meth:`extend` lands whole arrays with one copy, and
    :meth:`view` exposes the live prefix zero-copy.
    """

    __slots__ = ("_data", "_size")

    def __init__(self, capacity: int = 1024) -> None:
        self._data = np.empty(max(capacity, 1), dtype=np.int64)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def _reserve(self, extra: int) -> None:
        needed = self._size + extra
        if needed <= len(self._data):
            return
        capacity = len(self._data)
        while capacity < needed:
            capacity *= 2
        grown = np.empty(capacity, dtype=np.int64)
        grown[: self._size] = self._data[: self._size]
        self._data = grown

    def append(self, value: int) -> None:
        """Append one value."""
        self._reserve(1)
        self._data[self._size] = value
        self._size += 1

    def extend(self, values: np.ndarray) -> None:
        """Append a whole array of values."""
        self._reserve(len(values))
        self._data[self._size : self._size + len(values)] = values
        self._size += len(values)

    def view(self) -> np.ndarray:
        """Zero-copy view of the live prefix (do not mutate)."""
        return self._data[: self._size]

    def __getitem__(self, index: int) -> int:
        return int(self._data[index])

    def __setitem__(self, index: int, value: int) -> None:
        self._data[index] = value

    def clear(self) -> None:
        """Reset to empty without releasing capacity."""
        self._size = 0


@dataclass
class DomainProfile:
    """Per-domain aggregate view."""

    domain: DomainName
    first_seen: int
    last_seen: int
    total_queries: int

    @property
    def tld(self) -> str:
        return self.domain.tld

    def lifespan_days(self) -> int:
        return (self.last_seen - self.first_seen) // SECONDS_PER_DAY

    def monthly_rate(self) -> float:
        """Average queries per 30-day month over the observed span.

        The observed span is floored at one day (a single-day burst is
        one day of activity, not zero), then converted to 30-day
        months *without* flooring the month count — a domain active
        for five days at N queries/day really does average 6·N·30/30
        queries per month, not N·5.  (The old double clamp normalized
        every sub-30-day domain to exactly one month, hiding the
        short-lived mass's true rate; §3.3 selection is unaffected
        because it also requires ≥180 days of NX activity, where the
        clamp never bound.)
        """
        months = max(self.lifespan_days(), 1) / 30.0
        return self.total_queries / months


class PassiveDnsDatabase:
    """Columnar store of NXDomain observations with §4's query API."""

    #: Tail-buffer rows before consolidation into an immutable chunk.
    _CHUNK = 1 << 16
    #: Bound on the duplicate-suppression window.  Redeliveries in real
    #: feeds are near-adjacent (a retried publish, an at-least-once
    #: redelivery), so a sliding window of recent observation keys is
    #: both sufficient and checkpointable.
    DEDUP_WINDOW = 4096

    def __init__(
        self,
        deduplicate: bool = False,
        spill_dir: Optional[Any] = None,
        spill_faults: Optional[Any] = None,
        spill_paranoid: bool = False,
        spill_read_only: bool = False,
        spill_compact_threshold: int = 0,
    ) -> None:
        if spill_compact_threshold < 0 or spill_compact_threshold == 1:
            raise ConfigError(
                "spill_compact_threshold must be 0 (off) or at least 2"
            )
        self._id_of: Dict[DomainName, int] = {}
        self._domains: List[DomainName] = []
        # Per-domain aggregate columns (parallel to ``_domains``).
        self._first_seen = _IntColumn()
        self._last_seen = _IntColumn()
        self._totals = _IntColumn()
        #: Interned per-domain TLD ids (index into ``_tlds``).
        self._tld_ids = _IntColumn()
        #: Per-domain 64-bit name hash (:func:`_hash_name`) for the row
        #: digest; derived, so restores recompute it from the names.
        self._name_hash = _IntColumn()
        self._tld_of: Dict[str, int] = {}
        self._tlds: List[str] = []
        # Row storage: immutable consolidated chunks plus a numpy tail
        # buffer sealed at ``_CHUNK`` rows (no whole-store refreezes).
        self._chunks: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        #: Cache key per chunk, parallel to ``_chunks``: the spill
        #: segment name, or ``mem-<position>`` for an in-memory chunk
        #: (those are only ever appended).  Keys the per-part caches.
        self._chunk_keys: List[str] = []
        #: Guards every generation-keyed derived cache below.  Mutation
        #: (ingest, seal, commit, compact) is single-writer by contract,
        #: but the caches are populated lazily on *read* paths, which
        #: may race each other from reader threads on a quiescent
        #: store; the lock makes each cache publish atomic.  Builds
        #: stay outside the lock — only the store of the finished value
        #: is guarded.
        self._cache_lock = threading.Lock()
        #: Guards the row layout itself: the chunk list, the tail
        #: buffers, and the per-domain aggregate columns.  Writers hold
        #: it for their *in-memory* critical sections only — segment IO
        #: (spill writes, mmap) stays outside (REP304) — and readers
        #: that need a multi-step view of one committed generation wrap
        #: their reads in :meth:`read_transaction`.  Re-entrant so a
        #: reader inside a transaction can call any query method.
        #: Ordering: ``_rows_lock`` before ``_cache_lock``, never the
        #: reverse (REP302).
        self._rows_lock = threading.RLock()
        #: Per-part mergeable row digests (recomputable from rows).
        self._part_digest_cache: Dict[str, int] = {}
        #: Per-part :func:`_domain_index`, built on a part's first
        #: per-domain query and dropped when compaction retires it.
        self._part_csr_cache: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        self._tail_domain = _IntColumn(self._CHUNK)
        self._tail_time = _IntColumn(self._CHUNK)
        self._tail_count = _IntColumn(self._CHUNK)
        self._n_rows = 0
        #: Bumped on every mutation; keys every derived cache below.
        self._generation = 0
        #: (generation, tail snapshot, its index): the live tail's part
        #: for per-domain queries, rebuilt once per generation.
        self._tail_csr_cache: Optional[
            Tuple[
                int,
                Tuple[np.ndarray, np.ndarray, np.ndarray],
                Tuple[np.ndarray, np.ndarray],
            ]
        ] = None
        self._agg_cache: Dict[Any, Tuple[int, Any]] = {}
        #: (domains packed, their :func:`pack_names` bytes): the domain
        #: table only grows, so each commit packs only the new names.
        self._packed_names_cache: Tuple[int, bytes] = (0, b"")
        self.deduplicate = deduplicate
        self._recent_keys: "OrderedDict[tuple, None]" = OrderedDict()
        self.duplicates_suppressed = 0
        #: Durable segment store when opened with ``spill_dir=``.
        self._spill: Optional[SpillStore] = None
        #: Committed segments at/above this count trigger auto-
        #: compaction inside :meth:`spill_commit` (0 = never).
        self._spill_compact_threshold = spill_compact_threshold
        if spill_dir is not None:
            self._spill = SpillStore.open(
                spill_dir,
                faults=spill_faults,
                paranoid=spill_paranoid,
                read_only=spill_read_only,
            )
            self._restore_from_spill(paranoid=spill_paranoid)

    # -- ingestion --------------------------------------------------------

    def admit_many(
        self,
        sensor_ids: Sequence[str],
        qnames: Sequence[str],
        rcodes: np.ndarray,
        rtypes: np.ndarray,
        timestamps: np.ndarray,
        counts: np.ndarray,
    ) -> np.ndarray:
        """Admission control for NXDomains given as observation-key columns.

        Row ``i`` stands for the key ``(sensor_ids[i], qnames[i],
        rcodes[i], rtypes[i], timestamps[i], counts[i])`` (a
        :attr:`DnsObservation.observation_key`), in arrival order.
        Returns the mask of rows that land.  With ``deduplicate`` on, a
        redelivery whose key is still inside the sliding window is
        suppressed and counted in ``duplicates_suppressed`` — the
        idempotence that makes at-least-once channel delivery and
        dead-letter replay safe.  The window and the counter end up
        exactly as after admitting the rows one at a time, whatever
        the batch cuts.

        The window always holds the keys of the last ``DEDUP_WINDOW``
        admissions, so a row is suppressed iff its key's latest
        admission is among them.  Only rows whose key was seen before
        (in the window or earlier in the batch) can be suppressed, so
        only those are walked in order; every other row is admitted.
        """
        count = len(timestamps)
        admitted = np.ones(count, dtype=bool)
        if not self.deduplicate or count == 0:
            return admitted
        window = list(self._recent_keys)
        held = len(window)
        columns = [list(sensor_ids), list(qnames)] + [
            np.asarray(column).tolist()
            for column in (rcodes, rtypes, timestamps, counts)
        ]
        matrix = np.empty((held + count, len(columns)), dtype=np.int64)
        for position, (past, batch) in enumerate(
            zip(zip(*window) if window else [()] * len(columns), columns)
        ):
            values = list(past) + batch
            if position < 2:
                # Strings become dense codes (equal text, equal code).
                codes = dict.fromkeys(values)
                for code, text in enumerate(codes):
                    codes[text] = code
                values = list(map(codes.__getitem__, values))
            matrix[:, position] = values
        previous = _previous_occurrence(matrix)
        fresh = previous[held:] < 0
        candidates = np.flatnonzero(~fresh) + held
        if len(candidates):
            # Rank of an admission = admissions before it: window keys
            # are admissions 0..held-1, and a batch row is preceded by
            # the fresh rows before it plus the candidates admitted so
            # far.
            fresh_before = (np.cumsum(fresh) - fresh).tolist()
            latest: Dict[int, int] = {}  # suppressed row -> latest admission
            passed: List[int] = []  # admitted candidates, in order
            suppressed: List[int] = []

            def rank(position: int) -> int:
                if position < held:
                    return position
                return (
                    held
                    + fresh_before[position - held]
                    + bisect.bisect_left(passed, position)
                )

            for position, prior in zip(
                candidates.tolist(), previous[candidates].tolist()
            ):
                source = latest.get(prior, prior)
                if rank(source) >= rank(position) - self.DEDUP_WINDOW:
                    suppressed.append(position - held)
                    latest[position] = source
                else:
                    passed.append(position)
            admitted[suppressed] = False
            # Suppression state, not a row column: no generation-keyed
            # cache reads the window or the counter.
            self.duplicates_suppressed += len(suppressed)  # repro: noqa[REP204]
        tail = np.flatnonzero(admitted)[-self.DEDUP_WINDOW :].tolist()
        keep = self.DEDUP_WINDOW - len(tail)
        recent: "OrderedDict[tuple, None]" = OrderedDict.fromkeys(
            window[max(held - keep, 0) :]
        )
        recent.update(
            dict.fromkeys(zip(*([column[i] for i in tail] for column in columns)))
        )
        self._recent_keys = recent  # repro: noqa[REP204]
        return admitted

    def add_rows(
        self,
        domain: DomainName,
        timestamps: Sequence[int],
        counts: Sequence[int],
    ) -> None:
        """Record a whole per-domain array of rows in one call.

        Interns ``domain`` once and lands the rows and aggregate
        updates as numpy operations: the trace generator's emission
        path, and a channel subscriber's one-row write
        (``add_rows(o.registered_domain, [o.timestamp], [o.count])``).
        A call that fails validation interns nothing.
        """
        self._append_batch(None, timestamps, counts, domain=domain)

    def intern_many(self, domains: Iterable[DomainName]) -> np.ndarray:
        """Bulk-intern domains, returning their ids as an int64 array.

        New domains are assigned ids in input order with sentinel
        aggregates; the first :meth:`add_batch` referencing them sets
        real first/last-seen values.  Already-known domains keep their
        ids, so the result is safe to feed straight to
        :meth:`add_batch` (with ``np.repeat`` for per-domain row runs).
        """
        ids = [self._intern(domain) for domain in domains]
        return np.asarray(ids, dtype=np.int64)

    def add_batch(
        self,
        domain_ids: np.ndarray,
        timestamps: np.ndarray,
        counts: np.ndarray,
    ) -> None:
        """Record many rows at once from pre-interned domain ids.

        Per-domain aggregates are updated with vectorized scatter
        reductions and the rows land in the chunked store without a
        per-row Python loop.  Ids must come from :meth:`intern_many`;
        counts must all be ≥ 1.
        """
        self._append_batch(domain_ids, timestamps, counts)

    def _append_batch(
        self,
        domain_ids: Optional[np.ndarray],
        timestamps: Sequence[int],
        counts: Sequence[int],
        domain: Optional[DomainName] = None,
    ) -> None:
        """Land rows and maintain the per-domain aggregates.

        Every row reaches the store through here.  With ``domain``
        set, ``domain_ids`` is ``None`` and every row belongs to
        ``domain``.
        """
        times = np.ascontiguousarray(timestamps, dtype=np.int64)
        cnts = np.ascontiguousarray(counts, dtype=np.int64)
        if domain_ids is None:
            ids = np.empty(len(times), dtype=np.int64)
        else:
            ids = np.ascontiguousarray(domain_ids, dtype=np.int64)
        if not (len(ids) == len(times) == len(cnts)):
            raise ConfigError("batch columns must have equal length")
        if len(ids) == 0:
            return
        if cnts.min() < 1:
            raise ConfigError("count must be at least 1")
        if domain_ids is not None:
            if ids.min() < 0 or ids.max() >= len(self._domains):
                raise ConfigError("batch references an unknown domain id")
        # Vectorized aggregate maintenance: scatter-min/max/sum into
        # the per-domain columns.  The whole in-memory landing is one
        # rows-lock critical section so a concurrent
        # :meth:`read_transaction` never sees the aggregates updated
        # but the rows missing (or vice versa), nor a domain interned
        # by ``add_rows`` with its sentinel aggregates.
        with self._rows_lock:
            if domain is not None:
                ids.fill(self._intern(domain))
            first = self._first_seen.view()
            last = self._last_seen.view()
            totals = self._totals.view()
            np.minimum.at(first, ids, times)
            np.maximum.at(last, ids, times)
            np.add.at(totals, ids, cnts)
            self._tail_domain.extend(ids)
            self._tail_time.extend(times)
            self._tail_count.extend(cnts)
            self._n_rows += len(ids)
            self._touch()
        self._maybe_seal()

    def _intern(self, domain: DomainName) -> int:
        domain_id = self._id_of.get(domain)
        if domain_id is None:
            with self._rows_lock:
                domain_id = len(self._domains)
                # Interning alone changes no row aggregates; every caller
                # appends rows next and bumps via _touch().
                self._id_of[domain] = domain_id  # repro: noqa[REP204]
                self._domains.append(domain)
                self._first_seen.append(_FIRST_SEEN_SENTINEL)
                self._last_seen.append(_LAST_SEEN_SENTINEL)
                self._totals.append(0)
                self._append_domain_keys(domain)
        return domain_id

    def _append_domain_keys(self, domain: DomainName) -> None:
        """Append ``domain``'s TLD id and name hash (rows lock held)."""
        tld = domain.tld
        tld_id = self._tld_of.get(tld)
        if tld_id is None:
            tld_id = len(self._tlds)
            # Per-domain keys change no row aggregate; every caller
            # lands rows or a whole table next and sets the generation.
            self._tld_of[tld] = tld_id  # repro: noqa[REP204]
            self._tlds.append(tld)
        self._tld_ids.append(tld_id)
        self._name_hash.append(_hash_name(str(domain)))

    def _adopt_domains(
        self,
        domains: List[DomainName],
        first_seen: np.ndarray,
        last_seen: np.ndarray,
        totals: np.ndarray,
    ) -> None:
        """Install a whole domain table with its aggregate columns.

        Runs before the store is shared; the rows lock keeps the
        lockset uniform (REP301).
        """
        with self._rows_lock:
            # Callers set the generation once the rows are in place.
            self._id_of = {  # repro: noqa[REP204]
                domain: i for i, domain in enumerate(domains)
            }
            self._domains = list(domains)
            self._first_seen.extend(np.asarray(first_seen, dtype=np.int64))
            self._last_seen.extend(np.asarray(last_seen, dtype=np.int64))
            self._totals.extend(np.asarray(totals, dtype=np.int64))
            for domain in domains:
                self._append_domain_keys(domain)

    def _touch(self) -> None:
        self._generation += 1

    def _maybe_seal(self) -> None:
        # Outside the rows lock on purpose: sealing a spill-backed
        # tail writes a segment to disk (REP304 — no blocking IO under
        # a held lock).  Content is unchanged by sealing, so a reader
        # between the append and the seal sees the same rows.
        if len(self._tail_domain) >= self._CHUNK:
            self._seal_tail()

    @property
    def generation(self) -> int:
        """Monotone mutation counter; keys every derived cache."""
        return self._generation

    @contextmanager
    def read_transaction(self) -> Iterator[int]:
        """Hold the row layout still for a multi-step read.

        Yields the generation the reads observe.  Everything read
        inside the block — :meth:`aggregate_snapshot`,
        :meth:`daily_series_for`, any cached aggregate — reflects that
        single committed generation even while another thread is
        mid-:meth:`add_batch` or mid-:meth:`spill_commit`: mutators
        publish their in-memory effects in one rows-lock critical
        section, so no torn state is observable from in here.  The
        lock is re-entrant; keep transactions short (they stall the
        writer, not just other readers).
        """
        with self._rows_lock:
            yield self._generation

    def _seal_tail(self) -> None:
        if len(self._tail_domain) == 0:
            return
        if self._spill is not None:
            # Spill the sealed rows to a checksummed on-disk segment
            # and keep only a memory map resident.  The segment is
            # durable immediately but joins a manifest generation only
            # at the next :meth:`spill_commit`.  Its mergeable row
            # digest is computed here, once, while the rows are hot —
            # commits then combine per-segment digests in O(#segments).
            # Sealing is single-writer by contract, so the tail views
            # are stable while the segment write and mmap run outside
            # the rows lock; only the in-memory publish (chunk append,
            # tail clear) is a critical section.
            digest = self._rows_digest(
                self._tail_domain.view(),
                self._tail_time.view(),
                self._tail_count.view(),
            )
            info = self._spill.append_segment(
                self._tail_domain.view(),
                self._tail_time.view(),
                self._tail_count.view(),
                digest=digest,
            )
            part = self._spill.mmap_segment(info)
            with self._rows_lock:
                # Sealing rewrites tail rows as an immutable chunk — the
                # row *content* is unchanged, so caches stay valid.
                self._chunks.append(part)  # repro: noqa[REP204]
                self._chunk_keys.append(info.name)
                self._tail_domain.clear()
                self._tail_time.clear()
                self._tail_count.clear()
            with self._cache_lock:
                self._part_digest_cache[info.name] = digest
        else:
            with self._rows_lock:
                if len(self._tail_domain) == 0:
                    return
                self._chunk_keys.append(f"mem-{len(self._chunks)}")
                self._chunks.append(  # repro: noqa[REP204]
                    (
                        self._tail_domain.view().copy(),
                        self._tail_time.view().copy(),
                        self._tail_count.view().copy(),
                    )
                )
                self._tail_domain.clear()
                self._tail_time.clear()
                self._tail_count.clear()

    def _tail_snapshot(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A copy of the live tail's rows (callers check it is non-empty).

        Copied (it is small — at most ``_CHUNK`` rows) so no snapshot
        aliases a buffer later appends overwrite.
        """
        return (
            self._tail_domain.view().copy(),
            self._tail_time.view().copy(),
            self._tail_count.view().copy(),
        )

    def _parts(self) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Immutable row parts in insertion order, tail snapshot last.

        Aggregate builders iterate these instead of forcing one
        concatenation, so a spill-backed store touches one mmap'd
        segment at a time.
        """
        parts = list(self._chunks)
        if len(self._tail_domain):
            parts.append(self._tail_snapshot())
        return parts

    def _columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every row as one transient, uncached concatenation.

        Only the reference scans need it; the store's own reads stream
        :meth:`_parts` or go through the per-part indexes.
        """
        with self._rows_lock:
            parts = self._parts()
        if not parts:
            empty = np.empty(0, dtype=np.int64)
            return (empty, empty.copy(), empty.copy())
        if len(parts) == 1:
            return parts[0]
        ids, times, counts = (np.concatenate(column) for column in zip(*parts))
        return ids, times, counts

    def _cached(self, key: Any, build: Callable[[], Any]) -> Any:
        """Generation-keyed aggregate cache (stale entries rebuilt)."""
        entry = self._agg_cache.get(key)
        if entry is not None and entry[0] == self._generation:
            return entry[1]
        value = build()
        with self._cache_lock:
            self._agg_cache[key] = (self._generation, value)
        return value

    def _indexed_parts(
        self,
    ) -> List[
        Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]
    ]:
        """Every row part with its :func:`_domain_index`, tail last.

        A sealed part is indexed once, on its first per-domain query,
        and the index is cached under the part's key until compaction
        retires it; the tail's index is cached against the generation.
        Indexes are built outside the locks and only published under
        ``_cache_lock``, and never for a part retired meanwhile.
        """
        with self._rows_lock:
            generation = self._generation
            parts = list(zip(self._chunk_keys, self._chunks))
            # An empty tail has no part, whatever is cached: sealing
            # empties it without a bump.
            tail = None
            if len(self._tail_domain):
                tail = self._tail_csr_cache
                if tail is None or tail[0] != generation:
                    tail = (generation, self._tail_snapshot(), None)
        indexed = []
        for key, part in parts:
            index = self._part_csr_cache.get(key)
            if index is None:
                index = _domain_index(part[0])
                with self._cache_lock:
                    if key in self._chunk_keys:
                        self._part_csr_cache[key] = index
            indexed.append((part, index))
        if tail is not None:
            if tail[2] is None:
                tail = (generation, tail[1], _domain_index(tail[1][0]))
                with self._cache_lock:
                    self._tail_csr_cache = tail
            indexed.append((tail[1], tail[2]))
        return indexed

    def _domain_rows(self, domain_id: int) -> Tuple[np.ndarray, np.ndarray]:
        """(times, counts) of one domain's rows, in insertion order.

        Each part contributes the rows its own index lists for the
        domain, gathered from that part directly, so a spill-backed
        store reads only those rows of each memory map.
        """
        times: List[np.ndarray] = []
        counts: List[np.ndarray] = []
        for (_, part_times, part_counts), (order, starts) in self._indexed_parts():
            if domain_id + 1 >= len(starts):
                continue
            rows = order[starts[domain_id] : starts[domain_id + 1]]
            if len(rows):
                times.append(part_times[rows])
                counts.append(part_counts[rows])
        if not times:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy()
        return np.concatenate(times), np.concatenate(counts)

    def _aggregate_columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Snapshot of the per-domain (first, last, totals) columns."""
        return (
            self._first_seen.view().copy(),
            self._last_seen.view().copy(),
            self._totals.view().copy(),
        )

    def aggregate_snapshot(
        self,
    ) -> Tuple[List[DomainName], np.ndarray, np.ndarray, np.ndarray]:
        """(domains, first_seen, last_seen, totals) in intern order.

        The columnar counterpart of looping :meth:`profile` over every
        domain: one copy of the aggregate columns instead of a Python
        object per domain.  Domains that were interned but never
        received a row carry their sentinels.  The store's writers
        intern only the domains whose rows they land —
        :meth:`add_rows`, and :meth:`intern_many` + :meth:`add_batch`
        in the ingest pipeline and :meth:`copy_rows_into` — so stores
        they build never contain such entries.
        """
        first_seen, last_seen, totals = self._aggregate_columns()
        return list(self._domains), first_seen, last_seen, totals

    # -- durable spill ------------------------------------------------------

    @property
    def spill(self) -> Optional[SpillStore]:
        """The backing segment store, or ``None`` for in-memory mode."""
        return self._spill

    def _rows_digest(
        self, ids: np.ndarray, times: np.ndarray, counts: np.ndarray
    ) -> int:
        """Mergeable 128-bit multiset digest of the given rows.

        Each row ``(name hash, time, count)`` is chained through
        :func:`_mix64` once per lane seed — a chain, so a name swap
        between two rows cannot cancel out.  Summing the high lane mod
        2**64 and the low lane exactly (as 32-bit halves) gives the sum
        of the rows' 128-bit values mod 2**128, which merges by addition.
        """
        if len(ids) == 0:
            return 0
        names = self._name_hash.view().view(np.uint64)
        keys = names[np.asarray(ids, dtype=np.int64)]
        times = np.asarray(times, dtype=np.int64).view(np.uint64)
        counts = np.asarray(counts, dtype=np.int64).view(np.uint64)
        high, low = (
            _mix64(_mix64(_mix64(keys ^ seed) + times) + counts)
            for seed in _LANE_SEEDS
        )
        low_sum = (int(np.sum(low >> np.uint64(32))) << 32) + int(
            np.sum(low & np.uint64(0xFFFFFFFF))
        )
        return ((int(np.sum(high)) << 64) + low_sum) & DIGEST_MASK

    def _build_digest(self) -> str:
        # Snapshot under the lock, hash outside it (REP30x): parts,
        # their keys, and the per-part cache are read in one atomic
        # step; parts without a cached value (new chunks, the tail)
        # are hashed lock-free, one at a time.
        with self._cache_lock:
            parts = self._parts()
            keys = list(self._chunk_keys)
            cached = dict(self._part_digest_cache)
        total = 0
        computed: Dict[str, int] = {}
        for index, part in enumerate(parts):
            key = keys[index] if index < len(keys) else None
            value = cached.get(key) if key is not None else None
            if value is None:
                value = self._rows_digest(*part)
                if key is not None:
                    computed[key] = value
            total += value
        if computed:
            with self._cache_lock:
                self._part_digest_cache.update(computed)
        return f"{total & DIGEST_MASK:032x}"

    def _restore_from_spill(self, paranoid: bool = False) -> None:
        """Rehydrate from the spill store's recovered generation.

        The domain table comes from the ``domains`` sidecar (name
        hashes are recomputed from it); the row parts stay on disk as
        memory maps.  Per-segment digests are adopted from the manifest
        (``paranoid=True`` recomputes each from its rows and rejects a
        mismatch), then the whole-store digest is verified against the
        committed ``store_digest``.  A mismatch raises
        :class:`CorruptArchiveError` rather than serving silently
        wrong data.
        """
        store = self._spill
        assert store is not None
        blob = store.read_sidecar("domains")
        if blob is not None:
            try:
                with np.load(_stdio.BytesIO(blob), allow_pickle=False) as payload:
                    domains = unpack_names(payload["domains"])
                    first_seen = np.asarray(payload["first_seen"], dtype=np.int64)
                    last_seen = np.asarray(payload["last_seen"], dtype=np.int64)
                    totals = np.asarray(payload["totals"], dtype=np.int64)
            except _UNLOADABLE_NPZ as error:
                # Its CRC verified, so only a foreign writer can have
                # produced bytes numpy cannot read as the table's .npz.
                raise CorruptArchiveError(
                    store.sidecar_path("domains"),
                    f"unreadable domain sidecar: {error}",
                ) from error
            if not (len(first_seen) == len(last_seen) == len(totals) == len(domains)):
                raise CorruptArchiveError(
                    store.directory, "domain sidecar column lengths differ"
                )
            self._adopt_domains(domains, first_seen, last_seen, totals)
        for info in store.segments():
            ids, times, counts = store.mmap_segment(info)
            if len(ids) and int(ids.max()) >= len(self._domains):
                raise CorruptArchiveError(
                    store.directory / "segments" / info.name,
                    "segment references a domain id beyond the sidecar table",
                )
            with self._rows_lock:
                self._chunks.append((ids, times, counts))
                self._chunk_keys.append(info.name)
                self._n_rows += len(ids)
            if paranoid and self._rows_digest(ids, times, counts) != info.digest:
                raise CorruptArchiveError(
                    store.directory / "segments" / info.name,
                    "segment row digest does not match manifest",
                )
            with self._cache_lock:
                self._part_digest_cache[info.name] = info.digest
        if self._n_rows:
            self._generation = 1
        expected = store.meta.get("store_digest")
        if expected is not None and self.fingerprint() != expected:
            raise CorruptArchiveError(
                store.directory,
                "recovered store digest does not match manifest",
            )

    def _domains_sidecar_bytes(self) -> bytes:
        """Serialize the domain table + aggregates for the sidecar.

        An uncompressed ``.npz``: every commit rewrites the whole table,
        and deflating it cost most of a small commit, as did packing
        every name again.  ``np.load`` reads compressed sidecars too,
        so older stores open unchanged.
        """
        first_seen, last_seen, totals = self._aggregate_columns()
        packed_count, packed = self._packed_names_cache
        if packed_count < len(self._domains):
            fresh = pack_names(self._domains[packed_count:]).tobytes()
            packed = packed + b"\x00" + fresh if packed_count else fresh
            self._packed_names_cache = (len(self._domains), packed)
        buffer = _stdio.BytesIO()
        np.savez(
            buffer,
            domains=np.frombuffer(packed, dtype=np.uint8),
            first_seen=first_seen,
            last_seen=last_seen,
            totals=totals,
        )
        return buffer.getvalue()

    def spill_commit(self, meta: Optional[Dict[str, Any]] = None) -> int:
        """Seal and commit the current contents as a new generation.

        Seals the tail into one last segment, writes the domain-table
        sidecar, and commits a manifest whose ``meta`` carries the
        caller's payload plus the mergeable store digest (verified on
        the next open).  The digest is combined from cached per-segment
        values, so the commit costs O(new rows), not O(store).  When
        ``spill_compact_threshold`` is set and the committed segment
        count has reached it, the store is compacted in the same call.
        Returns the (possibly superseding) committed generation.
        """
        if self._spill is None:
            raise ConfigError("store was not opened with spill_dir")
        self._seal_tail()
        self._spill.write_sidecar("domains", self._domains_sidecar_bytes())
        manifest_meta = dict(meta or {})
        manifest_meta["store_digest"] = self.fingerprint()
        manifest_meta["rows"] = int(self._n_rows)
        manifest_meta["domains"] = len(self._domains)
        generation = self._spill.commit(manifest_meta)
        threshold = self._spill_compact_threshold
        if threshold and len(self._spill.segments()) >= threshold:
            compacted = self.spill_compact()
            if compacted is not None:
                generation = compacted
        return generation

    def spill_compact(self, min_segments: int = 2) -> Optional[int]:
        """Compact the committed segments into one superseding one.

        Delegates to :meth:`SpillStore.compact` (crash-safe generation
        supersession), then re-chunks this store's resident memory
        maps onto the merged segment.  Row content and order are
        unchanged, so every aggregate cache and the fingerprint stay
        valid — which is also the post-compaction check: the merged
        segment's digest is recomputed from its rows and must equal
        the sum of its inputs' recorded digests.  Returns the new
        generation, or ``None`` when there was nothing to compact.
        """
        if self._spill is None:
            raise ConfigError("store was not opened with spill_dir")
        if len(self._tail_domain):
            raise ConfigError(
                "spill_commit before compacting: the tail is unsealed"
            )
        generation = self._spill.compact(min_segments=min_segments)
        if generation is None:
            return None
        chunks: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        names: List[str] = []
        for info in self._spill.segments():
            part = self._spill.mmap_segment(info)
            if info.name not in self._part_digest_cache:
                value = self._rows_digest(*part)
                if value != info.digest:
                    raise CorruptArchiveError(
                        self._spill.directory / "segments" / info.name,
                        "merged segment rows do not reproduce the "
                        "combined digest of its inputs",
                    )
                with self._cache_lock:
                    self._part_digest_cache[info.name] = value
            chunks.append(part)
            names.append(info.name)
        # Content-preserving re-chunking of the same rows in the same
        # order — a bump here would wrongly invalidate every cache.
        # Published in one rows-lock critical section (the mmaps were
        # built above, outside the lock) so readers never see the
        # chunk list and the key list disagree.  The retired
        # segments' digests and indexes go with them.
        with self._rows_lock:
            self._chunks = chunks  # repro: noqa[REP204]
            self._chunk_keys = names
        live = set(names)
        with self._cache_lock:
            self._part_digest_cache = {
                key: value
                for key, value in self._part_digest_cache.items()
                if key in live
            }
            self._part_csr_cache = {
                key: value
                for key, value in self._part_csr_cache.items()
                if key in live
            }
        return generation

    def copy_rows_into(self, target: "PassiveDnsDatabase") -> None:
        """Replay every stored row into ``target``, part by part.

        The batched counterpart of ingesting :meth:`iter_observations`
        into ``target``: domains are bulk-interned once and
        each immutable part lands via :meth:`add_batch`, so migrating
        a store into (or out of) a spill-backed one never loops rows
        in Python.  Insertion order is preserved, so the target's
        :meth:`fingerprint` matches this store's.
        """
        if not self._domains:
            return
        id_map = target.intern_many(self._domains)
        for ids, times, counts in self._parts():
            target.add_batch(id_map[ids], times, counts)

    # -- replay / integrity ------------------------------------------------

    def iter_observations(self, sensor_id: str = "replay") -> Iterator[DnsObservation]:
        """Re-emit every stored row as an NXDOMAIN observation.

        Rows come back in insertion order, so replaying them through a
        fault-free pipeline reproduces the store exactly — the entry
        point for the fault-sweep and checkpoint/resume machinery.
        """
        domains = self._domains
        for ids, times, counts in self._parts():
            for domain_id, timestamp, count in zip(
                ids.tolist(), times.tolist(), counts.tolist()
            ):
                yield DnsObservation(
                    qname=domains[domain_id],
                    rcode=RCode.NXDOMAIN,
                    timestamp=timestamp,
                    sensor_id=sensor_id,
                    count=count,
                )

    def fingerprint(self) -> str:
        """Order-insensitive 128-bit digest of the store's rows (32 hex).

        Two stores holding the same observations — regardless of
        arrival order (retries and dead-letter replay reorder rows) —
        fingerprint identically.  The value is the mod-2**128 sum of
        per-part :meth:`_rows_digest` values; on a spill-backed store
        the per-segment values are cached from seal, commit, compaction
        and open, so only parts without one are hashed.  It guards
        identity against bugs, not adversaries: CRC32 guards the bytes
        on disk.
        """
        return self._cached(("fingerprint",), self._build_digest)

    #: Former name of :meth:`fingerprint`, kept because the benchmark
    #: harness's per-layer table still wraps it by name.
    digest = fingerprint

    def recent_keys(self) -> List[tuple]:
        """The dedup window's keys, oldest first (checkpoint payload)."""
        return list(self._recent_keys)

    def restore_recent_keys(self, keys: Iterable[tuple]) -> None:
        """Reload a dedup window saved by :meth:`recent_keys`.

        The restored window is trimmed to ``DEDUP_WINDOW`` newest keys
        so a checkpoint written under a larger window setting cannot
        silently over-retain suppression state.
        """
        restored: "OrderedDict[tuple, None]" = OrderedDict(
            (tuple(k), None) for k in keys
        )
        while len(restored) > self.DEDUP_WINDOW:
            restored.popitem(last=False)
        # The dedup window is suppression state consulted per-append,
        # not a row column; no generation-keyed cache reads it.
        self._recent_keys = restored  # repro: noqa[REP204]

    # -- global aggregates ---------------------------------------------------

    def total_responses(self) -> int:
        """Total NXDomain responses (the 1.07 T analogue)."""
        return int(self._totals.view().sum())

    def unique_domains(self) -> int:
        """Distinct NXDomains (the 146 B analogue)."""
        return len(self._domains)

    def row_count(self) -> int:
        return self._n_rows

    def monthly_response_series(self) -> Dict[str, int]:
        """NXDomain responses per calendar month (Figure 3's series)."""
        return dict(self._cached(("monthly",), self._build_monthly_series))

    def _build_monthly_series(self) -> Dict[str, int]:
        series: Dict[str, int] = {}
        # Bucket by month via 30.44-day bins would drift; instead map
        # each distinct day to its month key once (cheap: few thousand
        # distinct days over the study window).  Per-day sums stream
        # over the row parts so a spill-backed store never
        # concatenates; day-keyed sums commute across any part layout,
        # and the final ascending-day walk reproduces the single-pass
        # insertion order exactly.
        day_sums: Dict[int, int] = {}
        with self._cache_lock:
            parts = self._parts()
        for _, times, counts in parts:
            unique_days, inverse = np.unique(
                times // SECONDS_PER_DAY, return_inverse=True
            )
            sums = np.zeros(len(unique_days), dtype=np.int64)
            np.add.at(sums, inverse, counts)
            for day, total in zip(unique_days.tolist(), sums.tolist()):
                day_sums[day] = day_sums.get(day, 0) + total
        for day in sorted(day_sums):
            month = month_key(day * SECONDS_PER_DAY)
            series[month] = series.get(month, 0) + day_sums[day]
        return series

    def tld_histogram(self) -> Dict[str, Tuple[int, int]]:
        """Per-TLD (unique domains, total queries) — Figure 4's axes."""
        return dict(self._cached(("tld",), self._build_tld_histogram))

    def _build_tld_histogram(self) -> Dict[str, Tuple[int, int]]:
        if not self._domains:
            return {}
        # Snapshot the domain columns under the lock, reduce outside
        # it.  This histogram reduces the per-domain columns, not the
        # row parts.
        with self._cache_lock:
            tld_ids = self._tld_ids.view().copy()
            totals = self._totals.view().copy()
            tlds = list(self._tlds)
        domains_per = np.bincount(tld_ids, minlength=len(tlds)).astype(np.int64)
        queries_per = np.zeros(len(tlds), dtype=np.int64)
        np.add.at(queries_per, tld_ids, totals)
        return {
            tld: (int(domains_per[tld_id]), int(queries_per[tld_id]))
            for tld_id, tld in enumerate(tlds)
        }

    def top_tlds(self, n: int = 20) -> List[Tuple[str, int, int]]:
        """Top TLDs by unique NXDomains: (tld, domains, queries)."""
        rows = [
            (tld, domains, queries)
            for tld, (domains, queries) in self.tld_histogram().items()
        ]
        rows.sort(key=lambda r: r[1], reverse=True)
        return rows[:n]

    # -- per-domain views ---------------------------------------------------------

    def profile(self, domain: DomainName) -> Optional[DomainProfile]:
        domain_id = self._id_of.get(domain.registered_domain())
        if domain_id is None:
            return None
        return DomainProfile(
            domain=self._domains[domain_id],
            first_seen=self._first_seen[domain_id],
            last_seen=self._last_seen[domain_id],
            total_queries=self._totals[domain_id],
        )

    def profiles(self) -> Iterable[DomainProfile]:
        """All per-domain aggregates (generator; the store can be big)."""
        for domain_id, domain in enumerate(self._domains):
            yield DomainProfile(
                domain=domain,
                first_seen=self._first_seen[domain_id],
                last_seen=self._last_seen[domain_id],
                total_queries=self._totals[domain_id],
            )

    def all_domains(self) -> List[DomainName]:
        return list(self._domains)

    def daily_series_for(
        self, domain: DomainName, start: int, end: int
    ) -> np.ndarray:
        """Query counts per day for one domain over [start, end).

        Served from the per-part domain→rows indexes: each immutable
        part (spill segment or sealed chunk) is indexed once and the
        live tail once per generation, and only the target domain's
        rows are gathered from each part, never the full columns.
        """
        domain_id = self._id_of.get(domain.registered_domain())
        n_days = max((end - start) // SECONDS_PER_DAY, 0)
        series = np.zeros(n_days, dtype=np.int64)
        if domain_id is None or n_days == 0:
            return series
        row_times, row_counts = self._domain_rows(domain_id)
        # Whole days only: a trailing partial day has no bin.
        mask = (row_times >= start) & (row_times < start + n_days * SECONDS_PER_DAY)
        offsets = (row_times[mask] - start) // SECONDS_PER_DAY
        np.add.at(series, offsets, row_counts[mask])
        return series

    def high_traffic_domains(
        self, min_monthly_queries: int
    ) -> List[DomainProfile]:
        """Domains averaging at least ``min_monthly_queries``/month.

        The paper's §3.3 selection threshold is 10,000/month (scaled
        in our workload).  Computed as one vectorized pass over the
        aggregate columns.
        """
        if not self._domains:
            return []
        lifespans = (
            self._last_seen.view() - self._first_seen.view()
        ) // SECONDS_PER_DAY
        months = np.maximum(lifespans, 1) / 30.0
        rates = self._totals.view() / months
        return [
            DomainProfile(
                domain=self._domains[domain_id],
                first_seen=self._first_seen[domain_id],
                last_seen=self._last_seen[domain_id],
                total_queries=self._totals[domain_id],
            )
            for domain_id in np.nonzero(rates >= min_monthly_queries)[0]
        ]

    # -- lifespan analyses (Figures 5 and 6) -----------------------------------------

    def lifespan_decay(self, max_days: int = 60) -> Tuple[np.ndarray, np.ndarray]:
        """(#domains, #queries) per day-offset since first NX observation.

        Day offset d counts domains that received at least one query on
        day d of their NX lifetime, and the total queries they received
        that day — the two series of Figure 5.
        """
        domains_series, queries_series = self._cached(
            ("lifespan", max_days), lambda: self._build_lifespan_decay(max_days)
        )
        return domains_series.copy(), queries_series.copy()

    def _build_lifespan_decay(
        self, max_days: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        domains_series = np.zeros(max_days, dtype=np.int64)
        queries_series = np.zeros(max_days, dtype=np.int64)
        with self._cache_lock:
            first_seen = self._first_seen.view().copy()
            n_domains = len(self._domains)
            parts = self._parts()
        # Stream the row parts: query sums accumulate per part and add
        # up in any cut; distinct domains per offset need unique
        # (offset, domain) pairs, so per-part uniques are pooled and
        # deduplicated globally (the pool holds unique pairs only, far
        # fewer than rows — and a global unique of per-part uniques
        # equals the unique of the raw rows, whatever the part cut).
        pair_pool: List[np.ndarray] = []
        for ids, times, counts in parts:
            offsets = (times - first_seen[ids]) // SECONDS_PER_DAY
            in_window = (offsets >= 0) & (offsets < max_days)
            np.add.at(queries_series, offsets[in_window], counts[in_window])
            pair_pool.append(
                np.unique(offsets[in_window] * np.int64(n_domains) + ids[in_window])
            )
        if pair_pool:
            unique_pairs = np.unique(np.concatenate(pair_pool))
            pair_offsets = unique_pairs // n_domains
            np.add.at(domains_series, pair_offsets, 1)
        return domains_series, queries_series

    def timeline_around(
        self,
        domain: DomainName,
        pivot: int,
        days_before: int,
        days_after: int,
    ) -> np.ndarray:
        """Daily query counts in [pivot - before, pivot + after) days.

        Index 0 is ``days_before`` days before the pivot; the pivot
        falls at index ``days_before``.  Figure 6 averages this over a
        domain sample with the pivot at expiry.
        """
        start = pivot - days_before * SECONDS_PER_DAY
        end = pivot + days_after * SECONDS_PER_DAY
        return self.daily_series_for(domain, start, end)
