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
  without a per-row Python loop.  The store does not deduplicate:
  suppressing an at-least-once feed's redeliveries is the ingest
  pipeline's job (:mod:`repro.passivedns.pipeline`);
- **aggregates** (monthly series, TLD histogram, lifespan decay, the
  fingerprint) are cached against a generation counter that every
  mutation bumps, so repeated analysis passes over a quiescent store
  cost one computation;
- **identity**: :meth:`fingerprint` sums per-row 128-bit splitmix64
  mixes in ``uint64`` numpy — no sort, no per-row Python — so it
  ignores row order and each segment's digest is computed once;
- **per-domain queries** go through one (domain, time) index per
  immutable row part (a spill segment or a sealed in-memory chunk):
  the part's times sorted by domain then time, per-domain start
  offsets and a running sum of counts.  It is built lazily on first
  use and kept until compaction retires the part; the live tail's
  index is cached against the generation.  :meth:`daily_series_for`
  binary-searches the day edges in each part's slice for the domain
  and differences the running sums, so a read costs days, not rows,
  and a writer wave costs an index of its own rows, not a rebuild
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

import hashlib
import io as _stdio
import itertools
import re
import threading
import zipfile
import zlib
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
from repro.dns.name import MAX_NAME_LENGTH, DomainName
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


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct values, ascending: one sort and an adjacent mask.

    ``np.unique`` would do, but numpy 2 takes a hash path for it that
    costs several sorts of the same array.
    """
    ordered = np.sort(values)
    keep = np.empty(len(ordered), dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def _day_sums(days: np.ndarray, counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct ``days``, ascending, and the ``counts`` summed per day."""
    distinct = _sorted_unique(days)
    sums = np.zeros(len(distinct), dtype=np.int64)
    np.add.at(sums, np.searchsorted(distinct, days), counts)
    return distinct, sums


def _blocks(
    parts: Iterable[Tuple[np.ndarray, np.ndarray, np.ndarray]], size: int
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Every part's (ids, times, counts), ``size`` rows at a time.

    The blocks are views, so a reduce over them holds block-sized
    temporaries whatever the size of a part (a compacted segment is
    the whole store).
    """
    for ids, times, counts in parts:
        for lo in range(0, len(ids), size):
            hi = lo + size
            yield ids[lo:hi], times[lo:hi], counts[lo:hi]


def _hash_names(names: Iterable[Any]) -> np.ndarray:
    """64-bit identities of domain names (signed, for an int64 column).

    Each is the little-endian 8-byte BLAKE2b digest of the name's text.
    """
    digests = b"".join(
        hashlib.blake2b(str(name).encode("utf-8"), digest_size=8).digest()
        for name in names
    )
    return np.frombuffer(digests, dtype="<i8").astype(np.int64, copy=False)


def pack_names(names: Iterable[Any]) -> np.ndarray:
    """Pickle-free on-disk domain table: ``\\x00``-joined UTF-8 bytes."""
    joined = "\x00".join(str(name) for name in names).encode("utf-8")
    return np.frombuffer(joined, dtype=np.uint8)


#: One lowercase label of :data:`repro.dns.name._LABEL_RE`'s grammar
#: (1–63 characters, no leading or trailing hyphen, ``_`` only first).
_LABEL = r"[a-z0-9_](?:[a-z0-9-]{0,61}[a-z0-9])?"
#: Names of that grammar: labels joined by dots within a name and by
#: ``\x00`` between names.
_TABLE_RE = re.compile(rf"(?:{_LABEL}[.\x00])*{_LABEL}")
#: Names per :data:`_TABLE_RE` match.  The engine keeps backtracking
#: state for every repetition (several hundred bytes a name), so a
#: table is matched a bounded run of names at a time.
_NAMES_PER_MATCH = 1024


def unpack_names(buffer: np.ndarray) -> List[DomainName]:
    """Inverse of :func:`pack_names`, validating the table in bulk.

    :data:`_TABLE_RE` is fullmatched over the ``\x00``-joined text
    (:data:`_NAMES_PER_MATCH` names per match) and one ``max`` over the
    separator offsets bounds every name at ``MAX_NAME_LENGTH``
    characters; a table that passes both is built straight from its
    label tuples.  Any other table is parsed name by name with
    :class:`DomainName`, which accepts what the grammar leaves out
    (the root ``"."``, upper case, surrounding whitespace) and
    otherwise raises the error a one-at-a-time parse raises, so every
    table decodes to the same names, or the same error, either way.
    """
    raw = np.asarray(buffer, dtype=np.uint8)
    text = raw.tobytes().decode("utf-8")
    if not text:
        return []
    names = text.split("\x00")
    # The grammar is ASCII, so where it matches, bytes are characters.
    if len(text) == len(raw):
        separators = np.flatnonzero(raw == 0)
        lengths = np.diff(separators, prepend=-1, append=len(raw)) - 1
        cuts = separators[_NAMES_PER_MATCH - 1 :: _NAMES_PER_MATCH].tolist()
        bounds = [-1, *cuts, len(text)]
        fullmatch = _TABLE_RE.fullmatch
        if int(lengths.max()) <= MAX_NAME_LENGTH and all(
            fullmatch(text, lo + 1, hi) for lo, hi in zip(bounds, bounds[1:])
        ):
            from_valid = DomainName._from_valid
            return [from_valid(tuple(name.split("."))) for name in names]
    return [DomainName(name) for name in names]


def _intern_keys(
    table: Dict[Any, int], keys: Sequence[Any], start: int
) -> Tuple[np.ndarray, List[int]]:
    """Ids of ``keys`` in ``table``, interning the new ones in bulk.

    ``start`` is the first free id: every id in ``table`` is below it.
    Returns the ids and the positions of the new keys' first copies.
    A new key gets the next free id in order of first appearance, and
    ``table`` gains it.  Each key is hashed once, plus once per new key:
    the lookup pass inserts a new key under the placeholder ``start +
    position``, so its later copies find that, and the placeholders
    are then swapped for the ids.  No placeholder or new id is below
    ``start``, so a reader of ``table`` meanwhile sees a new key as one
    whose columns have not landed yet.
    """
    try:
        ids = np.fromiter(
            map(table.setdefault, keys, itertools.count(start)),
            dtype=np.int64,
            count=len(keys),
        )
    except BaseException:
        for key in [key for key, value in table.items() if value >= start]:
            del table[key]
        raise
    missed = np.flatnonzero(ids >= start)
    if not len(missed):
        return ids, []
    placeholders = ids[missed] - start
    # A key's first copy holds its own position as placeholder.
    firsts = missed[placeholders == missed]
    fresh = np.empty(len(keys), dtype=np.int64)
    fresh[firsts] = np.arange(start, start + len(firsts))
    ids[missed] = fresh[placeholders]
    positions = firsts.tolist()
    table.update(zip(map(keys.__getitem__, positions), itertools.count(start)))
    return ids, positions


#: Largest combined sort key :func:`_domain_index` may form in ``int64``.
_INT64_MAX = int(np.iinfo(np.int64).max)

#: One row part's per-domain time index: (starts, times, running).
_DomainIndex = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _domain_index(
    ids: np.ndarray, times: np.ndarray, counts: np.ndarray
) -> _DomainIndex:
    """Per-domain time index of one row part: (starts, times, running).

    The part's rows sorted by (domain, time): ``times[starts[d]:
    starts[d + 1]]`` are domain ``d``'s timestamps in ascending order,
    and ``running`` is the running sum of their counts in that order
    with a leading 0, so the queries of the rows ``lo:hi`` sum to
    ``running[hi] - running[lo]``.  ``starts`` covers ids up to the
    part's largest, so a domain interned after the part was built has
    no slice in it.  Which of two equal (domain, time) rows sorts first
    is unspecified: integer bin sums do not depend on it.

    At most two row-length temporaries are alive at once (the sort key
    and its ``argsort``), and only one beside the result's columns
    (the order, while it gathers them).
    """
    n = len(ids)
    if n == 0:
        zero = np.zeros(1, dtype=np.int64)
        return zero, np.empty(0, dtype=np.int64), zero.copy()
    max_id = int(ids.max())
    starts = np.zeros(max_id + 2, dtype=np.int64)
    np.cumsum(np.bincount(ids), out=starts[1:])
    t_min = int(times.min())
    width = int(times.max()) - t_min + 1
    if (max_id + 1) * width <= _INT64_MAX:
        # One combined key ``id * width + (t - t_min)``: its default
        # argsort is several times faster than a two-key lexsort.
        key = times - t_min
        key += ids * width
        order = np.argsort(key)
        del key
    else:
        order = np.lexsort((times, ids))
    sorted_times = np.take(times, order)
    running = np.empty(n + 1, dtype=np.int64)
    running[0] = 0
    # ``mode="clip"``: with the default ``"raise"``, ``out`` is buffered
    # through one more row-length copy.
    np.take(counts, order, out=running[1:], mode="clip")
    del order
    np.cumsum(running[1:], out=running[1:])
    return starts, sorted_times, running


class _IntColumn:
    """Amortized-append ``int64`` column (capacity-doubling array).

    The growable building block of the store: :meth:`extend` lands
    whole arrays with one copy, O(1) amortized per value, and
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

    def __init__(
        self,
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
        #: Per-domain 64-bit name hash (:func:`_hash_names`) for the row
        #: digest; derived, and filled only when a digest first needs it
        #: (:meth:`_name_hashes`), so a reopen that only reads hashes
        #: nothing.  It may be shorter than ``_domains``.
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
        self._part_index_cache: Dict[str, _DomainIndex] = {}
        self._tail_domain = _IntColumn(self._CHUNK)
        self._tail_time = _IntColumn(self._CHUNK)
        self._tail_count = _IntColumn(self._CHUNK)
        self._n_rows = 0
        #: Bumped on every mutation; keys every derived cache below.
        self._generation = 0
        #: (generation, index of the live tail's rows) for per-domain
        #: queries, rebuilt once per generation.
        self._tail_index_cache: Optional[Tuple[int, _DomainIndex]] = None
        self._agg_cache: Dict[Any, Tuple[int, Any]] = {}
        #: (domains packed, their :func:`pack_names` bytes): the domain
        #: table only grows, so each commit packs only the new names.
        self._packed_names_cache: Tuple[int, bytes] = (0, b"")
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

        New domains are assigned ids in order of first appearance with
        sentinel aggregates; the first :meth:`add_batch` referencing
        them sets real first/last-seen values.  Already-known domains
        keep their ids, so the result is safe to feed straight to
        :meth:`add_batch` (with ``np.repeat`` for per-domain row runs).
        One lookup pass hashes each name once (:func:`_intern_keys`),
        and the new names' columns grow by one ``extend`` each.
        """
        names = list(domains)
        with self._rows_lock:
            ids, fresh = _intern_keys(self._id_of, names, len(self._domains))
            if fresh:
                self._append_domains([names[position] for position in fresh])
        return ids

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
                self._append_domains([domain])
        return domain_id

    def _append_domains(self, domains: List[DomainName]) -> None:
        """Append new domains with sentinel aggregates.

        Their ``_id_of`` entries are the caller's: the next ids, in
        order.
        """
        count = len(domains)
        with self._rows_lock:
            # Interning alone changes no row aggregates; every caller
            # appends rows next and bumps via _touch().
            self._domains.extend(domains)  # repro: noqa[REP204]
            self._first_seen.extend(np.full(count, _FIRST_SEEN_SENTINEL))
            self._last_seen.extend(np.full(count, _LAST_SEEN_SENTINEL))
            self._totals.extend(np.zeros(count, dtype=np.int64))
            self._append_domain_keys(domains)

    def _append_domain_keys(self, domains: List[DomainName]) -> None:
        """Append the domains' TLD ids (rows lock held).

        The one domain-key path: interning and reopening both land
        their names' keys here, one ``extend`` per column.  Name hashes
        are not keys: :meth:`_name_hashes` fills them on demand.
        """
        tlds = [domain.tld for domain in domains]
        tld_ids, fresh = _intern_keys(self._tld_of, tlds, len(self._tlds))
        # Per-domain keys change no row aggregate; every caller lands
        # rows or a whole table next and sets the generation.
        new_tlds = [tlds[position] for position in fresh]
        self._tlds.extend(new_tlds)  # repro: noqa[REP204]
        self._tld_ids.extend(tld_ids)

    def _name_hashes(self) -> np.ndarray:
        """Every interned name's :func:`_hash_names` value, in id order.

        Hashes the names interned since the last call, so each name is
        hashed once, when a row digest (seal, commit, paranoid open,
        compaction check, an uncached part's fingerprint) first needs
        it.  The returned view stays valid: later names only append.
        """
        with self._rows_lock:
            hashed = len(self._name_hash)
            if hashed < len(self._domains):
                # A derived column catching up with the domain table;
                # no row or aggregate changes.
                self._name_hash.extend(  # repro: noqa[REP204]
                    _hash_names(self._domains[hashed:])
                )
            return self._name_hash.view()

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
            self._id_of = dict(  # repro: noqa[REP204]
                zip(domains, range(len(domains)))
            )
            self._domains = list(domains)
            self._first_seen.extend(np.asarray(first_seen, dtype=np.int64))
            self._last_seen.extend(np.asarray(last_seen, dtype=np.int64))
            self._totals.extend(np.asarray(totals, dtype=np.int64))
            self._append_domain_keys(domains)

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

    def _indexed_parts(self) -> List[_DomainIndex]:
        """The :func:`_domain_index` of every row part, tail last.

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
            tail_index = tail_rows = None
            if len(self._tail_domain):
                cached = self._tail_index_cache
                if cached is not None and cached[0] == generation:
                    tail_index = cached[1]
                else:
                    tail_rows = self._tail_snapshot()
        indexes = []
        for key, part in parts:
            index = self._part_index_cache.get(key)
            if index is None:
                index = _domain_index(*part)
                with self._cache_lock:
                    if key in self._chunk_keys:
                        self._part_index_cache[key] = index
            indexes.append(index)
        if tail_rows is not None:
            tail_index = _domain_index(*tail_rows)
            with self._cache_lock:
                self._tail_index_cache = (generation, tail_index)
        if tail_index is not None:
            indexes.append(tail_index)
        return indexes

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
        The rows are hashed ``_CHUNK`` at a time, so hashing a merged
        segment holds a few blocks of temporaries, never a row-length
        one; the sums merge across blocks exactly as across parts.
        """
        names = self._name_hashes().view(np.uint64)
        high_sum = low_sum = 0
        for block_ids, block_times, block_counts in _blocks(
            [(ids, times, counts)], self._CHUNK
        ):
            keys = names[np.asarray(block_ids, dtype=np.int64)]
            block_times = np.asarray(block_times, dtype=np.int64).view(np.uint64)
            block_counts = np.asarray(block_counts, dtype=np.int64).view(np.uint64)
            high, low = (
                _mix64(_mix64(_mix64(keys ^ seed) + block_times) + block_counts)
                for seed in _LANE_SEEDS
            )
            high_sum += int(np.sum(high))
            low_sum += (int(np.sum(low >> np.uint64(32))) << 32) + int(
                np.sum(low & np.uint64(0xFFFFFFFF))
            )
        return ((high_sum << 64) + low_sum) & DIGEST_MASK

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
        hashes are computed from it only when a digest needs them); the
        row parts stay on disk as memory maps.  Per-segment digests are
        adopted from the manifest (``paranoid=True`` recomputes each
        from its rows and rejects a mismatch), then the whole-store
        digest is verified against the committed ``store_digest``.  A
        mismatch raises :class:`CorruptArchiveError` rather than
        serving silently wrong data.
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
        if len(self._spill.segments()) >= min_segments:
            # The merge retires every committed segment: drop their
            # indexes before it streams the rows, not after, so the
            # two are never resident together.  A reader meanwhile
            # rebuilds what it needs.
            with self._cache_lock:
                self._part_index_cache = {}
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
            self._part_index_cache = {
                key: value
                for key, value in self._part_index_cache.items()
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
        # Bucket by month via 30.44-day bins would drift; instead map
        # each distinct day to its month key once (cheap: few thousand
        # distinct days over the study window).  Per-day sums stream
        # over the row parts a block at a time so a spill-backed store
        # never concatenates: each block reduces to its sorted distinct
        # days and their sums, and the pooled sums reduce the same way,
        # so any part cut gives the same days and totals.  Nothing is
        # sized by the timestamp span, which ingest does not bound.
        with self._cache_lock:
            parts = self._parts()
        pooled = [
            _day_sums(times // SECONDS_PER_DAY, counts)
            for _, times, counts in _blocks(parts, self._CHUNK)
        ]
        series: Dict[str, int] = {}
        if not pooled:
            return series
        days, sums = _day_sums(*(np.concatenate(column) for column in zip(*pooled)))
        for day, total in zip(days.tolist(), sums.tolist()):
            month = month_key(day * SECONDS_PER_DAY)
            series[month] = series.get(month, 0) + total
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

        Served from the per-part (domain, time) indexes: each immutable
        part (spill segment or sealed chunk) is indexed once and the
        live tail once per generation.  A part contributes one
        ``searchsorted`` of the bin edges into the domain's sorted
        times and one difference of its running count sums, so a call
        costs days, not the domain's rows.
        """
        domain_id = self._id_of.get(domain.registered_domain())
        n_days = max((end - start) // SECONDS_PER_DAY, 0)
        series = np.zeros(n_days, dtype=np.int64)
        if domain_id is None or n_days == 0:
            return series
        # Whole days only: a trailing partial day has no bin.
        edges = start + SECONDS_PER_DAY * np.arange(n_days + 1, dtype=np.int64)
        for starts, times, running in self._indexed_parts():
            if domain_id + 1 >= len(starts):
                continue
            lo = int(starts[domain_id])
            hi = int(starts[domain_id + 1])
            if lo == hi:
                continue
            bounds = np.searchsorted(times[lo:hi], edges)
            series += np.diff(running[lo + bounds])
        return series

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
        queries_series = np.zeros(max_days, dtype=np.int64)
        with self._cache_lock:
            first_seen = self._first_seen.view().copy()
            n_domains = len(self._domains)
            parts = self._parts()
        # Stream the row parts a block at a time: query sums
        # accumulate per block and add up in any cut; distinct domains
        # per offset need distinct (offset, domain) pair codes, so each
        # block's are deduplicated and the pool of per-block distinct
        # codes once more (the pool holds distinct pairs only, far
        # fewer than rows, and the distinct codes of the pool are those
        # of the raw rows, whatever the cut).  A code's offset is its
        # quotient by the domain count, so one bincount gives the
        # domains series.
        pair_pool = [np.empty(0, dtype=np.int64)]
        for ids, times, counts in _blocks(parts, self._CHUNK):
            offsets = (times - first_seen[ids]) // SECONDS_PER_DAY
            in_window = (offsets >= 0) & (offsets < max_days)
            offsets = offsets[in_window]
            np.add.at(queries_series, offsets, counts[in_window])
            pair_pool.append(
                _sorted_unique(offsets * np.int64(n_domains) + ids[in_window])
            )
        pairs = _sorted_unique(np.concatenate(pair_pool))
        domains_series = np.bincount(pairs // n_domains, minlength=max_days)
        return domains_series.astype(np.int64, copy=False), queries_series

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
