"""The resilient ingestion pipeline: sensor stream → channel → store.

This module wires the fault harness (:mod:`repro.faults`) and the
resilience primitives (:mod:`repro.resilience`) into the passive DNS
stack.  One :class:`ResilientIngestPipeline` owns a filtered
:class:`~repro.passivedns.channel.SieChannel`, a dedup window over
recent observation keys, a
:class:`~repro.passivedns.database.PassiveDnsDatabase`, a bounded
dead-letter queue, and — optionally — a
:class:`~repro.faults.plan.FaultSchedule` that injects sensor drops,
burst floods, duplicate and out-of-order delivery, subscriber crashes,
and transient store failures along the way.

Ingest is columnar.  :meth:`ResilientIngestPipeline.ingest_many` cuts
its input into chunks (at most :data:`CHUNK_ROWS` observations, cut
again at every ``checkpoint_every`` boundary) and reads each chunk
once into integer columns: interned qname and sensor ids, times,
counts, rcodes and rtypes.  No observation object travels further:

1. bursts, drops and duplicates are masks over the chunk, each
   injector drawing its uniforms as one vector; a burst scales the
   count column;
2. reorder is a depth-bounded release permutation over the pushed row
   positions, with the rows still held carried into the next chunk;
3. the channel filter (NXDomain only, no reverse lookups) is a mask;
4. store failures and retries are one scan over the store injector's
   draws, and the crash tap takes one draw per published row; rows
   that exhaust their retries, and rows the tap crashes on, are
   rebuilt as :class:`DnsObservation` objects (the only rows that
   are) and go to the dead-letter queue;
5. the dedup window (:class:`_DedupWindow`) admits the stored rows
   once, in arrival order, keyed on the chunk's id columns.  A
   redelivery at most the window's size behind an admitted copy is
   suppressed with array operations, and only the rows left are
   walked in order.  The admitted rows land through ``intern_many``,
   which interns the chunk's new registered domains in one step, and
   ``add_batch``: the store's only multi-domain write path.
   Dead-letter replay lands every queued letter the same way, in one
   call.

Per-name facts (reverse lookup or not, registered domain) are arrays
over the qname ids, so each step reads them with one gather.  The
injectors return their events as columns, and each chunk logs them
as one part with the order that merges them, so no event object is
built unless the log is read.

Guarantees:

- the result is identical to offering the observations one at a time
  to a record-at-a-time pipeline (``tests/passivedns/reference.py``):
  the store's fingerprint and domain intern order, the stats, the
  channel counters, the injection log, the schedule's draw counters,
  the dead letters and every checkpoint payload — whatever the chunk
  cuts;
- with no schedule (or a null plan) the output store is byte-identical
  to adding the NXDomain rows one at a time to a plain database;
- every fault decision comes from the schedule's seeded streams, so a
  (plan, seed, stream) triple reproduces bit-identically;
- transient store failures never lose data: retries, then dead-letter
  replay, recover every observation the drop injector did not claim;
- with ``spill_dir=`` the store is backed by the crash-safe
  :class:`~repro.passivedns.spill.SpillStore`, and long ingests can
  checkpoint and resume, fast-forwarding the schedule's RNG streams to
  continue the interrupted trajectory.  Each checkpoint is a
  manifest-generation commit — an injected crash at any write boundary
  rolls back to the last committed generation on resume, never to a
  torn archive; once a checkpoint leaves ``spill_compact_threshold``
  segments on disk the commit also compacts them into one superseding
  generation, so long ingests never accumulate unbounded segments.
  The dedup window rides in each checkpoint as one binary ``window``
  sidecar (:class:`~repro.passivedns.io.WindowKeys`).
"""

from __future__ import annotations

import bisect
import dataclasses
from dataclasses import dataclass
from itertools import islice
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.dns.message import RCode, RRType
from repro.dns.name import DomainName
from repro.errors import ConfigError
from repro.faults.injectors import EventColumns
from repro.faults.plan import FaultSchedule
from repro.passivedns.channel import SieChannel
from repro.passivedns.database import PassiveDnsDatabase, _mix64
from repro.passivedns.io import (
    WindowKeys,
    _first_appearance,
    load_checkpoint,
    save_checkpoint,
)
from repro.passivedns.record import DnsObservation
from repro.passivedns.spill import PathLike
from repro.resilience.dlq import DeadLetterQueue, ReplayStats
from repro.resilience.retry import RetryPolicy

#: Store-write retry posture: four attempts absorb transient failure
#: rates well past the sweep's 10% point (residual miss rate r**4),
#: and whatever still slips through is recovered by dead-letter replay.
#: The pipeline reads only ``max_attempts``: it simulates no backoff.
DEFAULT_RETRY_POLICY = RetryPolicy(max_attempts=4)

#: Most observations one columnar chunk holds.
CHUNK_ROWS = 1 << 15

#: Bound on the duplicate-suppression window.  Redeliveries in real
#: feeds are near-adjacent (a retried publish, an at-least-once
#: redelivery), so a sliding window of recent observation keys is
#: both sufficient and checkpointable.
DEDUP_WINDOW = 4096

#: Context the crash injector reports for the analysis tap.
_TAP = "analysis-tap"

_NXDOMAIN = int(RCode.NXDOMAIN)

#: One batch of events with their merge keys: (tick, sub, events).
_EventBatch = Tuple[np.ndarray, np.ndarray, EventColumns]


@dataclass
class PipelineStats:
    """Operator-facing counters for one pipeline's lifetime."""

    offered: int = 0
    delivered: int = 0
    dropped: int = 0
    burst_amplified: int = 0
    duplicates_delivered: int = 0
    duplicates_suppressed: int = 0
    store_retries: int = 0
    store_failures: int = 0
    replay_recovered: int = 0
    checkpoints: int = 0

    def to_dict(self) -> Dict[str, int]:
        """Plain-int view (the checkpoint ``extra`` payload)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, int]) -> "PipelineStats":
        """Rebuild from :meth:`to_dict` output (unknown keys ignored)."""
        names = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: int(v) for k, v in payload.items() if k in names})


class _Names(Dict[DomainName, int]):
    """Per-distinct-qname facts, computed once per pipeline.

    The mapping gives each distinct query name a dense id, interning a
    name on its first lookup (:meth:`__missing__`); the name itself, its
    text, whether it is a reverse lookup and its registered domain
    (itself deduplicated into dense ids) are looked up by id instead
    of being recomputed per row: ``reverse`` and ``registered_id`` are
    arrays over the ids, grown by :meth:`ids` as it interns names.
    Sensor ids are interned the same way.  The tables live as long as
    the pipeline, so they grow with the distinct names offered (rows
    held by the reorder buffer refer to them across chunks).
    """

    def __init__(self) -> None:
        super().__init__()
        self.qname: List[DomainName] = []
        self.text: List[str] = []
        self.reverse = np.empty(0, dtype=bool)
        self.registered_id = np.empty(0, dtype=np.int64)
        self._registered_of: Dict[DomainName, int] = {}
        self.registered: List[DomainName] = []
        self._sensor_of: Dict[str, int] = {}
        self.sensors: List[str] = []

    def ids(self, qnames: Sequence[DomainName]) -> np.ndarray:
        """Dense ids; a new name is interned where it first appears."""
        known = len(self.qname)
        ids = map(self.__getitem__, qnames)
        ids = np.fromiter(ids, dtype=np.int64, count=len(qnames))
        fresh = self.qname[known:]
        if fresh:
            reverse = [qname.is_reverse_lookup() for qname in fresh]
            registered_ids = []
            for qname in fresh:
                registered = qname.registered_domain()
                rid = self._registered_of.setdefault(
                    registered, len(self.registered)
                )
                if rid == len(self.registered):
                    self.registered.append(registered)
                registered_ids.append(rid)
            self.reverse = np.concatenate((self.reverse, reverse))
            self.registered_id = np.concatenate(
                (self.registered_id, registered_ids)
            )
        return ids

    def sensor_ids(self, sensors: Sequence[str]) -> np.ndarray:
        codes = self._sensor_of
        for sensor in dict.fromkeys(sensors):
            if sensor not in codes:
                codes[sensor] = len(self.sensors)
                self.sensors.append(sensor)
        ids = map(codes.__getitem__, sensors)
        return np.fromiter(ids, dtype=np.int64, count=len(sensors))

    def __missing__(self, qname: DomainName) -> int:
        qid = self[qname] = len(self.text)
        self.qname.append(qname)
        self.text.append(str(qname))
        return qid


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


class _DedupWindow:
    """The keys of the last ``size`` admitted rows, oldest first.

    A key is ``(sensor id, qname id, rcode, rtype, time, count)`` with
    the two strings as :class:`_Names` ids, so equal keys stand for
    equal observations: two deliveries of the same sensed event share
    a key, genuinely distinct observations never do.
    """

    #: Admissions the window remembers (a test may shrink it).
    size = DEDUP_WINDOW

    def __init__(self) -> None:
        self.keys = np.empty((0, 6), dtype=np.int64)

    def admit(self, keys: np.ndarray) -> np.ndarray:
        """Mask of the rows of ``keys`` (in arrival order) that land.

        A redelivery whose key is still inside the window is
        suppressed — the idempotence that makes at-least-once channel
        delivery and dead-letter replay safe.  The mask and the window
        end up exactly as after admitting the rows one at a time,
        whatever the batch cuts.

        The window always holds the keys of the last ``size``
        admissions, so a row is suppressed iff its key's latest
        admission is among them.  Only rows whose key was seen before
        (in the window or earlier in the batch) can be suppressed.
        Most are decided with array operations: the rank gap between
        two rows (the admissions between them) is never larger than
        their position gap, so a row whose previous occurrence is an
        admission — a window key or a fresh batch row — at most
        ``size`` positions back is suppressed.  Only the rest are
        walked in order: a row whose previous occurrence is another
        candidate, or an admission further back.
        """
        held = len(self.keys)
        previous = _previous_occurrence(np.concatenate((self.keys, keys)))
        fresh = previous[held:] < 0
        candidates = np.flatnonzero(~fresh) + held
        priors = previous[candidates]
        prior_admitted = priors < held
        in_batch = np.flatnonzero(~prior_admitted)
        prior_admitted[in_batch] = fresh[priors[in_batch] - held]
        forced = prior_admitted & (candidates - priors <= self.size)
        # Each suppressed row's source: its key's latest admission, by
        # position.  Every other row is its own.
        source = np.arange(held + len(keys))
        source[candidates[forced]] = priors[forced]
        admitted = np.ones(len(keys), dtype=bool)
        admitted[candidates[forced] - held] = False
        if not forced.all():
            self._walk(candidates[~forced], previous, fresh, source, admitted)
        self.keys = np.concatenate((self.keys, keys[admitted]))[-self.size :]
        return admitted

    def _walk(
        self,
        candidates: np.ndarray,
        previous: np.ndarray,
        fresh: np.ndarray,
        source: np.ndarray,
        admitted: np.ndarray,
    ) -> None:
        """Decide the unforced ``candidates`` in order, in place.

        Rank of an admission = admissions before it: window keys are
        admissions ``0..held-1``, and a batch row is preceded by the
        fresh rows before it plus the walked candidates admitted so far
        (forced rows are all suppressed).
        """
        held = len(self.keys)
        fresh_before = np.cumsum(fresh) - fresh
        passed: List[int] = []  # admitted walked candidates, in order

        def rank(position: int) -> int:
            if position < held:
                return position
            return (
                held
                + int(fresh_before[position - held])
                + bisect.bisect_left(passed, position)
            )

        for position, prior in zip(
            candidates.tolist(), previous[candidates].tolist()
        ):
            latest = int(source[prior])
            if rank(latest) >= rank(position) - self.size:
                admitted[position - held] = False
                source[position] = latest
            else:
                passed.append(position)


@dataclass
class _Rows:
    """Observations as columns, one row per observation or delivery.

    ``qid`` and ``sensor`` index the pipeline's :class:`_Names`;
    ``count`` is burst-amplified where the burst injector scaled it.
    """

    qid: np.ndarray
    time: np.ndarray
    count: np.ndarray
    rcode: np.ndarray
    rtype: np.ndarray
    sensor: np.ndarray

    def __len__(self) -> int:
        return len(self.qid)

    def columns(self) -> List[np.ndarray]:
        return list(vars(self).values())

    def take(self, index: np.ndarray) -> "_Rows":
        return _Rows(*(column[index] for column in self.columns()))

    @classmethod
    def concat(cls, first: "_Rows", second: "_Rows") -> "_Rows":
        return cls(
            *(
                np.concatenate((a, b))
                for a, b in zip(first.columns(), second.columns())
            )
        )


class ResilientIngestPipeline:
    """A fault-absorbing channel-to-store pipeline.

    Feed observations through :meth:`ingest_many`, then call
    :meth:`finish` to flush the reorder buffer and replay the
    dead-letter queue.  The resulting store is ``pipeline.database``.
    """

    def __init__(
        self,
        schedule: Optional[FaultSchedule] = None,
        retry_policy: Optional[RetryPolicy] = None,
        dead_letter_capacity: int = 8192,
        checkpoint_every: int = 0,
        spill_dir: Optional[PathLike] = None,
        spill_faults: Optional[object] = None,
        spill_compact_threshold: int = 16,
    ) -> None:
        if checkpoint_every < 0:
            raise ConfigError("checkpoint_every must be non-negative")
        if checkpoint_every > 0 and spill_dir is None:
            # A checkpoint is a manifest-generation commit of the
            # spill-backed store; there is no other durable format.
            raise ConfigError("checkpoint_every requires a spill_dir")
        self.schedule = schedule
        self.retry_policy = (
            retry_policy if retry_policy is not None else DEFAULT_RETRY_POLICY
        )
        self.checkpoint_every = checkpoint_every
        self.stats = PipelineStats()
        self.dead_letters = DeadLetterQueue(capacity=dead_letter_capacity)
        self.database = PassiveDnsDatabase(
            spill_dir=spill_dir,
            spill_faults=spill_faults,
            spill_compact_threshold=spill_compact_threshold,
        )
        #: The channel's filter and counters; the pipeline delivers the
        #: rows that pass and dead-letters the failed deliveries itself.
        self.channel = SieChannel()
        self._names = _Names()
        self._window = _DedupWindow()
        #: Rows of the items the reorder injector holds, in its order.
        self._held = self._rows([])

    # -- ingest path -------------------------------------------------------

    def ingest_many(self, observations: Iterable[DnsObservation]) -> int:
        """Offer a whole stream; returns total channel deliveries."""
        source = iter(observations)
        delivered = 0
        while True:
            size = CHUNK_ROWS
            if self.checkpoint_every > 0:
                size = min(
                    size,
                    self.checkpoint_every
                    - self.stats.offered % self.checkpoint_every,
                )
            chunk = list(islice(source, size))
            if not chunk:
                return delivered
            delivered += self._ingest_chunk(chunk)
            if (
                self.checkpoint_every > 0
                and self.stats.offered % self.checkpoint_every == 0
            ):
                self.checkpoint()

    def _rows(self, observations: Sequence[DnsObservation]) -> _Rows:
        def column(field: str) -> np.ndarray:
            values = map(attrgetter(field), observations)
            return np.fromiter(values, dtype=np.int64, count=len(observations))

        names = self._names
        sensors = list(map(attrgetter("sensor_id"), observations))
        return _Rows(
            qid=names.ids(list(map(attrgetter("qname"), observations))),
            time=column("timestamp"),
            count=column("count"),
            rcode=column("rcode"),
            rtype=column("rtype"),
            sensor=names.sensor_ids(sensors),
        )

    def _observation(self, rows: _Rows, row: int) -> DnsObservation:
        """Row ``row`` as the observation it stands for (burst count kept)."""
        names = self._names
        return DnsObservation(
            qname=names.qname[int(rows.qid[row])],
            rcode=RCode(int(rows.rcode[row])),
            timestamp=int(rows.time[row]),
            sensor_id=names.sensors[int(rows.sensor[row])],
            rtype=RRType(int(rows.rtype[row])),
            count=int(rows.count[row]),
        )

    def _ingest_chunk(self, observations: List[DnsObservation]) -> int:
        """Run one chunk of offered observations through the faults.

        Event merge keys: record ``i`` owns the ticks from ``base[i]``
        (burst, drop, duplicate at ``+0``, ``+1``, ``+2``) through its
        pushes (copy ``c`` at ``+3+c``), which is the order the
        record-at-a-time path logs them in.
        """
        rows = self._rows(observations)
        count = len(rows)
        self.stats.offered += count
        schedule = self.schedule
        if schedule is None:
            self.stats.delivered += count
            self._publish(rows, np.zeros(count, dtype=np.int64))
            return count
        batches: List[_EventBatch] = []
        amplified, burst_events = schedule.burst.burst_mask(rows.time)
        if len(burst_events):
            rows.count[amplified] *= schedule.burst.multiplier
            self.stats.burst_amplified += len(burst_events)
        dropped, drop_events = schedule.drop.drop_mask(rows.time)
        self.stats.dropped += len(drop_events)
        kept = np.flatnonzero(~dropped)
        doubled, duplicate_events = schedule.duplicate.copies_mask(rows.time[kept])
        self.stats.duplicates_delivered += len(duplicate_events)
        copies = np.zeros(count, dtype=np.int64)
        copies[kept] = 1 + doubled
        base = np.cumsum(3 + copies) - (3 + copies)
        batches.append(self._keyed(base[amplified], burst_events))
        batches.append(self._keyed(base[dropped] + 1, drop_events))
        batches.append(self._keyed(base[kept[doubled]] + 2, duplicate_events))

        pushed = np.repeat(np.arange(count), copies)
        first_copy = np.repeat(np.cumsum(copies) - copies, copies)
        push_tick = base[pushed] + 3 + np.arange(len(pushed)) - first_copy
        held = len(self._held)
        candidates = _Rows.concat(self._held, rows.take(pushed))
        # The injector holds row positions; only their number is read.
        order, at, holds, hold_events = schedule.reorder.push_many(
            np.arange(held, len(candidates))
        )
        batches.append(self._keyed(push_tick[holds], hold_events))
        still_held = np.ones(len(candidates), dtype=bool)
        still_held[order] = False
        self._held = candidates.take(np.flatnonzero(still_held))
        self.stats.delivered += len(order)
        batches += self._publish(candidates.take(order), push_tick[at])
        self._log(batches)
        return len(order)

    @staticmethod
    def _keyed(ticks: np.ndarray, events: EventColumns) -> _EventBatch:
        return ticks, np.zeros(len(events), dtype=np.int64), events

    def _log(self, batches: List[_EventBatch]) -> None:
        """Log event batches as one part, in merge-key order."""
        batches = [batch for batch in batches if len(batch[2])]
        if not batches:
            return
        ticks = np.concatenate([batch[0] for batch in batches])
        subs = np.concatenate([batch[1] for batch in batches])
        assert self.schedule is not None
        self.schedule.log.extend(
            *(batch[2] for batch in batches), order=np.lexsort((subs, ticks))
        )

    def _publish(self, rows: _Rows, ticks: np.ndarray) -> List[_EventBatch]:
        """Publish ``rows`` in order: filter, store, tap, land.

        ``ticks`` are the rows' event merge keys; within a tick, events
        order by publish position, then by attempt, with the tap's
        crash after the store attempts.  Returns the event batches.
        """
        names = self._names
        published = np.flatnonzero(
            self.channel.accept_many(
                rows.rcode == _NXDOMAIN, names.reverse[rows.qid]
            )
        )
        stored = published
        batches: List[_EventBatch] = []
        schedule = self.schedule
        if schedule is not None and len(published):
            attempts = self.retry_policy.max_attempts
            failed, items, store_events = schedule.store.attempt_many(
                rows.qid[published], names.text, attempts
            )
            self.stats.store_retries += len(items) - int(failed.sum())
            self.stats.store_failures += int(failed.sum())
            attempt = np.arange(len(items)) - np.searchsorted(items, items)
            batches.append(
                (
                    ticks[published[items]],
                    published[items] * (attempts + 1) + attempt,
                    store_events,
                )
            )
            crashed = np.zeros(len(published), dtype=bool)
            if schedule.plan.subscriber_crash_rate > 0:
                crashed, crash_events = schedule.crash.crash_mask(
                    len(published), _TAP
                )
                hit = published[crashed]
                batches.append(
                    (ticks[hit], hit * (attempts + 1) + attempts, crash_events)
                )
            self._dead_letter(rows, published, failed, crashed)
            stored = published[~failed]
        self._land(rows.take(stored))
        return batches

    def _dead_letter(
        self,
        rows: _Rows,
        published: np.ndarray,
        failed: np.ndarray,
        crashed: np.ndarray,
    ) -> None:
        """Quarantine failed deliveries, store failure before tap crash."""
        assert self.schedule is not None
        for item in np.flatnonzero(failed | crashed).tolist():
            row = published[item]
            observation = self._observation(rows, row)
            errors = []
            if failed[item]:
                context = self._names.text[rows.qid[row]]
                errors.append(self.schedule.store.failure(context))
            if crashed[item]:
                errors.append(self.schedule.crash.failure(_TAP))
            for error in errors:
                self.channel.subscriber_errors += 1
                self.dead_letters.push(
                    observation,
                    reason=f"subscriber failed: {error}",
                    timestamp=observation.timestamp,
                )

    def _land(self, rows: _Rows) -> None:
        """Admit stored rows through the dedup window and append them."""
        if not len(rows):
            return
        keys = np.column_stack(
            (rows.sensor, rows.qid, rows.rcode, rows.rtype, rows.time, rows.count)
        )
        admitted = np.flatnonzero(self._window.admit(keys))
        self.stats.duplicates_suppressed += len(rows) - len(admitted)
        if not len(admitted):
            return
        names = self._names
        # Intern in first-appearance order, as one-row writes would.
        local, registered = _first_appearance(
            names.registered_id[rows.qid[admitted]]
        )
        ids = self.database.intern_many(
            [names.registered[r] for r in registered.tolist()]
        )
        self.database.add_batch(
            ids[local], rows.time[admitted], rows.count[admitted]
        )

    # -- lifecycle ---------------------------------------------------------

    def flush(self) -> int:
        """Release and deliver whatever the reorder buffer still holds."""
        if self.schedule is None or not len(self._held):
            return 0
        self.schedule.reorder.flush()
        released, self._held = self._held, self._rows([])
        self.stats.delivered += len(released)
        self._log(self._publish(released, np.zeros(len(released), dtype=np.int64)))
        return len(released)

    def replay_dead_letters(self) -> ReplayStats:
        """Land every quarantined observation (idempotent via dedup).

        The letters land in queue order through one :meth:`_land`
        call, and leave the queue only once they have landed.
        """
        observations = [letter.item for letter in self.dead_letters.letters()]
        self._land(self._rows(observations))
        self.dead_letters.clear()
        replayed = len(observations)
        self.stats.replay_recovered += replayed
        return ReplayStats(replayed=replayed, succeeded=replayed)

    def finish(self) -> PipelineStats:
        """Flush, replay dead letters, take a final checkpoint.

        A spill-backed pipeline always checkpoints here even when
        periodic checkpoints are off: the final manifest-generation
        commit is what makes the ingested store durable at all.
        """
        self.flush()
        self.replay_dead_letters()
        if self.database.spill is not None:
            self.checkpoint()
        return self.stats

    # -- checkpoint / resume -------------------------------------------------

    def checkpoint(self) -> None:
        """Snapshot the pipeline so :meth:`resume` can continue it.

        The reorder buffer is flushed and the dead-letter queue
        replayed first, so the snapshot is self-contained: every
        observation offered before the cursor is either stored or
        deliberately dropped.  The snapshot is a spill commit.
        """
        if self.database.spill is None:
            raise ConfigError("pipeline was built without a spill_dir")
        self.flush()
        self.replay_dead_letters()
        save_checkpoint(
            self.database,
            cursor=self.stats.offered,
            injector_counters=(
                self.schedule.counters() if self.schedule is not None else {}
            ),
            extra=self.stats.to_dict(),
            window=WindowKeys.local(
                self._window.keys, self._names.sensors, self._names.text
            ),
        )
        self.stats.checkpoints += 1

    def resume(self) -> int:  # repro: noqa[REP105] recovery half of checkpoint(); the crash/resume tests drive it
        """Continue from the checkpoint the spill store recovered.

        Returns the cursor: the caller should skip that many leading
        source events before feeding the rest through
        :meth:`ingest_many`.  A fresh directory resumes at 0; one that
        holds a committed store without a checkpoint is refused with
        :class:`~repro.errors.WorkloadError` (see :func:`load_checkpoint`).
        """
        if self.stats.offered:
            raise ConfigError("resume() must precede any ingest")
        state = load_checkpoint(self.database)
        if state is None:
            return 0
        if self.schedule is not None:
            self.schedule.fast_forward(state.injector_counters)
        self.stats = PipelineStats.from_dict(state.extra)
        self.stats.offered = state.cursor
        # Re-intern the names of the newest keys: a checkpoint written
        # under a larger window must not over-retain suppression state.
        window = state.window
        window = WindowKeys.local(
            window.keys[-DEDUP_WINDOW:], window.sensors, window.qnames
        )
        keys = window.keys
        keys[:, 0] = self._names.sensor_ids(window.sensors)[keys[:, 0]]
        keys[:, 1] = self._names.ids(
            [DomainName(qname) for qname in window.qnames]
        )[keys[:, 1]]
        self._window.keys = keys
        return state.cursor
