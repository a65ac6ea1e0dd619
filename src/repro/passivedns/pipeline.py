"""The resilient ingestion pipeline: sensor stream → channel → store.

This module wires the fault harness (:mod:`repro.faults`) and the
resilience primitives (:mod:`repro.resilience`) into the passive DNS
stack.  One :class:`ResilientIngestPipeline` owns a filtered
:class:`~repro.passivedns.channel.SieChannel`, a deduplicating
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
5. the dedup window (:meth:`PassiveDnsDatabase.admit_many`) admits the
   stored rows once, in arrival order, and the admitted rows land
   through ``intern_many`` + ``add_batch``, the store's only
   multi-domain write path.  Dead-letter replay lands every queued
   letter the same way, in one call.

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
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from itertools import islice
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.dns.message import RCode, RRType
from repro.dns.name import DomainName
from repro.errors import ConfigError
from repro.faults.injectors import InjectionEvent
from repro.faults.plan import FaultSchedule
from repro.passivedns.channel import SieChannel
from repro.passivedns.database import PassiveDnsDatabase
from repro.passivedns.io import load_checkpoint, save_checkpoint
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

#: Context the crash injector reports for the analysis tap.
_TAP = "analysis-tap"

_NXDOMAIN = int(RCode.NXDOMAIN)

#: One batch of events with their merge keys: (tick, sub, events).
_EventBatch = Tuple[np.ndarray, np.ndarray, List[InjectionEvent]]


@dataclass
class PipelineStats:
    """Operator-facing counters for one pipeline's lifetime."""

    offered: int = 0
    delivered: int = 0
    dropped: int = 0
    burst_amplified: int = 0
    duplicates_delivered: int = 0
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


class _Names:
    """Per-distinct-qname facts, computed once per pipeline.

    Each distinct query name gets a dense id; the name itself, its
    text, whether it is a reverse lookup and its registered domain
    (itself deduplicated into dense ids) are looked up by id instead
    of being recomputed per row.  Sensor ids are interned the same
    way.  The tables live as long as the pipeline, so they grow with
    the distinct names offered (rows held by the reorder buffer refer
    to them across chunks).
    """

    def __init__(self) -> None:
        self._id_of: Dict[DomainName, int] = {}
        self.qname: List[DomainName] = []
        self.text: List[str] = []
        self.reverse: List[bool] = []
        self.registered_id: List[int] = []
        self._registered_of: Dict[DomainName, int] = {}
        self.registered: List[DomainName] = []
        self._sensor_of: Dict[str, int] = {}
        self.sensors: List[str] = []

    def ids(self, qnames: Sequence[DomainName]) -> np.ndarray:
        lookup = self._id_of.get
        ids = [lookup(qname) for qname in qnames]
        if None in ids:
            new = (qname for qname, qid in zip(qnames, ids) if qid is None)
            for qname in dict.fromkeys(new):
                self._add(qname)
            ids = [lookup(qname) for qname in qnames]
        return np.array(ids, dtype=np.int64)

    def sensor_ids(self, sensors: Sequence[str]) -> np.ndarray:
        codes = self._sensor_of
        for sensor in dict.fromkeys(sensors):
            if sensor not in codes:
                codes[sensor] = len(self.sensors)
                self.sensors.append(sensor)
        ids = map(codes.__getitem__, sensors)
        return np.fromiter(ids, dtype=np.int64, count=len(sensors))

    def _add(self, qname: DomainName) -> None:
        self._id_of[qname] = len(self.text)
        self.qname.append(qname)
        self.text.append(str(qname))
        self.reverse.append(qname.is_reverse_lookup())
        registered = qname.registered_domain()
        rid = self._registered_of.setdefault(registered, len(self.registered))
        if rid == len(self.registered):
            self.registered.append(registered)
        self.registered_id.append(rid)


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

    Feed observations through :meth:`ingest_many` (or :meth:`ingest`
    for one), then call :meth:`finish` to flush the reorder buffer and
    replay the dead-letter queue.  The resulting store is
    ``pipeline.database``.
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
            deduplicate=True,
            spill_dir=spill_dir,
            spill_faults=spill_faults,
            spill_compact_threshold=spill_compact_threshold,
        )
        #: The channel's filter and counters; the pipeline delivers the
        #: rows that pass and dead-letters the failed deliveries itself.
        self.channel = SieChannel()
        self._names = _Names()
        #: Rows of the items the reorder injector holds, in its order.
        self._held = self._rows([])

    # -- ingest path -------------------------------------------------------

    def ingest(self, observation: DnsObservation) -> int:
        """Offer one observation; returns deliveries into the channel."""
        return self.ingest_many([observation])

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
            self._log(self._publish(rows, np.zeros(count, dtype=np.int64)))
            return count
        batches: List[_EventBatch] = []
        amplified, burst_events = schedule.burst.burst_mask(rows.time)
        if burst_events:
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
        batches.append(self._publish(candidates.take(order), push_tick[at]))
        self._log(*batches)
        return len(order)

    @staticmethod
    def _keyed(ticks: np.ndarray, events: List[InjectionEvent]) -> _EventBatch:
        return ticks, np.zeros(len(events), dtype=np.int64), events

    def _log(self, *batches: _EventBatch) -> None:
        """Append event batches to the schedule's log in merge-key order."""
        events = [event for _, _, batch in batches for event in batch]
        if not events:
            return
        ticks = np.concatenate([batch[0] for batch in batches])
        subs = np.concatenate([batch[1] for batch in batches])
        order = np.lexsort((subs, ticks))
        assert self.schedule is not None
        self.schedule.log.extend(events[i] for i in order.tolist())

    def _publish(self, rows: _Rows, ticks: np.ndarray) -> _EventBatch:
        """Publish ``rows`` in order: filter, store, tap, land.

        ``ticks`` are the rows' event merge keys; within a tick, events
        order by publish position, then by attempt, with the tap's
        crash after the store attempts.
        """
        names = self._names
        reverse = np.array([names.reverse[q] for q in rows.qid.tolist()], dtype=bool)
        published = np.flatnonzero(
            self.channel.accept_many(rows.rcode == _NXDOMAIN, reverse)
        )
        stored = published
        event_ticks = [np.empty(0, dtype=np.int64)]
        event_subs = [np.empty(0, dtype=np.int64)]
        events: List[InjectionEvent] = []
        schedule = self.schedule
        if schedule is not None and len(published):
            attempts = self.retry_policy.max_attempts
            contexts = [names.text[q] for q in rows.qid[published].tolist()]
            failed, items, store_events = schedule.store.attempt_many(
                contexts, attempts
            )
            self.stats.store_retries += len(items) - int(failed.sum())
            self.stats.store_failures += int(failed.sum())
            attempt = np.arange(len(items)) - np.searchsorted(items, items)
            event_ticks.append(ticks[published[items]])
            event_subs.append(published[items] * (attempts + 1) + attempt)
            events += store_events
            crashed = np.zeros(len(published), dtype=bool)
            if schedule.plan.subscriber_crash_rate > 0:
                crashed, crash_events = schedule.crash.crash_mask(
                    len(published), _TAP
                )
                hit = published[crashed]
                event_ticks.append(ticks[hit])
                event_subs.append(hit * (attempts + 1) + attempts)
                events += crash_events
            self._dead_letter(rows, published, failed, crashed, contexts)
            stored = published[~failed]
        self._land(rows.take(stored))
        return np.concatenate(event_ticks), np.concatenate(event_subs), events

    def _dead_letter(
        self,
        rows: _Rows,
        published: np.ndarray,
        failed: np.ndarray,
        crashed: np.ndarray,
        contexts: List[str],
    ) -> None:
        """Quarantine failed deliveries, store failure before tap crash."""
        assert self.schedule is not None
        for item in np.flatnonzero(failed | crashed).tolist():
            observation = self._observation(rows, published[item])
            errors = []
            if failed[item]:
                errors.append(self.schedule.store.failure(contexts[item]))
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
        names = self._names
        admitted = np.flatnonzero(
            self.database.admit_many(
                list(map(names.sensors.__getitem__, rows.sensor.tolist())),
                [names.text[q] for q in rows.qid.tolist()],
                rows.rcode,
                rows.rtype,
                rows.time,
                rows.count,
            )
        )
        if not len(admitted):
            return
        registered = np.array(
            [names.registered_id[q] for q in rows.qid[admitted].tolist()],
            dtype=np.int64,
        )
        # Intern in first-appearance order, as one-row writes would.
        distinct, first, inverse = np.unique(
            registered, return_index=True, return_inverse=True
        )
        appearance = np.argsort(first)
        ids = np.empty(len(distinct), dtype=np.int64)
        ids[appearance] = self.database.intern_many(
            [names.registered[r] for r in distinct[appearance].tolist()]
        )
        self.database.add_batch(
            ids[inverse.ravel()], rows.time[admitted], rows.count[admitted]
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
        )
        self.stats.checkpoints += 1

    def resume(self) -> int:
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
        return state.cursor
