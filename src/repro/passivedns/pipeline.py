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

Guarantees:

- with no schedule (or a null plan) the output store is byte-identical
  to feeding the observations straight into a plain database;
- every fault decision comes from the schedule's seeded streams, so a
  (plan, seed, stream) triple reproduces bit-identically;
- transient store failures never lose data: retries, then dead-letter
  replay, recover every observation the drop injector did not claim;
- long ingests can checkpoint to disk and resume, fast-forwarding the
  schedule's RNG streams to continue the interrupted trajectory;
- with ``spill_dir=`` the store is backed by the crash-safe
  :class:`~repro.passivedns.spill.SpillStore` and each checkpoint is a
  manifest-generation commit — an injected crash at any write boundary
  rolls back to the last committed generation on resume, never to a
  torn archive; once a checkpoint leaves ``spill_compact_threshold``
  segments on disk the commit also compacts them into one superseding
  generation, so long ingests never accumulate unbounded segments.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.clock import SimClock
from repro.dns.name import DomainName
from repro.errors import ConfigError, TransientStoreError
from repro.faults.plan import FaultSchedule
from repro.passivedns.channel import DeliveryErrorPolicy, SieChannel
from repro.passivedns.database import PassiveDnsDatabase
from repro.passivedns.io import PathLike, load_checkpoint, save_checkpoint
from repro.passivedns.record import DnsObservation
from repro.rand import derive_seed, make_rng
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.dlq import DeadLetterQueue, ReplayStats
from repro.resilience.retry import RetryPolicy

#: Store-write retry posture: four attempts absorb transient failure
#: rates well past the sweep's 10% point (residual miss rate r**4),
#: and whatever still slips through is recovered by dead-letter replay.
DEFAULT_RETRY_POLICY = RetryPolicy(
    max_attempts=4, base_delay=1.0, multiplier=2.0, max_delay=30.0, jitter=0.1
)


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


class ResilientIngestPipeline:
    """A fault-absorbing channel-to-store pipeline.

    Feed observations through :meth:`ingest` (or :meth:`ingest_many`),
    then call :meth:`finish` to flush the reorder buffer and replay the
    dead-letter queue.  The resulting store is ``pipeline.database``.
    """

    def __init__(
        self,
        schedule: Optional[FaultSchedule] = None,
        retry_policy: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        dead_letter_capacity: int = 8192,
        deduplicate: bool = True,
        clock: Optional[SimClock] = None,
        checkpoint_dir: Optional[PathLike] = None,
        checkpoint_every: int = 0,
        spill_dir: Optional[PathLike] = None,
        spill_faults: Optional[object] = None,
        spill_compact_threshold: int = 16,
        fast_lane: bool = True,
    ) -> None:
        if checkpoint_every < 0:
            raise ConfigError("checkpoint_every must be non-negative")
        if checkpoint_every > 0 and checkpoint_dir is None and spill_dir is None:
            raise ConfigError("checkpoint_every requires a checkpoint_dir")
        if spill_dir is not None:
            # A spill-backed store checkpoints into its own directory:
            # a manifest-generation commit *is* the checkpoint, so a
            # second target would split the durability state in two.
            if checkpoint_dir is not None and str(checkpoint_dir) != str(
                spill_dir
            ):
                raise ConfigError(
                    "spill_dir and checkpoint_dir must agree when both set"
                )
            checkpoint_dir = spill_dir
        self.schedule = schedule
        self.retry_policy = (
            retry_policy if retry_policy is not None else DEFAULT_RETRY_POLICY
        )
        self.breaker = breaker
        self.clock = clock
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = checkpoint_every
        self.stats = PipelineStats()
        self.dead_letters = DeadLetterQueue(capacity=dead_letter_capacity)
        self.spill_compact_threshold = spill_compact_threshold
        self.database = PassiveDnsDatabase(
            deduplicate=deduplicate,
            spill_dir=spill_dir,
            spill_faults=spill_faults,
            spill_compact_threshold=spill_compact_threshold,
        )
        #: Batch fast lane: clean stretches between fault points run
        #: admission control at arrival order but defer the row
        #: appends into a pending batch that lands via ``add_batch``
        #: at the next flush/checkpoint — vectorizing the per-row
        #: store work without moving any fault, dedup, or checkpoint
        #: boundary (see ``_flush_pending`` for the identity argument).
        self.fast_lane = fast_lane
        self._pending_domains: List[DomainName] = []
        self._pending_times: List[int] = []
        self._pending_counts: List[int] = []
        self.channel = SieChannel(
            error_policy=DeliveryErrorPolicy.DEAD_LETTER,
            dead_letters=self.dead_letters,
        )
        self.channel.subscribe(self._store)
        # Jitter for store-write backoff comes from its own derived
        # stream so retry timing never perturbs injector decisions.
        self._retry_rng = (
            make_rng(derive_seed(schedule.seed, "retry-jitter"))
            if schedule is not None
            else None
        )
        if schedule is not None and schedule.plan.subscriber_crash_rate > 0:
            # A crashing analysis tap exercises fan-out isolation and
            # the dead-letter path without touching the store.
            self.channel.subscribe(
                schedule.crash.wrap(self._tap, context="analysis-tap")
            )

    # -- ingest path -------------------------------------------------------

    def ingest(self, observation: DnsObservation) -> int:
        """Offer one observation; returns deliveries into the channel."""
        self.stats.offered += 1
        delivered = self._apply_faults(observation)
        if (
            self.checkpoint_every > 0
            and self.stats.offered % self.checkpoint_every == 0
        ):
            self.checkpoint()
        return delivered

    def ingest_many(self, observations: Iterable[DnsObservation]) -> int:
        """Offer a whole stream; returns total channel deliveries."""
        return sum(self.ingest(observation) for observation in observations)

    def _apply_faults(self, observation: DnsObservation) -> int:
        if self.schedule is None:
            self.channel.publish(observation)
            self.stats.delivered += 1
            return 1
        factor = self.schedule.burst.factor(observation.timestamp)
        if factor > 1:
            observation = dataclasses.replace(
                observation, count=observation.count * factor
            )
            self.stats.burst_amplified += 1
        if self.schedule.drop.should_drop(observation.timestamp):
            self.stats.dropped += 1
            return 0
        copies = self.schedule.duplicate.copies(observation.timestamp)
        if copies > 1:
            self.stats.duplicates_delivered += copies - 1
        delivered = 0
        for _ in range(copies):
            for released in self.schedule.reorder.push(observation):
                self.channel.publish(released)
                delivered += 1
        self.stats.delivered += delivered
        return delivered

    # -- channel subscribers -----------------------------------------------

    def _store(self, observation: DnsObservation) -> None:
        def attempt() -> None:
            if self.schedule is not None:
                self.schedule.store.check(str(observation.qname))
            if self.fast_lane:
                # The store-fault check above already ran for this
                # attempt, so a buffered append can no longer fail —
                # admission (NXDomain filter + dedup window) happens
                # now, at arrival order, exactly as ingest() would.
                if self.database.admit(observation):
                    self._pending_domains.append(
                        observation.registered_domain
                    )
                    self._pending_times.append(observation.timestamp)
                    self._pending_counts.append(observation.count)
            else:
                self.database.ingest(observation)

        def count_retry(attempt_index: int, error: BaseException) -> None:
            self.stats.store_retries += 1

        def run() -> None:
            self.retry_policy.run(
                attempt,
                clock=self.clock,
                rng=self._retry_rng,
                on_retry=count_retry,
            )

        try:
            if self.breaker is not None:
                self.breaker.call(run, now=observation.timestamp)
            else:
                run()
        except TransientStoreError:
            self.stats.store_failures += 1
            raise

    def _tap(self, observation: DnsObservation) -> None:
        """The no-op analysis tap the crash injector wraps."""

    # -- lifecycle ---------------------------------------------------------

    def flush(self) -> int:
        """Release and deliver whatever the reorder buffer still holds."""
        released = 0
        if self.schedule is not None:
            for observation in self.schedule.reorder.flush():
                self.channel.publish(observation)
                released += 1
            self.stats.delivered += released
        # Reorder releases above feed _store and may extend the
        # pending batch; landing it last keeps insertion order equal
        # to the record-at-a-time path.
        self._flush_pending()
        return released

    def _flush_pending(self) -> int:
        """Land the fast lane's pending batch via ``add_batch``.

        Identity with the record-at-a-time path: admission (NXDomain
        filter, dedup window, ``duplicates_suppressed``) already ran
        per observation at arrival order inside ``_store``; the rows
        buffered here are exactly the ones ``ingest`` would have
        appended, in the same order.  ``intern_many`` assigns new ids
        in first-appearance order and ``add_batch``'s scatter min/max/
        sum reductions equal the sequential per-row updates, so the
        resulting store — fingerprint, profiles, intern order —
        is identical; only chunk-seal timing moves, which no content
        hash observes.
        """
        if not self._pending_domains:
            return 0
        landed = len(self._pending_domains)
        ids = self.database.intern_many(self._pending_domains)
        self.database.add_batch(
            ids,
            np.asarray(self._pending_times, dtype=np.int64),
            np.asarray(self._pending_counts, dtype=np.int64),
        )
        self._pending_domains = []
        self._pending_times = []
        self._pending_counts = []
        return landed

    def replay_dead_letters(self) -> ReplayStats:
        """Re-ingest quarantined observations (idempotent via dedup)."""
        # Land the pending batch first so replayed rows append after
        # the arrival-ordered ones, as they do on the record path.
        self._flush_pending()
        replay = self.dead_letters.replay(self.database.ingest)
        self.stats.replay_recovered += replay.succeeded
        return replay

    def finish(self) -> PipelineStats:
        """Flush, replay dead letters, take a final checkpoint.

        A spill-backed pipeline always checkpoints here even when
        periodic checkpoints are off: the final manifest-generation
        commit is what makes the ingested store durable at all.
        """
        self.flush()
        self.replay_dead_letters()
        if self.checkpoint_dir is not None and (
            self.checkpoint_every > 0 or self.database.spill is not None
        ):
            self.checkpoint()
        return self.stats

    # -- checkpoint / resume -------------------------------------------------

    def checkpoint(self) -> None:
        """Snapshot the pipeline so :meth:`resume` can continue it.

        The reorder buffer is flushed and the dead-letter queue
        replayed first, so the snapshot is self-contained: every
        observation offered before the cursor is either stored or
        deliberately dropped.
        """
        if self.checkpoint_dir is None:
            raise ConfigError("pipeline was built without a checkpoint_dir")
        self.flush()
        self.replay_dead_letters()
        save_checkpoint(
            self.database,
            self.checkpoint_dir,
            cursor=self.stats.offered,
            injector_counters=(
                self.schedule.counters() if self.schedule is not None else {}
            ),
            extra=self.stats.to_dict(),
        )
        self.stats.checkpoints += 1

    def resume(self) -> int:
        """Reload the latest checkpoint, if any; returns the cursor.

        The caller should skip that many leading source events before
        feeding the rest through :meth:`ingest`.
        """
        if self.checkpoint_dir is None:
            raise ConfigError("pipeline was built without a checkpoint_dir")
        state = load_checkpoint(
            self.checkpoint_dir,
            spill_compact_threshold=(
                self.spill_compact_threshold
                if self.database.spill is not None
                else 0
            ),
        )
        if state is None:
            return 0
        # Pending fast-lane rows belong to the abandoned trajectory
        # (every checkpoint flushes before snapshotting, so a loaded
        # cursor never covers them).
        self._pending_domains = []
        self._pending_times = []
        self._pending_counts = []
        self.database = state.database
        if self.schedule is not None:
            self.schedule.fast_forward(state.injector_counters)
        self.stats = PipelineStats.from_dict(state.extra)
        self.stats.offered = state.cursor
        return state.cursor
