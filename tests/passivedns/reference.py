"""Reference models the production ingest and query paths are checked against.

- :class:`ReferencePipeline` is the record-at-a-time ingest pipeline:
  one :class:`DnsObservation` at a time through the scalar fault
  injectors, a subscribed :class:`SieChannel`, a retry-wrapped store
  subscriber and per-row :meth:`PassiveDnsDatabase.ingest`.  The
  columnar :class:`ResilientIngestPipeline` must be observably
  identical to it.
- :func:`daily_series_scan` is the full-column masked scan the CSR
  index behind :meth:`PassiveDnsDatabase.daily_series_for` must match.

Both are deliberately the slow, obvious form of the computation.
"""

from typing import Iterable, Optional

import numpy as np

from repro.clock import SECONDS_PER_DAY
from repro.dns.name import DomainName
from repro.errors import ConfigError, TransientStoreError
from repro.faults.plan import FaultSchedule
from repro.passivedns.channel import DeliveryErrorPolicy, SieChannel
from repro.passivedns.database import PassiveDnsDatabase
from repro.passivedns.io import load_checkpoint, save_checkpoint
from repro.passivedns.pipeline import DEFAULT_RETRY_POLICY, PipelineStats
from repro.passivedns.record import DnsObservation
from repro.resilience.dlq import DeadLetterQueue, ReplayStats
from repro.resilience.retry import RetryPolicy


class ReferencePipeline:
    """The record-at-a-time form of :class:`ResilientIngestPipeline`.

    Takes the same arguments and exposes the same state (``stats``,
    ``channel``, ``dead_letters``, ``database``, ``schedule``).
    """

    def __init__(
        self,
        schedule: Optional[FaultSchedule] = None,
        retry_policy: Optional[RetryPolicy] = None,
        dead_letter_capacity: int = 8192,
        deduplicate: bool = True,
        checkpoint_every: int = 0,
        spill_dir=None,
        spill_faults=None,
        spill_compact_threshold: int = 16,
    ) -> None:
        self.schedule = schedule
        self.retry_policy = (
            retry_policy if retry_policy is not None else DEFAULT_RETRY_POLICY
        )
        self.checkpoint_every = checkpoint_every
        self.stats = PipelineStats()
        self.dead_letters = DeadLetterQueue(capacity=dead_letter_capacity)
        self.database = PassiveDnsDatabase(
            deduplicate=deduplicate,
            spill_dir=spill_dir,
            spill_faults=spill_faults,
            spill_compact_threshold=spill_compact_threshold,
        )
        self.channel = SieChannel(
            error_policy=DeliveryErrorPolicy.DEAD_LETTER,
            dead_letters=self.dead_letters,
        )
        self.channel.subscribe(self._store)
        if schedule is not None and schedule.plan.subscriber_crash_rate > 0:
            self.channel.subscribe(
                schedule.crash.wrap(self._tap, context="analysis-tap")
            )

    # -- ingest path -------------------------------------------------------

    def ingest(self, observation: DnsObservation) -> int:
        self.stats.offered += 1
        delivered = self._apply_faults(observation)
        if (
            self.checkpoint_every > 0
            and self.stats.offered % self.checkpoint_every == 0
        ):
            self.checkpoint()
        return delivered

    def ingest_many(self, observations: Iterable[DnsObservation]) -> int:
        return sum(self.ingest(observation) for observation in observations)

    def _apply_faults(self, observation: DnsObservation) -> int:
        if self.schedule is None:
            self.channel.publish(observation)
            self.stats.delivered += 1
            return 1
        factor = self.schedule.burst.factor(observation.timestamp)
        if factor > 1:
            observation = DnsObservation(
                qname=observation.qname,
                rcode=observation.rcode,
                timestamp=observation.timestamp,
                sensor_id=observation.sensor_id,
                rtype=observation.rtype,
                count=observation.count * factor,
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

    def _store(self, observation: DnsObservation) -> None:
        def attempt() -> None:
            if self.schedule is not None:
                self.schedule.store.check(str(observation.qname))
            self.database.ingest(observation)

        def count_retry(attempt_index: int, error: BaseException) -> None:
            self.stats.store_retries += 1

        try:
            self.retry_policy.run(attempt, on_retry=count_retry)
        except TransientStoreError:
            self.stats.store_failures += 1
            raise

    def _tap(self, observation: DnsObservation) -> None:
        """The no-op analysis tap the crash injector wraps."""

    # -- lifecycle ---------------------------------------------------------

    def flush(self) -> int:
        released = 0
        if self.schedule is not None:
            for observation in self.schedule.reorder.flush():
                self.channel.publish(observation)
                released += 1
            self.stats.delivered += released
        return released

    def replay_dead_letters(self) -> ReplayStats:
        replay = self.dead_letters.replay(self.database.ingest)
        self.stats.replay_recovered += replay.succeeded
        return replay

    def finish(self) -> PipelineStats:
        self.flush()
        self.replay_dead_letters()
        if self.database.spill is not None:
            self.checkpoint()
        return self.stats

    def checkpoint(self) -> None:
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
        state = load_checkpoint(self.database)
        if state is None:
            return 0
        if self.schedule is not None:
            self.schedule.fast_forward(state.injector_counters)
        self.stats = PipelineStats.from_dict(state.extra)
        self.stats.offered = state.cursor
        return state.cursor


def daily_series_scan(
    db: PassiveDnsDatabase, domain: DomainName, start: int, end: int
) -> np.ndarray:
    """Masked full-column scan form of :meth:`daily_series_for`.

    Identical output, O(total rows) instead of O(domain rows).
    """
    domain_id = db._id_of.get(domain.registered_domain())  # noqa: SLF001
    n_days = max((end - start) // SECONDS_PER_DAY, 0)
    series = np.zeros(n_days, dtype=np.int64)
    if domain_id is None or n_days == 0:
        return series
    ids, times, counts = db._columns()  # noqa: SLF001
    mask = (ids == domain_id) & (times >= start) & (times < end)
    offsets = (times[mask] - start) // SECONDS_PER_DAY
    np.add.at(series, offsets, counts[mask])
    return series
