"""Reference models the production ingest and query paths are checked against.

- :class:`ScalarDatabase` is the store with record-at-a-time writers:
  ``add`` interns one row's domain and updates its min/max/sum
  aggregates in Python, and ``admit`` walks an ``OrderedDict`` dedup
  window one observation at a time.  ``admit_many``, ``add_batch`` and
  ``add_rows`` must land the same store.
- :class:`ReferencePipeline` is the record-at-a-time ingest pipeline:
  one :class:`DnsObservation` at a time through the scalar fault
  injectors, a subscribed :class:`SieChannel`, a retry-wrapped store
  subscriber and per-row :meth:`ScalarDatabase.ingest`.  The
  columnar :class:`ResilientIngestPipeline` must be observably
  identical to it.
- :func:`daily_series_scan` is the full-column masked scan the CSR
  index behind :meth:`PassiveDnsDatabase.daily_series_for` must match.

All three are deliberately the slow, obvious form of the computation.
"""

from typing import Callable, Iterable, Optional

import numpy as np

from repro.clock import SECONDS_PER_DAY
from repro.dns.name import DomainName
from repro.errors import ConfigError, ReproError, TransientStoreError
from repro.faults.plan import FaultSchedule
from repro.passivedns.channel import SieChannel
from repro.passivedns.database import PassiveDnsDatabase
from repro.passivedns.io import load_checkpoint, save_checkpoint
from repro.passivedns.pipeline import DEFAULT_RETRY_POLICY, PipelineStats
from repro.passivedns.record import DnsObservation
from repro.resilience.dlq import DeadLetterQueue, ReplayStats
from repro.resilience.retry import RetryPolicy


class ScalarDatabase(PassiveDnsDatabase):
    """:class:`PassiveDnsDatabase` with the record-at-a-time writers."""

    def ingest(self, observation: DnsObservation) -> None:
        """Channel-subscriber entry point (NXDomains only).

        With ``deduplicate`` enabled, a redelivery of an observation
        whose key is still inside the sliding window is suppressed and
        counted — the idempotence that makes at-least-once channel
        delivery and dead-letter replay safe.
        """
        if self.admit(observation):
            self.add(
                observation.registered_domain,
                observation.timestamp,
                observation.count,
            )

    def admit(self, observation: DnsObservation) -> bool:
        """Admission control without the row append.

        Applies the NXDomain filter and, when ``deduplicate`` is on,
        advances the sliding dedup window exactly as :meth:`ingest`
        would — returning whether the observation should land.
        """
        if not observation.is_nxdomain:
            return False
        if self.deduplicate:
            key = observation.observation_key
            if key in self._recent_keys:
                self.duplicates_suppressed += 1
                return False
            self._recent_keys[key] = None
            while len(self._recent_keys) > self.DEDUP_WINDOW:
                self._recent_keys.popitem(last=False)
        return True

    def add(self, domain: DomainName, timestamp: int, count: int = 1) -> None:
        """Record ``count`` NXDomain responses for ``domain`` at ``timestamp``."""
        if count < 1:
            raise ConfigError("count must be at least 1")
        with self._rows_lock:
            domain_id = self._intern(domain)
            if timestamp < self._first_seen[domain_id]:
                self._first_seen[domain_id] = timestamp
            if timestamp > self._last_seen[domain_id]:
                self._last_seen[domain_id] = timestamp
            self._totals[domain_id] += count
            self._tail_domain.append(domain_id)
            self._tail_time.append(timestamp)
            self._tail_count.append(count)
            self._n_rows += 1
            self._touch()
        self._maybe_seal()


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
        self.database = ScalarDatabase(
            deduplicate=True,
            spill_dir=spill_dir,
            spill_faults=spill_faults,
            spill_compact_threshold=spill_compact_threshold,
        )
        self.channel = SieChannel()
        self.channel.subscribe(self._quarantined(self._store))
        if schedule is not None and schedule.plan.subscriber_crash_rate > 0:
            self.channel.subscribe(
                self._quarantined(
                    schedule.crash.wrap(self._tap, context="analysis-tap")
                )
            )

    def _quarantined(
        self, subscriber: Callable[[DnsObservation], None]
    ) -> Callable[[DnsObservation], None]:
        """Count a subscriber's failures and dead-letter the observation."""

        def deliver(observation: DnsObservation) -> None:
            try:
                subscriber(observation)
            except ReproError as exc:
                self.channel.subscriber_errors += 1
                self.dead_letters.push(
                    observation,
                    reason=f"subscriber failed: {exc}",
                    timestamp=observation.timestamp,
                )

        return deliver

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
