"""Reference models the production ingest and query paths are checked against.

- :class:`ScalarDatabase` is the store with a record-at-a-time
  writer: ``add`` interns one row's domain and updates its
  min/max/sum aggregates in Python.  ``add_batch`` and ``add_rows``
  must land the same store.  Its ``_intern`` interns one name at a
  time, appending to every per-domain column and the TLD table by
  hand; ``intern_many``'s bulk interning must build the same tables.
  Its ``_name_hashes`` hashes the names one at a time with
  ``hashlib``, the form the lazily filled name-hash column must equal.
- :class:`ReferencePipeline` is the record-at-a-time ingest pipeline:
  one :class:`DnsObservation` at a time through the record-at-a-time
  fault rules of :mod:`tests.faults.reference`, a subscribed :class:`SieChannel`, a retry-wrapped store
  subscriber, an ``OrderedDict`` dedup window walked one observation
  at a time (``admit``) and per-row :meth:`ScalarDatabase.ingest`.
  The columnar :class:`ResilientIngestPipeline` and its batch dedup
  window must be observably identical to it.
  Its dedup window is a list of text keys; :func:`window_keys` and
  :func:`text_keys` convert between that and the checkpoint form, and
  :func:`recent_keys` reads either pipeline's window as text keys.
- :func:`daily_series_scan` is the full-column masked scan the
  per-part (domain, time) indexes behind
  :meth:`PassiveDnsDatabase.daily_series_for` must match.
- :func:`monthly_series_scan` and :func:`lifespan_decay_scan` are
  ``np.unique`` reductions over every row at once.
  :meth:`PassiveDnsDatabase.monthly_response_series` and
  :meth:`PassiveDnsDatabase.lifespan_decay` sort instead and stream
  the row parts a block at a time; they must match.

All of them are deliberately the slow, obvious form of the computation.
"""

import hashlib
from collections import OrderedDict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.clock import SECONDS_PER_DAY, month_key
from repro.dns.name import DomainName
from repro.errors import ConfigError, ReproError, TransientStoreError
from repro.faults.plan import FaultSchedule
from repro.passivedns.channel import SieChannel
from repro.passivedns.database import (
    _FIRST_SEEN_SENTINEL,
    _LAST_SEEN_SENTINEL,
    PassiveDnsDatabase,
)
from repro.passivedns.io import WindowKeys, load_checkpoint, save_checkpoint
from repro.passivedns.pipeline import (
    DEDUP_WINDOW,
    DEFAULT_RETRY_POLICY,
    PipelineStats,
    ResilientIngestPipeline,
)
from repro.passivedns.record import DnsObservation
from repro.resilience.dlq import DeadLetterQueue, ReplayStats
from repro.resilience.retry import RetryPolicy

from tests.faults import reference as faults


class ScalarDatabase(PassiveDnsDatabase):
    """:class:`PassiveDnsDatabase` with the record-at-a-time writers."""

    def ingest(self, observation: DnsObservation) -> None:
        """Channel-subscriber entry point (NXDomains only)."""
        if observation.is_nxdomain:
            self.add(
                observation.registered_domain,
                observation.timestamp,
                observation.count,
            )

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
            self._tail_domain.extend([domain_id])
            self._tail_time.extend([timestamp])
            self._tail_count.extend([count])
            self._n_rows += 1
            self._touch()
        self._maybe_seal()

    def _intern(self, domain: DomainName) -> int:
        """One name: a lookup, then one append to every column."""
        domain_id = self._id_of.get(domain)
        if domain_id is not None:
            return domain_id
        with self._rows_lock:
            domain_id = len(self._domains)
            self._id_of[domain] = domain_id
            self._domains.append(domain)
            self._first_seen.extend([_FIRST_SEEN_SENTINEL])
            self._last_seen.extend([_LAST_SEEN_SENTINEL])
            self._totals.extend([0])
            tld_id = self._tld_of.get(domain.tld)
            if tld_id is None:
                tld_id = self._tld_of[domain.tld] = len(self._tlds)
                self._tlds.append(domain.tld)
            self._tld_ids.extend([tld_id])
        return domain_id

    def _name_hashes(self) -> np.ndarray:
        """One BLAKE2b-64 digest per name not yet hashed, name by name."""
        with self._rows_lock:
            for domain in self._domains[len(self._name_hash) :]:
                digest = hashlib.blake2b(
                    str(domain).encode("utf-8"), digest_size=8
                ).digest()
                self._name_hash.extend(
                    [int.from_bytes(digest, "little", signed=True)]
                )
            return self._name_hash.view()


class ReferencePipeline:
    """The record-at-a-time form of :class:`ResilientIngestPipeline`.

    Takes the same arguments and exposes the same state (``stats``,
    ``channel``, ``dead_letters``, ``database``, ``schedule``,
    ``recent_keys()``).
    """

    #: Bound on the dedup window (a test may shrink it per instance).
    dedup_window = DEDUP_WINDOW

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
            spill_dir=spill_dir,
            spill_faults=spill_faults,
            spill_compact_threshold=spill_compact_threshold,
        )
        self._recent_keys: "OrderedDict[tuple, None]" = OrderedDict()
        self.channel = SieChannel()
        self.channel.subscribe(self._quarantined(self._store))
        if schedule is not None and schedule.plan.subscriber_crash_rate > 0:
            self.channel.subscribe(
                self._quarantined(
                    faults.wrap(
                        schedule.crash, self._tap, context="analysis-tap"
                    )
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
        factor = faults.factor(self.schedule.burst, observation.timestamp)
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
        if faults.should_drop(self.schedule.drop, observation.timestamp):
            self.stats.dropped += 1
            return 0
        copies = faults.copies(self.schedule.duplicate, observation.timestamp)
        if copies > 1:
            self.stats.duplicates_delivered += copies - 1
        delivered = 0
        for _ in range(copies):
            for released in faults.push(self.schedule.reorder, observation):
                self.channel.publish(released)
                delivered += 1
        self.stats.delivered += delivered
        return delivered

    def _store(self, observation: DnsObservation) -> None:
        def attempt() -> None:
            if self.schedule is not None:
                faults.check(self.schedule.store, str(observation.qname))
            self._land(observation)

        def count_retry(attempt_index: int, error: BaseException) -> None:
            self.stats.store_retries += 1

        try:
            self.retry_policy.run(attempt, on_retry=count_retry)
        except TransientStoreError:
            self.stats.store_failures += 1
            raise

    def _tap(self, observation: DnsObservation) -> None:
        """The no-op analysis tap the crash injector wraps."""

    def admit(self, observation: DnsObservation) -> bool:
        """Advance the dedup window; whether ``observation`` should land.

        A redelivery whose :func:`observation_key` is still inside the
        window is suppressed and counted.
        """
        key = observation_key(observation)
        if key in self._recent_keys:
            self.stats.duplicates_suppressed += 1
            return False
        self._recent_keys[key] = None
        while len(self._recent_keys) > self.dedup_window:
            self._recent_keys.popitem(last=False)
        return True

    def _land(self, observation: DnsObservation) -> None:
        if self.admit(observation):
            self.database.ingest(observation)

    def recent_keys(self) -> List[tuple]:
        return list(self._recent_keys)

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
        replay = self.dead_letters.replay(self._land)
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
            window=window_keys(self.recent_keys()),
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
        self._recent_keys = OrderedDict.fromkeys(
            text_keys(state.window)[-self.dedup_window :]
        )
        return state.cursor


def observation_key(observation: DnsObservation) -> tuple:
    """A hashable identity for idempotent ingestion.

    Two deliveries of the *same* sensed event (same sensor, name, type,
    outcome, reporting interval, and pre-aggregated count) share a key,
    so the dedup window drops the at-least-once redelivery without
    collapsing genuinely distinct observations.
    """
    return (
        observation.sensor_id,
        str(observation.qname),
        int(observation.rcode),
        int(observation.rtype),
        observation.timestamp,
        observation.count,
    )


def window_keys(keys: List[tuple]) -> WindowKeys:
    """The checkpoint form of text keys ``(sensor, qname, rcode,
    rtype, time, count)``, oldest first."""
    sensors: Dict[str, int] = {}
    qnames: Dict[str, int] = {}
    rows = [
        (
            sensors.setdefault(sensor, len(sensors)),
            qnames.setdefault(qname, len(qnames)),
            *rest,
        )
        for sensor, qname, *rest in keys
    ]
    matrix = np.array(rows, dtype=np.int64).reshape(-1, 6)
    return WindowKeys(matrix, list(sensors), list(qnames))


def text_keys(window: WindowKeys) -> List[tuple]:
    """Inverse of :func:`window_keys`."""
    return [
        (window.sensors[sensor], window.qnames[qname], *rest)
        for sensor, qname, *rest in window.keys.tolist()
    ]


def recent_keys(pipeline) -> List[tuple]:
    """Either pipeline's dedup window as text keys, oldest first."""
    if isinstance(pipeline, ResilientIngestPipeline):
        names = pipeline._names  # noqa: SLF001
        return [
            (names.sensors[sensor], names.text[qid], *rest)
            for sensor, qid, *rest in pipeline._window.keys.tolist()  # noqa: SLF001
        ]
    return pipeline.recent_keys()


def daily_series_scan(
    db: PassiveDnsDatabase, domain: DomainName, start: int, end: int
) -> np.ndarray:
    """Masked full-column scan form of :meth:`daily_series_for`.

    Identical output, O(total rows) instead of O(days) per part.
    """
    domain_id = db._id_of.get(domain.registered_domain())  # noqa: SLF001
    n_days = max((end - start) // SECONDS_PER_DAY, 0)
    series = np.zeros(n_days, dtype=np.int64)
    if domain_id is None or n_days == 0:
        return series
    ids, times, counts = db._columns()  # noqa: SLF001
    # Whole days only: a trailing partial day has no bin.
    window_end = start + n_days * SECONDS_PER_DAY
    mask = (ids == domain_id) & (times >= start) & (times < window_end)
    offsets = (times[mask] - start) // SECONDS_PER_DAY
    np.add.at(series, offsets, counts[mask])
    return series


def monthly_series_scan(db: PassiveDnsDatabase) -> Dict[str, int]:
    """Full-column form of :meth:`monthly_response_series`.

    Sums counts per distinct day with ``np.unique``, then walks the
    days in ascending order into their month keys.
    """
    _, times, counts = db._columns()  # noqa: SLF001
    days, inverse = np.unique(times // SECONDS_PER_DAY, return_inverse=True)
    sums = np.zeros(len(days), dtype=np.int64)
    np.add.at(sums, inverse, counts)
    series: Dict[str, int] = {}
    for day, total in zip(days.tolist(), sums.tolist()):
        month = month_key(day * SECONDS_PER_DAY)
        series[month] = series.get(month, 0) + total
    return series


def lifespan_decay_scan(
    db: PassiveDnsDatabase, max_days: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Full-column form of :meth:`lifespan_decay`.

    Counts each distinct in-window (offset, domain) pair once, found by
    ``np.unique`` over every row's pair.
    """
    ids, times, counts = db._columns()  # noqa: SLF001
    first_seen = db._first_seen.view()  # noqa: SLF001
    offsets = (times - first_seen[ids]) // SECONDS_PER_DAY
    in_window = (offsets >= 0) & (offsets < max_days)
    queries_series = np.zeros(max_days, dtype=np.int64)
    np.add.at(queries_series, offsets[in_window], counts[in_window])
    domains_series = np.zeros(max_days, dtype=np.int64)
    pairs = np.unique(
        np.stack([offsets[in_window], ids[in_window]], axis=1), axis=0
    )
    np.add.at(domains_series, pairs[:, 0], 1)
    return domains_series, queries_series
