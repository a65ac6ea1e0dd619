"""The query server: deterministic overload behaviour on simulated time.

:class:`QueryServer` fronts a
:class:`~repro.passivedns.database.PassiveDnsDatabase` with the
admission controller and a small worker pool, replayed as a
discrete-event simulation on :class:`~repro.clock.SimClock`: arrivals,
service completions, deadline reaping, and circuit-breaker transitions
all happen at simulated instants, so one seed reproduces an overload
episode bit-for-bit.

The request path, in order:

1. **Admission** (:mod:`repro.serving.admission`): bounded queue,
   per-tenant token bucket, shed ladder.  Refused requests finish
   immediately with ``QUEUE_FULL`` / ``RATE_LIMITED`` / ``SHED``.
2. **Dequeue**: a ticket whose deadline already passed is never
   started (``EXPIRED``); it consumed queue space, not a worker.
3. **Cache**: results of the live store generation are kept per
   ``cache_key`` (a newer generation drops them all); a fresh hit
   answers in zero service time (``CACHED``).
4. **Degradation**: for degradable (whole-store aggregate) queries the
   breaker is consulted; when open, the last known-good generation's
   cached value is served marked ``degraded`` (``DEGRADED``), or the
   query is refused (``REJECTED``) when no stale value exists yet.
5. **Execution**: the real query runs inside
   :meth:`~repro.passivedns.database.PassiveDnsDatabase.read_transaction`,
   charging a :class:`~repro.serving.queries.CostMeter`; injected slow
   workers stretch service, injected stuck workers pin the worker
   until the deadline reaper frees it (``CANCELLED``), and meter
   checkpoints cancel cooperatively mid-scan.  Served results are
   bit-identical to direct store calls — the server adds control
   flow, never transformation.

:meth:`QueryServer.serve_threaded` is the second mode: real threads,
no simulated schedule, used by the throughput benchmark and the
live-writer property tests (every result must still reflect one
committed generation).
"""

from __future__ import annotations

import enum
import heapq
import queue as queue_mod
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.clock import SimClock
from repro.errors import ConfigError, DeadlineExceededError
from repro.faults.plan import FaultSchedule
from repro.passivedns.database import PassiveDnsDatabase
from repro.resilience.breaker import CircuitBreaker
from repro.serving.admission import (
    AdmissionController,
    AdmissionPolicy,
    Decision,
    QueryRequest,
    Ticket,
)
from repro.serving.queries import CostMeter

__all__ = [  # repro: noqa[REP104] serving record types; exported for annotations
    "Disposition",
    "QueryServer",
    "ServedQuery",
    "ServerStats",
    "ServingPolicy",
]


class Disposition(enum.Enum):
    """How one submitted request left the serving tier."""

    #: Executed against the store at the current generation.
    SERVED = "served"
    #: Answered from the fresh (current-generation) result cache.
    CACHED = "cached"
    #: Breaker open: answered from a previous generation's cache.
    DEGRADED = "degraded"
    #: Refused by the shed ladder under pressure.
    SHED = "shed"
    #: Refused by the tenant's token bucket.
    RATE_LIMITED = "rate-limited"
    #: Refused because the admission queue was full.
    QUEUE_FULL = "queue-full"
    #: Deadline passed while queued; never started.
    EXPIRED = "expired"
    #: Started but cancelled — a meter checkpoint crossed the
    #: deadline, or a stuck worker was reaped.
    CANCELLED = "cancelled"
    #: Breaker open and no stale value to degrade to.
    REJECTED = "rejected"
    #: The query raised something unexpected (counts as unhandled).
    FAILED = "failed"


#: Dispositions that returned a value to the tenant.
ANSWERED = (Disposition.SERVED, Disposition.CACHED, Disposition.DEGRADED)


@dataclass
class ServedQuery:
    """The per-request outcome record."""

    request: QueryRequest
    seq: int
    submitted_at: int
    disposition: Disposition = Disposition.FAILED
    value: Any = None
    generation: int = -1
    degraded: bool = False
    cached: bool = False
    finished_at: int = -1
    queued_seconds: int = 0
    retry_after: int = 0
    detail: str = ""

    @property
    def answered(self) -> bool:
        return self.disposition in ANSWERED

    @property
    def latency(self) -> int:
        """Submission-to-finish seconds (0 for instant refusals)."""
        if self.finished_at < 0:
            return 0
        return self.finished_at - self.submitted_at


@dataclass(frozen=True)
class ServingPolicy:
    """Worker-pool and service-model knobs."""

    #: Concurrent workers in the simulated pool.
    workers: int = 2
    #: Flat service charge per executed query, simulated seconds.
    base_service_seconds: int = 1
    #: Scan-cost units converted to one simulated service second.
    cost_rate: int = 400
    #: Breaker: consecutive degradable-query failures that open it,
    #: and the cooldown before a half-open probe.
    breaker_failures: int = 2
    breaker_reset: int = 240

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")
        if self.base_service_seconds < 0:
            raise ConfigError("base_service_seconds must be non-negative")
        if self.cost_rate < 1:
            raise ConfigError("cost_rate must be at least 1")
        if self.breaker_failures < 1 or self.breaker_reset < 1:
            raise ConfigError("breaker knobs must be at least 1")


@dataclass
class ServerStats:
    """Counters and answered-query latencies for one server."""

    counts: Dict[str, int] = field(default_factory=dict)
    latencies: List[int] = field(default_factory=list)
    unhandled: int = 0

    def record(self, record: ServedQuery) -> None:
        name = record.disposition.value
        self.counts[name] = self.counts.get(name, 0) + 1
        if record.disposition is Disposition.FAILED:
            self.unhandled += 1
        if record.answered:
            self.latencies.append(record.latency)

    def count(self, disposition: Disposition) -> int:
        return self.counts.get(disposition.value, 0)

    def total(self) -> int:
        return sum(self.counts.values())

    def p99_latency(self) -> int:
        """Deterministic p99 over answered queries (0 when none)."""
        if not self.latencies:
            return 0
        ordered = sorted(self.latencies)
        return ordered[min(len(ordered) - 1, (len(ordered) * 99) // 100)]


class QueryServer:
    """Admission-controlled, deadline-aware serving over one store."""

    def __init__(
        self,
        db: PassiveDnsDatabase,
        clock: SimClock,
        admission: Optional[AdmissionPolicy] = None,
        serving: Optional[ServingPolicy] = None,
        schedule: Optional[FaultSchedule] = None,
        breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        self.db = db
        self.clock = clock
        self.serving = serving or ServingPolicy()
        self.admission = AdmissionController(admission)
        self.schedule = schedule
        self.breaker = breaker or CircuitBreaker(
            failure_threshold=self.serving.breaker_failures,
            reset_timeout=self.serving.breaker_reset,
        )
        self.stats = ServerStats()
        #: Result caches, bounded by design.  ``_fresh`` holds only the
        #: live generation ``_fresh_generation`` (a newer fill drops
        #: it whole); ``_stale`` keeps the last known-good value of
        #: each *degradable* query — the only ones a degraded read
        #: answers — at whatever generation it was computed.
        self._fresh: Dict[Tuple[Any, ...], Any] = {}
        self._fresh_generation = -1
        self._stale: Dict[Tuple[Any, ...], Tuple[int, Any]] = {}
        #: Guards the caches and stats — the state the threaded mode
        #: shares across workers.  The simulation state below
        #: (_running, _waiting, counters, the current batch's records)
        #: is touched only by the single-threaded event loop and stays
        #: unguarded.
        self._lock = threading.Lock()
        #: Outcome records of the :meth:`serve` call in progress.
        self._batch: List[ServedQuery] = []
        self._seq = 0
        self._free_workers = self.serving.workers
        #: In-flight work: a heap of (finish, seq, record, breaker signal).
        self._running: List[Tuple[int, int, ServedQuery, Optional[str]]] = []
        #: Admitted-but-waiting outcome records, keyed by ticket seq.
        self._waiting: Dict[int, ServedQuery] = {}

    # -- deterministic batch mode -------------------------------------------

    def serve(self, requests: Sequence[QueryRequest]) -> List[ServedQuery]:
        """Replay a batch through the tier; returns submission order.

        Arrivals run at each request's ``at`` (clamped to the clock;
        defaulting to "now"), burst injectors fan arrivals out, and the
        event loop interleaves arrivals with service completions in
        timestamp order.  The clock ends at the last completion.
        """
        base = self.clock.now
        self._batch = []
        arrivals = sorted(
            (max(req.at if req.at is not None else base, base), idx, req)
            for idx, req in enumerate(requests)
        )
        for at, _idx, request in arrivals:
            self._drain_until(at)
            if self.clock.now < at:
                self.clock.set_to(at)
            fanout = 1
            if self.schedule is not None:
                fanout = self.schedule.query_burst.factor(at)
            for _copy in range(fanout):
                self._submit(request, self.clock.now)
            self._dispatch()
        self._drain_until(None)
        batch, self._batch = self._batch, []
        return sorted(batch, key=lambda r: r.seq)

    def _submit(self, request: QueryRequest, now: int) -> None:
        record = ServedQuery(request=request, seq=self._seq, submitted_at=now)
        self._seq += 1
        cost = request.query.estimated_cost(self.db)
        decision, ticket, retry_after = self.admission.offer(request, cost, now)
        if decision is Decision.ADMITTED:
            assert ticket is not None
            self._waiting[ticket.seq] = record
            return
        record.retry_after = retry_after
        detail = {
            Decision.QUEUE_FULL: "admission queue full",
            Decision.RATE_LIMITED: "tenant budget exhausted",
            Decision.SHED: "shed under pressure",
        }[decision]
        disposition = {
            Decision.QUEUE_FULL: Disposition.QUEUE_FULL,
            Decision.RATE_LIMITED: Disposition.RATE_LIMITED,
            Decision.SHED: Disposition.SHED,
        }[decision]
        self._finalize(record, disposition, now, detail)

    def _dispatch(self) -> None:
        """Start queued tickets on free workers at the current instant."""
        now = self.clock.now
        while self._free_workers > 0:
            ticket = self.admission.pop()
            if ticket is None:
                return
            record = self._waiting.pop(ticket.seq)
            record.queued_seconds = now - ticket.enqueued_at
            if ticket.deadline.expired(now):
                self._finalize(
                    record,
                    Disposition.EXPIRED,
                    now,
                    "deadline passed while queued",
                )
                continue
            service, signal = self._execute(ticket, record, now)
            if service <= 0:
                if signal == "success":
                    self.breaker.record_success(now)
                elif signal == "failure":
                    self.breaker.record_failure(now)
                self._finalize(record, record.disposition, now, record.detail)
                continue
            self._free_workers -= 1
            heapq.heappush(
                self._running, (now + service, record.seq, record, signal)
            )

    def _drain_until(self, until: Optional[int]) -> None:
        """Process completions up to ``until`` (all of them if ``None``)."""
        while self._running and (until is None or self._running[0][0] <= until):
            finish, _seq, record, signal = heapq.heappop(self._running)
            if self.clock.now < finish:
                self.clock.set_to(finish)
            self._free_workers += 1
            if signal == "success":
                self.breaker.record_success(finish)
            elif signal == "failure":
                self.breaker.record_failure(finish)
            self._finalize(record, record.disposition, finish, record.detail)
            self._dispatch()

    def _execute(
        self, ticket: Ticket, record: ServedQuery, now: int
    ) -> Tuple[int, Optional[str]]:
        """Run one admitted ticket; returns (service seconds, signal).

        Zero service means the outcome is instant and consumed no
        worker (cache hit, breaker rejection).  The breaker signal is
        reported at the *finish* instant by the caller so event order
        matches a real pool.
        """
        request = ticket.request
        query = request.query
        key = query.cache_key()
        label = f"{query.kind} seq={record.seq}"
        degradable = query.degradable
        with self.db.read_transaction() as generation:
            hit = self._cache_get(key, generation)
            if hit is not None:
                record.value = hit
                record.generation = generation
                record.cached = True
                record.disposition = Disposition.CACHED
                return 0, None
            if degradable and not self.breaker.allow(now):
                stale = self._stale_get(key)
                if stale is not None:
                    stale_generation, value = stale
                    record.value = value
                    record.generation = stale_generation
                    record.degraded = True
                    record.disposition = Disposition.DEGRADED
                    record.detail = (
                        f"breaker open; served generation {stale_generation}"
                    )
                    return self.serving.base_service_seconds, None
                record.disposition = Disposition.REJECTED
                record.detail = "breaker open; no stale aggregate yet"
                return 0, None
            signal_ok = "success" if degradable else None
            signal_bad = "failure" if degradable else None
            if self.schedule is not None and self.schedule.stuck_worker.stuck(
                label
            ):
                record.disposition = Disposition.CANCELLED
                record.detail = "stuck worker reaped at deadline"
                return max(ticket.deadline.expires_at - now, 1), signal_bad
            delay = 0
            if self.schedule is not None:
                delay = self.schedule.slow_worker.delay(label)
            meter = CostMeter(
                started_at=now,
                deadline=ticket.deadline,
                cost_rate=self.serving.cost_rate,
                initial_delay=self.serving.base_service_seconds + delay,
            )
            try:
                value = query.execute(self.db, meter)
            except DeadlineExceededError as exc:
                record.disposition = Disposition.CANCELLED
                record.detail = str(exc)
                return max(meter.seconds(), 1), signal_bad
            except Exception as exc:  # repro: noqa[REP004] leaks become FAILED outcomes
                record.disposition = Disposition.FAILED
                record.detail = f"{type(exc).__name__}: {exc}"
                return max(meter.seconds(), 1), signal_bad
            record.value = value
            record.generation = generation
            record.disposition = Disposition.SERVED
            self._cache_fill(key, generation, value, degradable)
            return max(meter.seconds(), 1), signal_ok

    def _finalize(
        self,
        record: ServedQuery,
        disposition: Disposition,
        now: int,
        detail: str = "",
    ) -> None:
        record.disposition = disposition
        record.finished_at = now
        if detail:
            record.detail = detail
        self._batch.append(record)
        with self._lock:
            self.stats.record(record)

    # -- result caches -------------------------------------------------------

    def _cache_get(self, key: Tuple[Any, ...], generation: int) -> Any:
        with self._lock:
            if generation != self._fresh_generation:
                return None
            return self._fresh.get(key)

    def _stale_get(self, key: Tuple[Any, ...]) -> Optional[Tuple[int, Any]]:
        with self._lock:
            return self._stale.get(key)

    def _cache_fill(
        self,
        key: Tuple[Any, ...],
        generation: int,
        value: Any,
        degradable: bool,
    ) -> None:
        with self._lock:
            if generation < self._fresh_generation:
                return  # computed at a generation already superseded
            if generation > self._fresh_generation:
                self._fresh = {}
                self._fresh_generation = generation
            self._fresh[key] = value
            if degradable:
                self._stale[key] = (generation, value)

    # -- threaded mode -------------------------------------------------------

    def serve_threaded(
        self, requests: Sequence[QueryRequest], threads: int = 4
    ) -> List[ServedQuery]:
        """Execute a batch on real threads (no schedule, no deadlines).

        The throughput mode: admission, injectors, and simulated time
        are bypassed; every query executes (or hits cache) inside a
        read transaction, so each result still reflects exactly one
        committed store generation even with concurrent writers.
        Results come back in submission order.
        """
        if threads < 1:
            raise ConfigError("threads must be at least 1")
        results: List[Optional[ServedQuery]] = [None] * len(requests)
        work: "queue_mod.Queue[int]" = queue_mod.Queue()
        for idx in range(len(requests)):
            work.put(idx)

        def worker() -> None:
            while True:
                try:
                    idx = work.get_nowait()
                except queue_mod.Empty:
                    return
                request = requests[idx]
                record = ServedQuery(
                    request=request, seq=idx, submitted_at=self.clock.now
                )
                key = request.query.cache_key()
                try:
                    with self.db.read_transaction() as generation:
                        hit = self._cache_get(key, generation)
                        if hit is not None:
                            record.value = hit
                            record.cached = True
                            record.disposition = Disposition.CACHED
                        else:
                            record.value = request.query.execute(self.db)
                            record.disposition = Disposition.SERVED
                            self._cache_fill(
                                key,
                                generation,
                                record.value,
                                request.query.degradable,
                            )
                        record.generation = generation
                except Exception as exc:  # repro: noqa[REP004] leaks must not kill the pool
                    record.disposition = Disposition.FAILED
                    record.detail = f"{type(exc).__name__}: {exc}"
                record.finished_at = self.clock.now
                results[idx] = record

        pool = [
            threading.Thread(target=worker, name=f"serving-{n}")
            for n in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        done = [record for record in results if record is not None]
        with self._lock:
            for record in done:
                self.stats.record(record)
        return done
