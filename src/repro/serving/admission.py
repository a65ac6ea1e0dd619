"""Admission control: token buckets, priority queues, the shed ladder.

Every request passes through three gates before it may wait for a
worker:

1. **Bounded queue** — past ``queue_capacity`` waiting tickets the
   request is refused outright (``QUEUE_FULL``); backpressure beats an
   unbounded queue that converts overload into unbounded latency.
2. **Per-tenant token bucket** — the extracted
   :class:`~repro.resilience.ratelimit.TokenBucket`, one per tenant,
   so a single noisy tenant exhausts its own budget instead of
   everyone's (``RATE_LIMITED`` carries ``retry_after``).
3. **Shed ladder** — under pressure (queue depth or queued scan cost
   versus capacity) the controller raises the minimum admitted
   priority class: best-effort work sheds first, interactive work
   sheds only past ``shed_hard``.

Admitted requests get a :class:`~repro.serving.queries.Deadline`
stamped from their budget; the deadline travels with the ticket and is
enforced both on dequeue (dead tickets are never started) and inside
long scans via :class:`~repro.serving.queries.CostMeter` checkpoints.

The controller is not internally locked: the deterministic server
drives it from the single simulation loop, and the threaded mode
bypasses admission entirely (see :mod:`repro.serving.server`).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional, Tuple

from repro.errors import ConfigError
from repro.resilience.ratelimit import RateLimit, TokenBucket
from repro.serving.queries import Deadline, Query

__all__ = [  # repro: noqa[REP104] admission record types; exported for annotations
    "AdmissionController",
    "AdmissionPolicy",
    "Decision",
    "QueryRequest",
    "Ticket",
]

#: Priority classes, lowest to highest.
BEST_EFFORT = 0
STANDARD = 1
INTERACTIVE = 2
_PRIORITIES = (BEST_EFFORT, STANDARD, INTERACTIVE)


class Decision(enum.Enum):
    """Outcome of offering one request to the controller."""

    ADMITTED = "admitted"
    RATE_LIMITED = "rate-limited"
    SHED = "shed"
    QUEUE_FULL = "queue-full"


@dataclass(frozen=True)
class QueryRequest:
    """One tenant-attributed query submission."""

    query: Query
    tenant: str = "default"
    priority: int = STANDARD
    #: Deadline budget in simulated seconds (``None`` → policy default).
    budget: Optional[int] = None
    #: Arrival time in simulated epoch seconds (``None`` → clock now).
    at: Optional[int] = None

    def __post_init__(self) -> None:
        if self.priority not in _PRIORITIES:
            raise ConfigError(
                f"priority must be one of {_PRIORITIES}, got {self.priority}"
            )
        if self.budget is not None and self.budget < 1:
            raise ConfigError(f"budget must be positive, got {self.budget}")


@dataclass(frozen=True)
class AdmissionPolicy:
    """Knobs for the three admission gates."""

    #: Maximum tickets waiting for a worker.
    queue_capacity: int = 32
    #: Queued estimated-cost units considered "full" for the pressure
    #: signal (the second arm of the shed ladder).
    cost_capacity: int = 50_000
    #: Pressure above which best-effort work is shed.
    shed_start: float = 0.5
    #: Pressure above which everything below interactive is shed.
    shed_hard: float = 0.85
    #: Per-tenant rate limit (``None`` disables the bucket gate).
    tenant_limit: Optional[RateLimit] = field(
        default_factory=lambda: RateLimit(capacity=600, window_seconds=3600)
    )
    #: Deadline budget for requests that do not carry one.
    default_budget: int = 120

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ConfigError("queue_capacity must be at least 1")
        if self.cost_capacity < 1:
            raise ConfigError("cost_capacity must be at least 1")
        if not 0.0 < self.shed_start <= self.shed_hard <= 1.0:
            raise ConfigError(
                "need 0 < shed_start <= shed_hard <= 1, got "
                f"{self.shed_start}/{self.shed_hard}"
            )
        if self.default_budget < 1:
            raise ConfigError("default_budget must be at least 1 second")


@dataclass(frozen=True)
class Ticket:
    """An admitted request waiting for (or holding) a worker."""

    request: QueryRequest
    cost: int
    deadline: Deadline
    enqueued_at: int
    seq: int


class AdmissionController:
    """The bounded, priority-classed front door of the query tier."""

    def __init__(self, policy: Optional[AdmissionPolicy] = None) -> None:
        self.policy = policy or AdmissionPolicy()
        self._queues: Dict[int, Deque[Ticket]] = {
            priority: deque() for priority in _PRIORITIES
        }
        self._buckets: Dict[str, TokenBucket] = {}
        self._queued_cost = 0
        # Offer-order counters an operator would graph.
        self.submitted = 0
        self.admitted = 0
        self.rate_limited = 0
        self.shed = 0
        self.queue_full = 0

    def __len__(self) -> int:
        return sum(len(queue) for queue in self._queues.values())

    def pressure(self) -> float:
        """Load signal in [0, ~]: worst of depth and queued-cost ratios."""
        depth = len(self) / self.policy.queue_capacity
        cost = self._queued_cost / self.policy.cost_capacity
        return max(depth, cost)

    def shed_floor(self) -> int:
        """Minimum priority currently admitted."""
        pressure = self.pressure()
        if pressure >= self.policy.shed_hard:
            return INTERACTIVE
        if pressure >= self.policy.shed_start:
            return STANDARD
        return BEST_EFFORT

    def bucket_for(self, tenant: str) -> Optional[TokenBucket]:
        """The tenant's token bucket (created on first use)."""
        if self.policy.tenant_limit is None:
            return None
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = TokenBucket(self.policy.tenant_limit)
            self._buckets[tenant] = bucket
        return bucket

    def offer(
        self, request: QueryRequest, cost: int, now: int
    ) -> Tuple[Decision, Optional[Ticket], int]:
        """Run one request through the gates at ``now``.

        Returns ``(decision, ticket, retry_after)``; ``ticket`` is set
        only for :attr:`Decision.ADMITTED` and ``retry_after`` only for
        :attr:`Decision.RATE_LIMITED`.
        """
        self.submitted += 1
        if len(self) >= self.policy.queue_capacity:
            self.queue_full += 1
            return Decision.QUEUE_FULL, None, 0
        bucket = self.bucket_for(request.tenant)
        if bucket is not None and not bucket.try_acquire(now):
            self.rate_limited += 1
            return Decision.RATE_LIMITED, None, bucket.retry_after(now)
        if request.priority < self.shed_floor():
            self.shed += 1
            return Decision.SHED, None, 0
        budget = request.budget or self.policy.default_budget
        ticket = Ticket(
            request=request,
            cost=max(int(cost), 1),
            deadline=Deadline.after(now, budget),
            enqueued_at=now,
            seq=self.admitted,
        )
        self._queues[request.priority].append(ticket)
        self._queued_cost += ticket.cost
        self.admitted += 1
        return Decision.ADMITTED, ticket, 0

    def pop(self) -> Optional[Ticket]:
        """Next ticket: highest priority first, FIFO within a class."""
        for priority in reversed(_PRIORITIES):
            queue = self._queues[priority]
            if queue:
                ticket = queue.popleft()
                self._queued_cost -= ticket.cost
                return ticket
        return None

    def counters(self) -> Dict[str, int]:
        """Gate counters for reports and sweep gating."""
        return {
            "submitted": self.submitted,
            "admitted": self.admitted,
            "rate_limited": self.rate_limited,
            "shed": self.shed,
            "queue_full": self.queue_full,
        }
