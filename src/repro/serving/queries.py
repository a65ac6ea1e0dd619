"""Typed queries, deadlines, and the cooperative cost meter.

A query is a frozen value object: hashable (its :meth:`Query.cache_key`
keys the server's generation-tagged result caches), costed up front
(:meth:`Query.estimated_cost` feeds the admission controller's shed
ladder), and executed against the store under a read transaction so a
result always reflects one committed generation.

Long scans cooperate with deadlines through a :class:`CostMeter`:
``execute`` calls :meth:`CostMeter.tick` between strides, and the
meter raises :class:`~repro.errors.DeadlineExceededError` at the first
checkpoint past the deadline — cancellation quantized at stride
boundaries, the way a real cooperative cancellation point works.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Type

import numpy as np

from repro.clock import SECONDS_PER_DAY
from repro.dns.name import DomainName
from repro.errors import ConfigError, DeadlineExceededError
from repro.passivedns.database import PassiveDnsDatabase

__all__ = [  # repro: noqa[REP104] query value types; exported for annotations
    "ActivityWindowQuery",
    "CostMeter",
    "DailySeriesQuery",
    "Deadline",
    "Query",
    "TimelineQuery",
    "TopDomainsQuery",
    "query_from_payload",
]

#: Domains examined between deadline checkpoints in whole-store scans.
CHECKPOINT_STRIDE = 2048

#: Days of per-domain series materialized between deadline checkpoints.
DAY_STRIDE = 365


@dataclass(frozen=True)
class Deadline:
    """An absolute completion bound in simulated epoch seconds."""

    expires_at: int

    @classmethod
    def after(cls, now: int, budget: int) -> "Deadline":
        if budget < 1:
            raise ConfigError(f"deadline budget must be positive, got {budget}")
        return cls(expires_at=now + budget)

    def expired(self, now: int) -> bool:
        return now > self.expires_at

    def remaining(self, now: int) -> int:
        return max(self.expires_at - now, 0)


class CostMeter:
    """Charges simulated service time and cancels past the deadline.

    The server charges each query ``initial_delay`` seconds up front
    (base service plus any injected slowness) and one further second
    per ``cost_rate`` cost units of scan work.  Queries report work by
    calling :meth:`tick` between strides; the first checkpoint whose
    projected completion time passes the deadline raises
    :class:`~repro.errors.DeadlineExceededError`, so a cancelled query
    has still consumed the worker up to that checkpoint.
    """

    def __init__(
        self,
        started_at: int,
        deadline: Optional[Deadline],
        cost_rate: int,
        initial_delay: int = 0,
    ) -> None:
        if cost_rate < 1:
            raise ConfigError(f"cost_rate must be positive, got {cost_rate}")
        if initial_delay < 0:
            raise ConfigError("initial_delay must be non-negative")
        self.started_at = started_at
        self.deadline = deadline
        self.cost_rate = cost_rate
        self.initial_delay = initial_delay
        self._units = 0
        self.checkpoints = 0

    def seconds(self) -> int:
        """Simulated service seconds consumed so far."""
        return self.initial_delay + self._units // self.cost_rate

    def tick(self, units: int = 0) -> None:
        """Charge ``units`` of work and cancel if past the deadline."""
        self._units += int(units)
        self.checkpoints += 1
        if self.deadline is None:
            return
        projected = self.started_at + self.seconds()
        if projected > self.deadline.expires_at:
            raise DeadlineExceededError(
                f"deadline t={self.deadline.expires_at} passed at "
                f"t={projected} (checkpoint {self.checkpoints})"
            )


class Query:
    """Base class for typed queries; subclasses are frozen dataclasses."""

    #: Wire name used in scripted query files and cache keys.
    kind = "query"
    #: Whether the breaker may answer this query from a stale
    #: generation when fresh aggregates are unhealthy.  Only
    #: whole-store aggregates degrade gracefully; point lookups do not.
    degradable = False

    def cache_key(self) -> Tuple[Any, ...]:
        """Hashable identity for the generation-tagged result caches."""
        raise NotImplementedError

    def estimated_cost(self, db: PassiveDnsDatabase) -> int:
        """Admission-time cost estimate in abstract scan units."""
        raise NotImplementedError

    def execute(
        self, db: PassiveDnsDatabase, meter: Optional[CostMeter] = None
    ) -> Any:
        """Run against the store, ticking ``meter`` between strides."""
        raise NotImplementedError


def _avg_rows_per_domain(db: PassiveDnsDatabase) -> int:
    return db.row_count() // max(db.unique_domains(), 1)


@dataclass(frozen=True)
class TopDomainsQuery(Query):
    """The ``n`` busiest domains by total query count.

    Deterministic under ties: ranked by ``(-total, name)``, so equal
    totals break lexicographically regardless of intern order.
    ``np.partition`` finds the ``n``-th largest total, and only the
    domains at or above it are sorted.
    """

    n: int = 10

    kind = "top-domains"
    degradable = True

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigError(f"top-domains n must be positive, got {self.n}")

    def cache_key(self) -> Tuple[Any, ...]:
        return (self.kind, self.n)

    def estimated_cost(self, db: PassiveDnsDatabase) -> int:
        return max(db.unique_domains(), 1)

    def execute(
        self, db: PassiveDnsDatabase, meter: Optional[CostMeter] = None
    ) -> List[Tuple[str, int]]:
        domains, _first, _last, totals = db.aggregate_snapshot()
        count = len(domains)
        if meter is not None:
            # The same checkpoints, with the same units, as a scan in
            # CHECKPOINT_STRIDE-domain strides.
            for lo in range(0, count, CHECKPOINT_STRIDE):
                meter.tick(min(lo + CHECKPOINT_STRIDE, count) - lo)
        if self.n < count:
            # Every domain at or above the n-th largest total, so all
            # ties at the cutoff compete on name below.
            floor = np.partition(totals, count - self.n)[count - self.n]
            candidates = np.flatnonzero(totals >= floor).tolist()
        else:
            candidates = range(count)
        best = sorted((-int(totals[i]), str(domains[i])) for i in candidates)
        return [(name, -neg_total) for neg_total, name in best[: self.n]]


@dataclass(frozen=True)
class DailySeriesQuery(Query):
    """Per-day query counts for one domain over ``[start, end)``."""

    domain: str
    start: int
    end: int

    kind = "daily-series"

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ConfigError("daily-series end must follow start")

    @property
    def days(self) -> int:
        return (self.end - self.start) // SECONDS_PER_DAY

    def cache_key(self) -> Tuple[Any, ...]:
        return (self.kind, self.domain, self.start, self.end)

    def estimated_cost(self, db: PassiveDnsDatabase) -> int:
        return self.days + _avg_rows_per_domain(db)

    def execute(
        self, db: PassiveDnsDatabase, meter: Optional[CostMeter] = None
    ) -> np.ndarray:
        if meter is not None:
            meter.tick(self.estimated_cost(db))
        return db.daily_series_for(DomainName(self.domain), self.start, self.end)


@dataclass(frozen=True)
class TimelineQuery(Query):
    """Daily counts around a pivot (the Figure 6 expiry-timeline shape)."""

    domain: str
    pivot: int
    days_before: int = 30
    days_after: int = 30

    kind = "timeline"

    def __post_init__(self) -> None:
        if self.days_before < 0 or self.days_after < 0:
            raise ConfigError("timeline day spans must be non-negative")
        if self.days_before + self.days_after == 0:
            raise ConfigError("timeline must cover at least one day")

    def cache_key(self) -> Tuple[Any, ...]:
        return (
            self.kind,
            self.domain,
            self.pivot,
            self.days_before,
            self.days_after,
        )

    def estimated_cost(self, db: PassiveDnsDatabase) -> int:
        return self.days_before + self.days_after + _avg_rows_per_domain(db)

    def execute(
        self, db: PassiveDnsDatabase, meter: Optional[CostMeter] = None
    ) -> np.ndarray:
        if meter is not None:
            meter.tick(self.estimated_cost(db))
        return db.timeline_around(
            DomainName(self.domain),
            self.pivot,
            self.days_before,
            self.days_after,
        )


@dataclass(frozen=True)
class ActivityWindowQuery(Query):
    """Lifespan and active-day count for one domain.

    Walks the domain's daily series in :data:`DAY_STRIDE`-day strides
    (a deadline checkpoint per stride) counting days with at least one
    query — the long-tail shape behind the paper's short-lived-NXD
    observation.
    """

    domain: str

    kind = "activity-window"

    def cache_key(self) -> Tuple[Any, ...]:
        return (self.kind, self.domain)

    def estimated_cost(self, db: PassiveDnsDatabase) -> int:
        # Lifespan is unknown until the profile is read; budget for a
        # year of series plus the domain's share of rows.
        return DAY_STRIDE + _avg_rows_per_domain(db)

    def execute(
        self, db: PassiveDnsDatabase, meter: Optional[CostMeter] = None
    ) -> Optional[Dict[str, int]]:
        name = DomainName(self.domain)
        profile = db.profile(name)
        if meter is not None:
            meter.tick(1)
        if profile is None:
            return None
        start = (profile.first_seen // SECONDS_PER_DAY) * SECONDS_PER_DAY
        end = profile.last_seen + 1
        active_days = 0
        cursor = start
        while cursor < end:
            stride_end = min(cursor + DAY_STRIDE * SECONDS_PER_DAY, end)
            # Round the stride up to whole days so no partial day is lost.
            span = stride_end - cursor
            days = -(-span // SECONDS_PER_DAY)
            series = db.daily_series_for(
                name, cursor, cursor + days * SECONDS_PER_DAY
            )
            active_days += int(np.count_nonzero(series))
            if meter is not None:
                meter.tick(days + _avg_rows_per_domain(db))
            cursor += days * SECONDS_PER_DAY
        return {
            "domain": str(profile.domain),
            "first_seen": int(profile.first_seen),
            "last_seen": int(profile.last_seen),
            "total_queries": int(profile.total_queries),
            "lifespan_days": int(
                (profile.last_seen - profile.first_seen) // SECONDS_PER_DAY
            )
            + 1,
            "active_days": active_days,
        }


_KINDS: Dict[str, Type[Query]] = {
    cls.kind: cls
    for cls in (
        TopDomainsQuery,
        DailySeriesQuery,
        TimelineQuery,
        ActivityWindowQuery,
    )
}


def query_from_payload(payload: Dict[str, Any]) -> Query:
    """Build a typed query from a scripted-query-file record.

    The record's ``kind`` selects the query class; remaining keys are
    its constructor fields.  Unknown kinds and bad fields raise
    :class:`~repro.errors.ConfigError` so a malformed script fails the
    batch up front rather than mid-run.
    """
    kind = payload.get("kind")
    cls = _KINDS.get(kind)
    if cls is None:
        known = ", ".join(sorted(_KINDS))
        raise ConfigError(f"unknown query kind {kind!r} (known: {known})")
    fields = {key: value for key, value in payload.items() if key != "kind"}
    try:
        return cls(**fields)
    except TypeError as exc:
        raise ConfigError(f"bad {kind} query fields: {exc}") from exc
