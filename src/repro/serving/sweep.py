"""The overload sweep: shed/degraded/served curves vs a clean baseline.

The serving-tier sibling of :func:`repro.core.validation.fault_sweep`:
build one synthetic store, replay one scripted multi-tenant workload
through a fresh :class:`~repro.serving.server.QueryServer` per
operating point (clean, slow workers, stuck workers, arrival storm),
and gate the outcome curves:

- the clean point must be perfectly clean — every request answered,
  nothing shed, nothing degraded, nothing cancelled;
- every point must account for every submission, leak zero unhandled
  exceptions, keep answered-query p99 latency bounded, and answer at
  least a floor fraction of submissions (overload protection must
  degrade service, not collapse it);
- non-degraded results are spot-checked bit-identical against direct
  store calls.

Everything — store, workload, schedules — derives from one seed, so a
sweep replays bit-identically (the determinism gate in CI runs it
twice and compares counts and injection-log fingerprints).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.clock import SECONDS_PER_DAY, STUDY_START, SimClock, date_to_epoch
from repro.dns.name import DomainName
from repro.errors import ConfigError
from repro.faults.plan import FaultPlan
from repro.passivedns.database import PassiveDnsDatabase
from repro.rand import derive_seed, make_rng
from repro.resilience.ratelimit import RateLimit
from repro.serving.admission import AdmissionPolicy, QueryRequest
from repro.serving.queries import (
    ActivityWindowQuery,
    DailySeriesQuery,
    Query,
    TimelineQuery,
    TopDomainsQuery,
)
from repro.serving.server import (
    Disposition,
    QueryServer,
    ServedQuery,
    ServingPolicy,
)

__all__ = [  # repro: noqa[REP104] sweep record types; exported for annotations
    "OverloadPoint",
    "OverloadReport",
    "overload_sweep",
    "scripted_workload",
    "synthetic_store",
]

#: TLD mix for the synthetic store (echoes the paper's top-TLD skew).
_TLDS = ("com", "net", "org", "xyz", "top", "info", "biz")

#: Days of traffic the synthetic store covers.
_STORE_DAYS = 730


def synthetic_store(
    seed: int,
    domains: int = 500,
    rows_per_domain: int = 48,
    spill_dir: Optional[Any] = None,
) -> PassiveDnsDatabase:
    """A small deterministic store for serving experiments.

    ``domains`` registered domains across a fixed TLD mix, each with
    ``rows_per_domain`` observations scattered over two years from the
    study start — big enough that whole-store scans have real cost,
    small enough that a sweep runs in seconds.  ``spill_dir`` backs
    the store with the on-disk segment store, for experiments that
    interleave ``spill_commit`` with serving.
    """
    rng = make_rng(derive_seed(seed, "serving-store"))
    names = [
        DomainName(f"nx-{index:05d}.{_TLDS[index % len(_TLDS)]}")
        for index in range(domains)
    ]
    db = PassiveDnsDatabase(spill_dir=spill_dir)
    ids = db.intern_many(names)
    start = date_to_epoch(STUDY_START)
    n_rows = domains * rows_per_domain
    row_ids = np.repeat(ids, rows_per_domain)
    timestamps = rng.integers(
        start, start + _STORE_DAYS * SECONDS_PER_DAY, size=n_rows
    )
    counts = rng.integers(1, 6, size=n_rows)
    db.add_batch(row_ids, timestamps, counts)
    return db


def scripted_workload(
    db: PassiveDnsDatabase,
    seed: int,
    queries: int = 240,
    tenants: int = 5,
    start: Optional[int] = None,
    horizon: int = 5400,
) -> List[QueryRequest]:
    """A deterministic multi-tenant query mix over ``horizon`` seconds.

    Roughly a quarter whole-store aggregates (degradable), half
    per-domain series/timelines, and the rest activity-window scans,
    spread across ``tenants`` tenants and three priority classes with
    kind-appropriate deadline budgets.
    """
    rng = make_rng(derive_seed(seed, "serving-workload"))
    if start is None:
        start = date_to_epoch(STUDY_START)
    domains = db.all_domains()
    store_start = date_to_epoch(STUDY_START)
    store_end = store_start + _STORE_DAYS * SECONDS_PER_DAY
    offsets = np.sort(rng.integers(0, horizon, size=queries))
    requests: List[QueryRequest] = []
    for index in range(queries):
        roll = float(rng.random())
        domain = str(domains[int(rng.integers(0, len(domains)))])
        query: Query
        if roll < 0.25:
            query = TopDomainsQuery(n=int((1 + rng.integers(0, 3)) * 5))
            budget = 90
        elif roll < 0.55:
            days = int(rng.integers(30, 181))
            window_start = int(
                rng.integers(store_start, store_end - days * SECONDS_PER_DAY)
            )
            query = DailySeriesQuery(
                domain=domain,
                start=window_start,
                end=window_start + days * SECONDS_PER_DAY,
            )
            budget = 60
        elif roll < 0.80:
            pivot = int(
                rng.integers(
                    store_start + 30 * SECONDS_PER_DAY,
                    store_end - 30 * SECONDS_PER_DAY,
                )
            )
            query = TimelineQuery(domain=domain, pivot=pivot)
            budget = 60
        else:
            query = ActivityWindowQuery(domain=domain)
            budget = 150
        priority_roll = float(rng.random())
        if priority_roll < 0.25:
            priority = 0
        elif priority_roll < 0.90:
            priority = 1
        else:
            priority = 2
        requests.append(
            QueryRequest(
                query=query,
                tenant=f"tenant-{int(rng.integers(0, tenants))}",
                priority=priority,
                budget=budget,
                at=start + int(offsets[index]),
            )
        )
    return requests


@dataclass(frozen=True)
class OverloadPoint:
    """Outcome curves for one operating point of the sweep."""

    label: str
    submitted: int
    counts: Dict[str, int]
    p99_latency: int
    unhandled: int
    identity_mismatches: int
    breaker_opened: int
    fingerprint: str

    def count(self, disposition: Disposition) -> int:
        return self.counts.get(disposition.value, 0)

    @property
    def answered(self) -> int:
        return (
            self.count(Disposition.SERVED)
            + self.count(Disposition.CACHED)
            + self.count(Disposition.DEGRADED)
        )

    @property
    def answered_fraction(self) -> float:
        return self.answered / max(self.submitted, 1)

    def row(self) -> str:
        return (
            f"{self.label:<8} submitted={self.submitted:<4} "
            f"served={self.count(Disposition.SERVED):<4} "
            f"cached={self.count(Disposition.CACHED):<4} "
            f"degraded={self.count(Disposition.DEGRADED):<3} "
            f"shed={self.count(Disposition.SHED):<3} "
            f"cancelled={self.count(Disposition.CANCELLED):<3} "
            f"expired={self.count(Disposition.EXPIRED):<3} "
            f"p99={self.p99_latency}s"
        )


@dataclass(frozen=True)
class OverloadReport:
    """All sweep points plus the gates CI enforces."""

    seed: int
    points: Tuple[OverloadPoint, ...]
    latency_bound: int
    min_answered_fraction: float

    def baseline(self) -> OverloadPoint:
        for point in self.points:
            if point.label == "clean":
                return point
        raise ConfigError("sweep has no clean baseline point")

    def regressions(self) -> List[str]:
        """Gate violations (empty = the sweep passes)."""
        problems: List[str] = []
        baseline = None
        for point in self.points:
            if point.label == "clean":
                baseline = point
                break
        if baseline is None:
            return ["sweep has no clean baseline point"]
        for name in (
            Disposition.SHED,
            Disposition.DEGRADED,
            Disposition.CANCELLED,
            Disposition.EXPIRED,
            Disposition.REJECTED,
            Disposition.QUEUE_FULL,
            Disposition.FAILED,
        ):
            if baseline.count(name) != 0:
                problems.append(
                    f"clean baseline {name.value} = {baseline.count(name)}, "
                    "expected 0"
                )
        if baseline.answered != baseline.submitted:
            problems.append(
                f"clean baseline answered {baseline.answered} of "
                f"{baseline.submitted} submissions"
            )
        for point in self.points:
            accounted = sum(point.counts.values())
            if accounted != point.submitted:
                problems.append(
                    f"{point.label}: {accounted} outcomes for "
                    f"{point.submitted} submissions"
                )
            if point.unhandled != 0:
                problems.append(
                    f"{point.label}: {point.unhandled} unhandled exceptions"
                )
            if point.identity_mismatches != 0:
                problems.append(
                    f"{point.label}: {point.identity_mismatches} served "
                    "results differ from direct store calls"
                )
            if point.p99_latency > self.latency_bound:
                problems.append(
                    f"{point.label}: p99 latency {point.p99_latency}s over "
                    f"bound {self.latency_bound}s"
                )
            if point.answered_fraction < self.min_answered_fraction:
                problems.append(
                    f"{point.label}: answered fraction "
                    f"{point.answered_fraction:.2f} below floor "
                    f"{self.min_answered_fraction:.2f}"
                )
        return problems

    def rows(self) -> List[str]:
        return [point.row() for point in self.points]


def _values_equal(left: Any, right: Any) -> bool:
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        return bool(np.array_equal(np.asarray(left), np.asarray(right)))
    return bool(left == right)


def verify_identity(
    db: PassiveDnsDatabase, records: Sequence[ServedQuery], limit: int = 25
) -> int:
    """Count served results that differ from a direct store call.

    The core serving contract: the tier adds admission and caching,
    never transformation — a non-degraded result must be bit-identical
    to calling the store directly.
    """
    mismatches = 0
    checked = 0
    for record in records:
        if record.disposition is not Disposition.SERVED:
            continue
        direct = record.request.query.execute(db)
        if not _values_equal(record.value, direct):
            mismatches += 1
        checked += 1
        if checked >= limit:
            break
    return mismatches


def default_points() -> List[Tuple[str, FaultPlan]]:
    """The standard operating points, mildest to most hostile."""
    return [
        ("clean", FaultPlan()),
        ("slow", FaultPlan(slow_worker_rate=0.30, slow_worker_seconds=30)),
        (
            "stuck",
            FaultPlan(
                slow_worker_rate=0.20,
                slow_worker_seconds=30,
                stuck_worker_rate=0.15,
            ),
        ),
        ("storm", FaultPlan.overload(0.30, bursts=3, fanout=8)),
    ]


def overload_sweep(
    seed: int = 0,
    domains: int = 500,
    queries: int = 240,
    points: Optional[Sequence[Tuple[str, FaultPlan]]] = None,
    horizon: int = 5400,
    latency_bound: int = 420,
    min_answered_fraction: float = 0.5,
    identity_checks: int = 25,
    waves: int = 6,
) -> OverloadReport:
    """Replay one workload across operating points and gate the curves.

    The workload runs in ``waves`` with a small writer committing rows
    between them: every commit bumps the store generation, so fresh
    caches invalidate and degradable aggregates genuinely re-execute —
    which is what gives injected stuck workers something to wedge and
    the breaker something to open.  Identity is verified per wave,
    before the store moves past the generation the wave was served at.
    """
    start = date_to_epoch(STUDY_START) + 400 * SECONDS_PER_DAY
    workload = scripted_workload(
        synthetic_store(seed, domains=domains),
        seed,
        queries=queries,
        start=start,
        horizon=horizon,
    )
    admission = AdmissionPolicy(
        queue_capacity=16,
        cost_capacity=6_000,
        shed_start=0.45,
        shed_hard=0.80,
        tenant_limit=RateLimit(capacity=200, window_seconds=3600),
        default_budget=120,
    )
    serving = ServingPolicy(
        workers=2,
        base_service_seconds=1,
        cost_rate=200,
        # One wedged aggregate opens the circuit: the sweep wants the
        # degraded-read ladder exercised, not merely reachable.
        breaker_failures=1,
        breaker_reset=240,
    )
    wave_size = -(-len(workload) // max(waves, 1))
    results: List[OverloadPoint] = []
    for label, plan in points if points is not None else default_points():
        # Every point replays against its own freshly built store (the
        # interleaved writer below mutates it) with the burst horizon
        # pinned to the workload window so arrival storms overlap it.
        db = synthetic_store(seed, domains=domains)
        writer = make_rng(derive_seed(seed, "serving-writer"))
        store_names = db.all_domains()
        bound_plan = dataclasses.replace(
            plan, horizon_start=start, horizon_end=start + horizon
        )
        schedule = bound_plan.schedule(derive_seed(seed, f"sweep-{label}"))
        server = QueryServer(
            db,
            SimClock(start),
            admission=admission,
            serving=serving,
            schedule=schedule,
        )
        submitted = 0
        mismatches = 0
        for lo in range(0, len(workload), wave_size):
            records = server.serve(workload[lo : lo + wave_size])
            submitted += len(records)
            mismatches += verify_identity(db, records, limit=identity_checks)
            for _commit in range(3):
                db.add_rows(
                    store_names[int(writer.integers(0, len(store_names)))],
                    [
                        int(
                            writer.integers(
                                date_to_epoch(STUDY_START),
                                date_to_epoch(STUDY_START)
                                + _STORE_DAYS * SECONDS_PER_DAY,
                            )
                        )
                    ],
                    [int(writer.integers(1, 4))],
                )
        results.append(
            OverloadPoint(
                label=label,
                submitted=submitted,
                counts=dict(server.stats.counts),
                p99_latency=server.stats.p99_latency(),
                unhandled=server.stats.unhandled,
                identity_mismatches=mismatches,
                breaker_opened=server.breaker.times_opened,
                fingerprint=schedule.fingerprint(),
            )
        )
    return OverloadReport(
        seed=seed,
        points=tuple(results),
        latency_bound=latency_bound,
        min_answered_fraction=min_answered_fraction,
    )
