"""Fault plans and their materialized schedules.

A :class:`FaultPlan` is a pure description — rates, window counts,
amplitudes — with no randomness of its own.  Calling
:meth:`FaultPlan.schedule` binds it to a seed and returns a
:class:`FaultSchedule`: one decorrelated :mod:`repro.rand` stream per
injector, materialized dropout/burst windows, and a shared
:class:`~repro.faults.injectors.InjectionLog`.  Identical (plan, seed)
pairs driven by identical event streams produce bit-identical logs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.clock import SECONDS_PER_DAY, STUDY_END, STUDY_START, date_to_epoch
from repro.errors import ConfigError
from repro.faults.injectors import (
    BurstInjector,
    CrashInjector,
    DropInjector,
    DuplicateInjector,
    InjectionEvent,
    InjectionLog,
    QueryBurstInjector,
    ReorderInjector,
    SlowWorkerInjector,
    StoreFaultInjector,
    StuckWorkerInjector,
)
from repro.rand import SeedSequenceFactory

__all__ = [  # repro: noqa[REP104] fault-plan record types; exported for annotations
    "DropoutWindow",
    "FaultPlan",
    "FaultSchedule",
    "InjectionEvent",
    "InjectionLog",
]

_RATE_FIELDS = (
    "drop_rate",
    "duplicate_rate",
    "reorder_rate",
    "subscriber_crash_rate",
    "store_failure_rate",
    "slow_worker_rate",
    "stuck_worker_rate",
)


@dataclass(frozen=True)
class DropoutWindow:
    """One scheduled dark period: ``[start, end)`` in epoch seconds."""

    start: int
    end: int


@dataclass(frozen=True)
class FaultPlan:
    """A seed-free description of which faults occur and how often.

    All rates are per-event probabilities in ``[0, 1]``; windowed
    faults (sensor dropout, bursts) are described by a count and a
    duration and placed uniformly over ``[horizon_start, horizon_end)``
    when the plan is scheduled.
    """

    #: Per-observation Bernoulli sensor loss.
    drop_rate: float = 0.0
    #: Count and length of scheduled sensor-dark windows.
    dropout_windows: int = 0
    dropout_window_days: float = 1.0
    #: Per-observation duplicate delivery.
    duplicate_rate: float = 0.0
    #: Per-observation hold-back (out-of-order delivery).
    reorder_rate: float = 0.0
    reorder_depth: int = 4
    #: Per-delivery subscriber crash.
    subscriber_crash_rate: float = 0.0
    #: Per-write transient store failure.
    store_failure_rate: float = 0.0
    #: Count, length, and amplitude of flood episodes.
    burst_episodes: int = 0
    burst_days: float = 1.0
    burst_multiplier: int = 5
    #: Per-query slow worker (serving tier): probability and injected
    #: extra service seconds.
    slow_worker_rate: float = 0.0
    slow_worker_seconds: int = 45
    #: Per-query wedged worker (progress stops; only the deadline
    #: reaper frees it).
    stuck_worker_rate: float = 0.0
    #: Count, length, and fan-out of arrival-burst episodes hitting
    #: the query tier's admission controller.
    query_burst_episodes: int = 0
    query_burst_days: float = 0.25
    query_burst_fanout: int = 8
    #: Window placement horizon (defaults to the study window).
    horizon_start: int = date_to_epoch(STUDY_START)
    horizon_end: int = date_to_epoch(STUDY_END)

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {value}")
        if (
            self.dropout_windows < 0
            or self.burst_episodes < 0
            or self.query_burst_episodes < 0
        ):
            raise ConfigError("window counts must be non-negative")
        if (
            self.dropout_window_days <= 0
            or self.burst_days <= 0
            or self.query_burst_days <= 0
        ):
            raise ConfigError("window durations must be positive")
        if self.reorder_depth < 1:
            raise ConfigError("reorder_depth must be at least 1")
        if self.burst_multiplier < 1:
            raise ConfigError("burst_multiplier must be at least 1")
        if self.query_burst_fanout < 1:
            raise ConfigError("query_burst_fanout must be at least 1")
        if self.slow_worker_seconds < 1:
            raise ConfigError("slow_worker_seconds must be at least 1")
        if self.horizon_end <= self.horizon_start:
            raise ConfigError("horizon_end must follow horizon_start")

    @classmethod
    def loss(cls, rate: float) -> "FaultPlan":
        """The degradation-curve operating point for ``rate`` loss.

        Drops ``rate`` of observations outright and stresses the
        resilience layer with half-rate duplicates and transient store
        failures (which dedup, retry, and dead-letter replay absorb, so
        the *net* loss stays at ``rate``).
        """
        if not 0.0 <= rate <= 1.0:
            raise ConfigError(f"loss rate must lie in [0, 1], got {rate}")
        return cls(
            drop_rate=rate,
            duplicate_rate=rate / 2.0,
            store_failure_rate=rate / 2.0,
        )

    @classmethod
    def overload(
        cls, rate: float, bursts: int = 2, fanout: int = 8
    ) -> "FaultPlan":
        """The serving-tier overload operating point for ``rate``.

        Slows ``rate`` of queries, wedges a quarter of that outright,
        and adds ``bursts`` arrival-flood episodes at ``fanout``× — the
        mix the overload sweep drives against the admission ladder.
        """
        if not 0.0 <= rate <= 1.0:
            raise ConfigError(f"overload rate must lie in [0, 1], got {rate}")
        return cls(
            slow_worker_rate=rate,
            stuck_worker_rate=rate / 4.0,
            query_burst_episodes=bursts,
            query_burst_fanout=fanout,
        )

    def schedule(self, seed: int) -> "FaultSchedule":
        """Materialize this plan against ``seed``."""
        return FaultSchedule(self, seed)


class FaultSchedule:
    """A plan bound to a seed: injectors, windows, and the shared log.

    Determinism contract: injector decisions depend only on (plan,
    seed, per-injector decision index) — never on wall-clock time,
    item content, or the interleaving of *other* injectors — so two
    runs over the same event stream produce bit-identical logs, and a
    resumed run can re-align by fast-forwarding draw counters.
    """

    def __init__(self, plan: FaultPlan, seed: int) -> None:
        self.plan = plan
        self.seed = int(seed)
        self._seeds = SeedSequenceFactory(self.seed).subfactory("faults")
        self.log = InjectionLog()
        self.dropout_windows = self._place_windows(
            "dropout-windows",
            plan.dropout_windows,
            plan.dropout_window_days,
        )
        self.burst_windows = self._place_windows(
            "burst-windows", plan.burst_episodes, plan.burst_days
        )
        self.drop = DropInjector(
            plan.drop_rate,
            [(w.start, w.end) for w in self.dropout_windows],
            self._seeds.rng("drop"),
            self.log,
        )
        self.duplicate = DuplicateInjector(
            plan.duplicate_rate, self._seeds.rng("duplicate"), self.log
        )
        self.reorder = ReorderInjector(
            plan.reorder_rate,
            plan.reorder_depth,
            self._seeds.rng("reorder"),
            self.log,
        )
        self.crash = CrashInjector(
            plan.subscriber_crash_rate, self._seeds.rng("crash"), self.log
        )
        self.store = StoreFaultInjector(
            plan.store_failure_rate, self._seeds.rng("store"), self.log
        )
        self.burst = BurstInjector(
            [(w.start, w.end) for w in self.burst_windows],
            plan.burst_multiplier,
            self._seeds.rng("burst"),
            self.log,
        )
        # Serving-tier injectors.  Streams are label-derived, so adding
        # these never perturbs the six ingest-side streams above.
        self.query_burst_windows = self._place_windows(
            "query-burst-windows",
            plan.query_burst_episodes,
            plan.query_burst_days,
        )
        self.slow_worker = SlowWorkerInjector(
            plan.slow_worker_rate,
            plan.slow_worker_seconds,
            self._seeds.rng("slow-worker"),
            self.log,
        )
        self.stuck_worker = StuckWorkerInjector(
            plan.stuck_worker_rate, self._seeds.rng("stuck-worker"), self.log
        )
        self.query_burst = QueryBurstInjector(
            [(w.start, w.end) for w in self.query_burst_windows],
            plan.query_burst_fanout,
            self._seeds.rng("query-burst"),
            self.log,
        )
        #: Every injector under its stream label, in ``summary`` order.
        self._injectors = {
            injector.name: injector
            for injector in (
                self.drop,
                self.duplicate,
                self.reorder,
                self.crash,
                self.store,
                self.burst,
                self.slow_worker,
                self.stuck_worker,
                self.query_burst,
            )
        }

    def _place_windows(
        self, label: str, count: int, days: float
    ) -> Tuple[DropoutWindow, ...]:
        """Place ``count`` windows of ``days`` uniformly over the horizon."""
        if count == 0:
            return ()
        rng = self._seeds.rng(label)
        duration = max(int(days * SECONDS_PER_DAY), 1)
        latest = max(self.plan.horizon_end - duration, self.plan.horizon_start)
        starts = sorted(
            int(rng.integers(self.plan.horizon_start, latest + 1))
            for _ in range(count)
        )
        return tuple(DropoutWindow(s, s + duration) for s in starts)

    def counters(self) -> Dict[str, int]:
        """Per-injector uniform-draw counts (the checkpoint payload)."""
        return {name: inj.draws for name, inj in self._injectors.items()}

    def fast_forward(self, counters: Dict[str, int]) -> None:
        """Re-align fresh injector streams with a checkpointed run."""
        for name, draws in counters.items():
            injector = self._injectors.get(name)
            if injector is None:
                raise ConfigError(f"unknown injector {name!r} in checkpoint")
            injector.fast_forward(int(draws))

    def fingerprint(self) -> str:
        """The injection log's SHA-256 (bit-identity across runs)."""
        return self.log.fingerprint()

    def summary(self) -> List[Tuple[str, int, int]]:
        """Per-injector (name, decisions, injected) rows, stable order."""
        return [
            (name, injector.decisions, injector.injected)
            for name, injector in self._injectors.items()
        ]
