"""Deterministic fault injection.

The paper's measurement substrate ran for eight years in the wild,
where sensor dropout, duplicate and out-of-order delivery, crashing
consumers, and collector outages are routine.  This package
reproduces those failure modes *deterministically*: a
:class:`FaultPlan` describes which faults occur at which rates, and
:class:`FaultSchedule` materializes the plan against a seed so that
the same (plan, seed) pair produces a bit-identical injection
schedule — every decision flows through :mod:`repro.rand` streams and
simulated time, never wall-clock state.

The injectors are composable and content-agnostic (they decide over
timestamps, opaque items, and write boundaries): the ingest injectors
drive the passive DNS pipeline, the serving injectors the query tier,
and the storage injectors the spill store's write boundaries.  The
resilience primitives that absorb these faults live in
:mod:`repro.resilience`; the wired-up pipeline lives in
:mod:`repro.passivedns.pipeline`.
"""

from repro.faults.injectors import (
    BitFlipInjector,
    BurstInjector,
    CrashInjector,
    DropInjector,
    DuplicateInjector,
    FaultAction,
    FsyncLossInjector,
    Injector,
    QueryBurstInjector,
    ReorderInjector,
    SlowWorkerInjector,
    StorageFaultInjector,
    StoreFaultInjector,
    StuckWorkerInjector,
    TornWriteInjector,
)
from repro.faults.plan import (
    DropoutWindow,
    FaultPlan,
    FaultSchedule,
    InjectionEvent,
    InjectionLog,
)

__all__ = [  # repro: noqa[REP104] fault-plan record types; exported for annotations
    "BitFlipInjector",
    "BurstInjector",
    "CrashInjector",
    "DropInjector",
    "DropoutWindow",
    "DuplicateInjector",
    "FaultAction",
    "FaultPlan",
    "FaultSchedule",
    "FsyncLossInjector",
    "InjectionEvent",
    "InjectionLog",
    "Injector",
    "QueryBurstInjector",
    "ReorderInjector",
    "SlowWorkerInjector",
    "StorageFaultInjector",
    "StoreFaultInjector",
    "StuckWorkerInjector",
    "TornWriteInjector",
]
