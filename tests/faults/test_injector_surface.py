"""Each stream injector keeps exactly the decision forms the program calls.

The ingest pipeline decides faults a batch at a time and the query
tier one query at a time, so each injector class carries one decision
form.  The record-at-a-time ingest rules are the test oracle in
:mod:`tests.faults.reference`, not program code; an injector nothing
can fire does not exist.
"""

import inspect

import repro.faults
from repro.faults import FaultPlan, injectors
from repro.faults.injectors import (
    BurstInjector,
    CrashInjector,
    DropInjector,
    DuplicateInjector,
    Injector,
    QueryBurstInjector,
    ReorderInjector,
    SlowWorkerInjector,
    StorageFaultInjector,
    StoreFaultInjector,
    StuckWorkerInjector,
)
from repro.passivedns.sensor import Sensor

from tests.faults import reference

#: The public members each stream injector class defines itself.
ALLOWED = {
    # Ingest injectors: the pipeline's batch decisions, the errors its
    # dead letters carry, and the reorder buffer's end-of-stream flush
    # (``held`` is the buffer depth the oracle comparisons read).
    DropInjector: {"drop_mask"},
    DuplicateInjector: {"copies_mask"},
    ReorderInjector: {"push_many", "flush", "held"},
    CrashInjector: {"crash_mask", "failure"},
    StoreFaultInjector: {"attempt_many", "failure"},
    BurstInjector: {"burst_mask"},
    # Serving injectors: the query tier decides one query at a time.
    SlowWorkerInjector: {"delay"},
    StuckWorkerInjector: {"stuck"},
    QueryBurstInjector: {"factor"},
}

INGEST = (
    DropInjector,
    DuplicateInjector,
    ReorderInjector,
    CrashInjector,
    StoreFaultInjector,
    BurstInjector,
)


def _public_members(cls):
    return {
        name
        for name, value in vars(cls).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or isinstance(value, property))
    }


def test_every_stream_injector_has_an_allowlist():
    stream = {
        cls
        for cls in vars(injectors).values()
        if isinstance(cls, type)
        and issubclass(cls, Injector)
        and cls is not Injector
        and not issubclass(cls, StorageFaultInjector)
    }
    assert stream == set(ALLOWED)


def test_stream_injectors_define_only_allowlisted_members():
    for cls, allowed in ALLOWED.items():
        assert _public_members(cls) == allowed, cls.__name__


def test_ingest_injectors_have_no_scalar_twin():
    scalar_rules = {
        name
        for name, value in vars(reference).items()
        if inspect.isfunction(value) and value.__module__ == reference.__name__
    }
    assert scalar_rules == {
        "should_drop", "copies", "push", "maybe_crash", "wrap", "check", "factor",
    }
    for cls in INGEST:
        assert not scalar_rules & set(dir(cls)), cls.__name__


def test_no_corruption_injector_or_sensor_faults():
    assert not hasattr(injectors, "CorruptionInjector")
    assert not hasattr(repro.faults, "CorruptionInjector")
    assert "corrupt_rate" not in FaultPlan.__dataclass_fields__
    assert "corrupt" not in FaultPlan().schedule(0).counters()
    assert list(inspect.signature(Sensor).parameters) == ["sensor_id", "channel"]
