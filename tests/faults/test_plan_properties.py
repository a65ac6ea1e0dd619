"""Hypothesis properties for the fault harness's determinism contract.

The whole point of :mod:`repro.faults` is that a (plan, seed, event
stream) triple is bit-reproducible: same schedule decisions, same
injection log, same fingerprint — and that distinct injectors draw
from decorrelated streams so adding one fault type never perturbs the
decisions of another.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.clock import SECONDS_PER_DAY, STUDY_START, date_to_epoch
from repro.errors import InjectedFaultError, TransientStoreError
from repro.faults import FaultPlan

from tests.faults.reference import (
    check,
    copies,
    factor,
    maybe_crash,
    push,
    should_drop,
)

seeds = st.integers(min_value=0, max_value=2**31 - 1)
rates = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
T0 = date_to_epoch(STUDY_START)


def _step(schedule, index):
    """Drive every injector once for synthetic event ``index``."""
    timestamp = T0 + index * 3_600
    factor(schedule.burst, timestamp)
    if should_drop(schedule.drop, timestamp):
        return
    copies(schedule.duplicate, timestamp)
    push(schedule.reorder, index)
    try:
        maybe_crash(schedule.crash, f"event-{index}")
    except InjectedFaultError:
        pass
    try:
        check(schedule.store, f"event-{index}")
    except TransientStoreError:
        pass


def _drive(schedule, start=0, stop=200):
    for index in range(start, stop):
        _step(schedule, index)


@settings(deadline=None, max_examples=30)
@given(seed=seeds, rate=rates)
def test_same_seed_means_identical_injection_log(seed, rate):
    plan = FaultPlan(
        drop_rate=rate,
        duplicate_rate=rate / 2,
        reorder_rate=rate / 3,
        subscriber_crash_rate=rate / 4,
        store_failure_rate=rate / 5,
        dropout_windows=2,
        burst_episodes=1,
    )
    first = plan.schedule(seed)
    second = plan.schedule(seed)
    _drive(first)
    _drive(second)
    assert first.log.lines() == second.log.lines()
    assert first.fingerprint() == second.fingerprint()
    assert first.counters() == second.counters()


@settings(deadline=None, max_examples=30)
@given(seed=seeds)
def test_window_placement_is_seed_deterministic(seed):
    plan = FaultPlan(dropout_windows=3, dropout_window_days=2.0)
    assert (
        plan.schedule(seed).dropout_windows
        == plan.schedule(seed).dropout_windows
    )
    for window in plan.schedule(seed).dropout_windows:
        assert window.end - window.start == int(2.0 * SECONDS_PER_DAY)
        assert plan.horizon_start <= window.start < plan.horizon_end


@settings(deadline=None, max_examples=30)
@given(seed=seeds)
def test_injector_streams_are_decorrelated(seed):
    plan = FaultPlan(drop_rate=0.5, duplicate_rate=0.5)
    schedule = plan.schedule(seed)
    names = [name for name, _, _ in schedule.summary()]
    # each injector draws from the schedule's child stream of its name
    injector_seeds = [schedule._seeds.child_seed(name) for name in names]
    assert len(set(injector_seeds)) == len(names)


@settings(deadline=None, max_examples=20)
@given(seed=seeds, rate=st.floats(min_value=0.0, max_value=0.5))
def test_drop_decisions_do_not_depend_on_other_injectors(seed, rate):
    """Drop outcomes are identical whether or not duplicates are on."""
    lean = FaultPlan(drop_rate=rate)
    rich = FaultPlan(drop_rate=rate, duplicate_rate=0.9, store_failure_rate=0.9)
    timestamps = [T0 + i * SECONDS_PER_DAY for i in range(100)]
    lean_schedule = lean.schedule(seed)
    rich_schedule = rich.schedule(seed)
    lean_drops = [should_drop(lean_schedule.drop, t) for t in timestamps]
    rich_drops = [should_drop(rich_schedule.drop, t) for t in timestamps]
    assert lean_drops == rich_drops


@settings(deadline=None, max_examples=30)
@given(seed=seeds)
def test_fast_forward_realigns_a_fresh_schedule(seed):
    """Interrupt-then-resume takes exactly the uninterrupted decisions."""
    plan = FaultPlan(drop_rate=0.3, duplicate_rate=0.2, store_failure_rate=0.1)
    full = plan.schedule(seed)
    _drive(full, stop=120)

    head = plan.schedule(seed)
    _drive(head, stop=60)
    counters = head.counters()

    resumed = plan.schedule(seed)
    resumed.fast_forward(counters)
    _drive(resumed, start=60, stop=120)

    # The resumed run's injected faults must equal the uninterrupted
    # run's faults for events 60..119: same actions with the same
    # details, in the same order.  (Decision indices restart on resume,
    # so compare the "action detail" part of each rendered line.)
    head_len = len(head.log)
    full_lines = [e.render().split(None, 1)[1] for e in full.log.events()]
    resumed_lines = [e.render().split(None, 1)[1] for e in resumed.log.events()]
    assert full_lines[head_len:] == resumed_lines
