"""Unit tests for the individual fault injectors."""

import numpy as np
import pytest

from repro.clock import SECONDS_PER_DAY, STUDY_START, date_to_epoch
from repro.errors import (
    ConfigError,
    InjectedFaultError,
    TransientStoreError,
)
from repro.faults import FaultPlan
from repro.faults.injectors import (
    CorruptionInjector,
    DropInjector,
    DuplicateInjector,
    InjectionLog,
    ReorderInjector,
)
from repro.rand import make_rng

T0 = date_to_epoch(STUDY_START)


def test_plan_rejects_out_of_range_rates():
    with pytest.raises(ConfigError):
        FaultPlan(drop_rate=1.5)
    with pytest.raises(ConfigError):
        FaultPlan(store_failure_rate=-0.1)
    with pytest.raises(ConfigError):
        FaultPlan(reorder_depth=0)
    with pytest.raises(ConfigError):
        FaultPlan(horizon_start=100, horizon_end=100)


def test_null_plan_is_null_and_injects_nothing():
    plan = FaultPlan()
    assert plan.is_null
    schedule = plan.schedule(0)
    for index in range(50):
        assert not schedule.drop.should_drop(T0 + index)
        assert schedule.duplicate.copies(T0 + index) == 1
        assert schedule.burst.factor(T0 + index) == 1
        schedule.crash.maybe_crash("x")
        schedule.store.check("x")
    assert len(schedule.log) == 0
    assert schedule.injected_total() == 0


def test_loss_plan_is_not_null():
    assert not FaultPlan.loss(0.05).is_null
    with pytest.raises(ConfigError):
        FaultPlan.loss(1.5)


def test_dropout_window_always_drops():
    log = InjectionLog()
    injector = DropInjector(
        0.0, [(T0, T0 + SECONDS_PER_DAY)], make_rng(1), log
    )
    assert injector.should_drop(T0 + 100)
    assert not injector.should_drop(T0 + SECONDS_PER_DAY)
    assert injector.window_drops == 1
    assert injector.random_drops == 0
    assert injector.draws == 2  # one draw per decision, window or not


def test_random_drop_rate_extremes():
    log = InjectionLog()
    never = DropInjector(0.0, [], make_rng(1), log)
    always = DropInjector(1.0, [], make_rng(1), log)
    assert not any(never.should_drop(T0 + i) for i in range(100))
    assert all(always.should_drop(T0 + i) for i in range(100))


def test_corruption_flips_exactly_one_byte():
    log = InjectionLog()
    injector = CorruptionInjector(1.0, make_rng(3), log)
    original = bytes(range(64))
    mangled = injector.corrupt(original)
    assert mangled is not original
    diffs = [i for i, (a, b) in enumerate(zip(original, mangled)) if a != b]
    assert len(diffs) == 1
    assert len(mangled) == len(original)


def test_corruption_returns_same_object_when_not_firing():
    log = InjectionLog()
    injector = CorruptionInjector(0.0, make_rng(3), log)
    original = b"\x01\x02\x03"
    assert injector.corrupt(original) is original
    assert injector.corrupt(b"") == b""


def test_duplicate_copies_is_one_or_two():
    log = InjectionLog()
    injector = DuplicateInjector(0.5, make_rng(4), log)
    copies = {injector.copies(T0 + i) for i in range(200)}
    assert copies == {1, 2}


def test_reorder_holds_then_releases_in_burst():
    log = InjectionLog()
    injector = ReorderInjector(1.0, 2, make_rng(5), log)
    assert injector.push("a") == []
    assert injector.push("b") == []
    assert injector.held == 2
    # Buffer full: the next item flushes everything, new item first.
    assert injector.push("c") == ["c", "a", "b"]
    assert injector.held == 0
    assert injector.push("d") == []
    assert injector.flush() == ["d"]
    assert injector.flush() == []


def test_reorder_rate_zero_is_passthrough():
    log = InjectionLog()
    injector = ReorderInjector(0.0, 4, make_rng(5), log)
    for item in ("a", "b", "c"):
        assert injector.push(item) == [item]


def test_crash_injector_raises_and_wraps():
    plan = FaultPlan(subscriber_crash_rate=1.0)
    schedule = plan.schedule(9)
    with pytest.raises(InjectedFaultError):
        schedule.crash.maybe_crash("tap")
    seen = []
    wrapped = schedule.crash.wrap(seen.append, context="tap")
    with pytest.raises(InjectedFaultError):
        wrapped("item")
    assert seen == []


def test_store_injector_raises_transient_store_error():
    plan = FaultPlan(store_failure_rate=1.0)
    schedule = plan.schedule(9)
    with pytest.raises(TransientStoreError):
        schedule.store.check("write")


def test_burst_factor_only_inside_windows():
    plan = FaultPlan(burst_episodes=1, burst_days=2.0, burst_multiplier=7)
    schedule = plan.schedule(11)
    (window,) = schedule.burst_windows
    assert schedule.burst.factor(window.start) == 7
    assert schedule.burst.factor(window.end) == 1
    assert schedule.burst.draws == 0  # purely window-driven


def test_fast_forward_rejects_negative_and_unknown():
    schedule = FaultPlan(drop_rate=0.5).schedule(1)
    with pytest.raises(ConfigError):
        schedule.drop.fast_forward(-1)
    with pytest.raises(ConfigError):
        schedule.fast_forward({"bogus": 3})
    with pytest.raises(ConfigError):
        schedule.injector_seed("bogus")


def test_log_fingerprint_tracks_content():
    plan = FaultPlan(drop_rate=1.0)
    a = plan.schedule(1)
    b = plan.schedule(1)
    a.drop.should_drop(T0)
    assert a.fingerprint() != b.fingerprint()
    b.drop.should_drop(T0)
    assert a.fingerprint() == b.fingerprint()
    assert a.log.lines() == b.log.lines()
    assert a.summary() == b.summary()


# -- storage-fault injectors (crash-at-a-write-boundary) --------------------


def _storage(cls, at, seed=0):
    from repro.faults.injectors import InjectionLog

    return cls(make_rng(seed), InjectionLog(), at=at)


def test_storage_probe_counts_boundaries_without_firing():
    from repro.faults.injectors import StorageFaultInjector

    probe = _storage(StorageFaultInjector, at=None)
    for index in range(10):
        action = probe.decide("write", f"/f{index}", 100)
        assert not (action.crash_before or action.crash_after)
        assert action.truncate_to is None and action.flip is None
        assert not action.lose
    assert probe.decisions == 10
    assert not probe.fired


def test_storage_injector_fires_exactly_once_at_pinned_boundary():
    from repro.faults.injectors import TornWriteInjector

    injector = _storage(TornWriteInjector, at=2)
    assert not injector.decide("write", "/a", 10).crash_after
    assert not injector.decide("fsync", "/a", 0).crash_before
    action = injector.decide("write", "/b", 64)
    assert injector.fired
    assert action.crash_after and action.truncate_to is not None
    assert 0 <= action.truncate_to < 64
    # Later boundaries are untouched: the injector fires once.
    follow_up = injector.decide("write", "/c", 64)
    assert not (follow_up.crash_after or follow_up.crash_before)
    assert follow_up.truncate_to is None


def test_torn_write_crashes_before_non_byte_boundaries():
    from repro.faults.injectors import TornWriteInjector

    injector = _storage(TornWriteInjector, at=0)
    assert injector.decide("replace", "/a", 0).crash_before


def test_bit_flip_corrupts_without_crashing():
    from repro.faults.injectors import BitFlipInjector

    injector = _storage(BitFlipInjector, at=0)
    action = injector.decide("write", "/a", 32)
    assert action.flip is not None
    position, mask = action.flip
    assert 0 <= position < 32
    assert mask and mask & (mask - 1) == 0  # single-bit mask
    assert not (action.crash_before or action.crash_after)


def test_fsync_loss_rolls_back_and_crashes():
    from repro.faults.injectors import FsyncLossInjector

    injector = _storage(FsyncLossInjector, at=0)
    action = injector.decide("fsync", "/a", 0)
    assert action.lose and action.crash_after


def test_unlink_is_an_enumerable_boundary():
    from repro.faults.injectors import STORAGE_OPS, StorageFaultInjector

    assert "unlink" in STORAGE_OPS
    probe = _storage(StorageFaultInjector, at=None)
    probe.decide("unlink", "/a", 0)
    assert probe.decisions == 1 and not probe.fired


def test_torn_write_crashes_before_unlink():
    from repro.faults.injectors import TornWriteInjector

    injector = _storage(TornWriteInjector, at=0)
    action = injector.decide("unlink", "/a", 0)
    assert action.crash_before and not action.lose


def test_bit_flip_crashes_after_unlink():
    from repro.faults.injectors import BitFlipInjector

    injector = _storage(BitFlipInjector, at=0)
    action = injector.decide("unlink", "/a", 0)
    assert action.crash_after and action.flip is None and not action.lose


def test_fsync_loss_loses_the_unlink_then_crashes():
    from repro.faults.injectors import FsyncLossInjector

    injector = _storage(FsyncLossInjector, at=0)
    action = injector.decide("unlink", "/a", 0)
    assert action.lose and action.crash_after


def test_storage_injector_rejects_bad_inputs():
    from repro.errors import InjectedCrashError
    from repro.faults.injectors import StorageFaultInjector, TornWriteInjector

    with pytest.raises(ConfigError):
        _storage(StorageFaultInjector, at=-1)
    injector = _storage(TornWriteInjector, at=0)
    with pytest.raises(ConfigError):
        injector.decide("chmod", "/a", 0)
    with pytest.raises(InjectedCrashError):
        injector.crash("unit-test")
    assert injector.injected == 1


# -- serving-tier injectors ------------------------------------------------


def test_slow_worker_delay_is_all_or_nothing():
    from repro.faults.injectors import SlowWorkerInjector

    log = InjectionLog()
    injector = SlowWorkerInjector(0.5, 30, make_rng(5), log)
    delays = [injector.delay(f"q{i}") for i in range(200)]
    assert set(delays) <= {0, 30}
    assert 0 < sum(d > 0 for d in delays) < 200
    assert injector.decisions == 200
    assert injector.injected == sum(d > 0 for d in delays)
    with pytest.raises(ConfigError):
        SlowWorkerInjector(0.1, 0, make_rng(5), InjectionLog())


def test_stuck_worker_rate_zero_and_one():
    from repro.faults.injectors import StuckWorkerInjector

    never = StuckWorkerInjector(0.0, make_rng(1), InjectionLog())
    always = StuckWorkerInjector(1.0, make_rng(1), InjectionLog())
    assert not any(never.stuck(f"q{i}") for i in range(50))
    assert all(always.stuck(f"q{i}") for i in range(50))


def test_query_burst_fans_out_only_inside_windows():
    from repro.faults.injectors import QueryBurstInjector

    windows = [(T0 + 100, T0 + 200), (T0 + 500, T0 + 600)]
    injector = QueryBurstInjector(windows, 6, make_rng(2), InjectionLog())
    assert injector.factor(T0 + 150) == 6
    assert injector.factor(T0 + 550) == 6
    assert injector.factor(T0 + 300) == 1
    assert injector.factor(T0 + 200) == 1  # end is exclusive
    assert injector.injected == 2
    with pytest.raises(ConfigError):
        QueryBurstInjector(windows, 0, make_rng(2), InjectionLog())


def test_overload_plan_schedules_serving_injectors():
    plan = FaultPlan.overload(0.2, bursts=2, fanout=4)
    assert not plan.is_null
    schedule = plan.schedule(seed=9)
    assert len(schedule.query_burst_windows) == 2
    assert schedule.query_burst.fanout == 4
    assert schedule.slow_worker.rate == 0.2
    assert schedule.stuck_worker.rate == 0.05
    # Same (plan, seed) -> bit-identical serving-fault decisions.
    replay = plan.schedule(seed=9)
    first = [schedule.slow_worker.delay(f"q{i}") for i in range(64)]
    second = [replay.slow_worker.delay(f"q{i}") for i in range(64)]
    assert first == second
    assert schedule.query_burst_windows == replay.query_burst_windows


# -- vector draws and batch decisions ------------------------------------------


def test_vector_draws_equal_scalar_draws():
    """``rng.random(n)`` reproduces n scalar ``rng.random()`` draws, the
    property every batch decision and ``fast_forward`` rely on."""
    scalar = make_rng(21)
    vector = make_rng(21)
    expected = [scalar.random() for _ in range(1_000)]
    got = list(vector.random(3)) + list(vector.random(997))
    assert got == expected


@pytest.mark.parametrize("skip", [0, 1, 5, 70_000])
def test_fast_forward_then_draw_matches_uninterrupted(skip):
    """Skipping in bounded vector chunks lands on the same stream state."""
    plan = FaultPlan(drop_rate=0.5)
    straight = plan.schedule(8)
    for _ in range(skip):
        straight.drop.should_drop(T0)
    resumed = plan.schedule(8)
    resumed.fast_forward({"drop": skip})
    assert resumed.counters() == straight.counters()
    tail = [resumed.drop.should_drop(T0) for _ in range(50)]
    assert tail == [straight.drop.should_drop(T0) for _ in range(50)]


def _twin_schedules(plan, seed):
    return plan.schedule(seed), plan.schedule(seed)


@pytest.mark.parametrize("seed", range(6))
def test_batch_decisions_match_scalar(seed):
    rng = make_rng(100 + seed)
    plan = FaultPlan(
        drop_rate=0.3,
        dropout_windows=3,
        dropout_window_days=1.0,
        duplicate_rate=0.4,
        burst_episodes=3,
        burst_days=1.5,
        subscriber_crash_rate=0.3,
        horizon_start=T0,
        horizon_end=T0 + 6 * SECONDS_PER_DAY,
    )
    scalar, batch = _twin_schedules(plan, seed)
    for _ in range(3):
        times = T0 + rng.integers(0, 6 * SECONDS_PER_DAY, size=int(rng.integers(0, 40)))
        expected = [scalar.burst.factor(t) > 1 for t in times.tolist()]
        amplified, events = batch.burst.burst_mask(times)
        batch.log.extend(events)
        assert amplified.tolist() == expected
        expected = [scalar.drop.should_drop(t) for t in times.tolist()]
        dropped, events = batch.drop.drop_mask(times)
        batch.log.extend(events)
        assert dropped.tolist() == expected
        expected = [scalar.duplicate.copies(t) == 2 for t in times.tolist()]
        doubled, events = batch.duplicate.copies_mask(times)
        batch.log.extend(events)
        assert doubled.tolist() == expected
        expected = []
        for _ in times:
            try:
                scalar.crash.maybe_crash("tap")
                expected.append(False)
            except InjectedFaultError:
                expected.append(True)
        crashed, events = batch.crash.crash_mask(len(times), "tap")
        batch.log.extend(events)
        assert crashed.tolist() == expected
    assert batch.log.lines() == scalar.log.lines()
    assert batch.summary() == scalar.summary()
    assert batch.counters() == scalar.counters()
    assert batch.drop.window_drops == scalar.drop.window_drops
    assert batch.drop.random_drops == scalar.drop.random_drops


@pytest.mark.parametrize("seed", range(40))
def test_push_many_matches_push(seed):
    rng = make_rng(seed)
    plan = FaultPlan(
        reorder_rate=float(rng.choice([0.0, 0.3, 0.8, 1.0])),
        reorder_depth=int(rng.integers(1, 6)),
    )
    scalar, batch = _twin_schedules(plan, seed)
    released, batched = [], []
    serial = 0
    for size in rng.integers(0, 30, size=4).tolist():
        items = list(range(serial, serial + size))
        serial += size
        for push, item in enumerate(items):
            released += [(out, push) for out in scalar.reorder.push(item)]
        candidates = list(batch.reorder._held) + items
        order, at, holds, events = batch.reorder.push_many(items)
        batch.log.extend(events)
        batched += [(candidates[p], k) for p, k in zip(order.tolist(), at.tolist())]
        assert batch.reorder.held == scalar.reorder.held
    assert batched == released
    assert batch.reorder.flush() == scalar.reorder.flush()
    assert batch.log.lines() == scalar.log.lines()
    assert batch.counters() == scalar.counters()


@pytest.mark.parametrize("attempts", [1, 2, 4])
@pytest.mark.parametrize("rate", [0.0, 0.3, 0.7, 1.0])
def test_attempt_many_matches_retried_check(attempts, rate):
    plan = FaultPlan(store_failure_rate=rate)
    scalar, batch = _twin_schedules(plan, 13)
    for size in (0, 1, 37, 5):
        contexts = [f"name{i}" for i in range(size)]
        expected = []
        for context in contexts:
            failures = 0
            while failures < attempts:
                try:
                    scalar.store.check(context)
                    break
                except TransientStoreError:
                    failures += 1
            expected.append((failures, failures == attempts))
        failed, items, events = batch.store.attempt_many(contexts, attempts)
        batch.log.extend(events)
        failures = np.bincount(items, minlength=size)
        assert list(zip(failures.tolist(), failed.tolist())) == expected
    assert batch.log.lines() == scalar.log.lines()
    assert batch.counters() == scalar.counters()
