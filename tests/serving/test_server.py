"""The query server: caching, deadlines, degradation, determinism."""

import numpy as np
import pytest

from repro.clock import SECONDS_PER_DAY, STUDY_START, SimClock, date_to_epoch
from repro.faults import FaultPlan
from repro.resilience import BreakerState
from repro.serving import (
    ActivityWindowQuery,
    AdmissionPolicy,
    DailySeriesQuery,
    Disposition,
    QueryRequest,
    QueryServer,
    ServingPolicy,
    TopDomainsQuery,
    scripted_workload,
    synthetic_store,
)
from repro.serving.sweep import verify_identity

T0 = date_to_epoch(STUDY_START)
START = T0 + 400 * SECONDS_PER_DAY


def _server(db, **kwargs):
    return QueryServer(db, SimClock(START), **kwargs)


def test_serve_answers_everything_and_matches_direct_calls():
    db = synthetic_store(11, domains=150)
    server = _server(db)
    records = server.serve(scripted_workload(db, 11, queries=60, start=START))
    assert len(records) == 60
    assert [r.seq for r in records] == list(range(60))
    assert all(record.answered for record in records)
    assert server.stats.unhandled == 0
    assert verify_identity(db, records, limit=60) == 0
    # Answered latencies are bounded by budget + service.
    assert server.stats.p99_latency() < 300


def test_cache_serves_generation_then_invalidates_on_write():
    db = synthetic_store(5, domains=80)
    server = _server(db)
    request = QueryRequest(query=TopDomainsQuery(n=4))
    first = server.serve([request])[0]
    second = server.serve([request])[0]
    assert first.disposition is Disposition.SERVED
    assert second.disposition is Disposition.CACHED
    assert second.value == first.value
    assert second.generation == first.generation
    assert second.latency == 0
    # A committed write bumps the generation: the cache must refuse
    # the stale entry and re-execute.
    target = db.all_domains()[0]
    db.add(target, T0 + SECONDS_PER_DAY, 5)
    third = server.serve([request])[0]
    assert third.disposition is Disposition.SERVED
    assert third.generation > first.generation


def test_server_state_stays_bounded_across_writer_waves():
    """Server memory is bounded by keys, not by requests served.

    After several writer waves the caches hold at most one value per
    distinct degradable key (for degraded reads) plus the keys served
    at the live generation, and no outcome record outlives its call.
    """
    db = synthetic_store(9, domains=120)
    server = _server(db)
    degradable = set()
    for wave in range(4):
        requests = scripted_workload(
            db, 100 + wave, queries=40, start=server.clock.now
        )
        records = server.serve(requests)
        assert len(records) == 40
        degradable |= {
            r.query.cache_key() for r in requests if r.query.degradable
        }
        live = {
            r.request.query.cache_key()
            for r in records
            if r.answered and r.generation == db.generation
        }
        assert set(server._fresh) <= live
        assert set(server._stale) <= degradable
        assert server._batch == []
        db.add(db.all_domains()[wave], T0 + SECONDS_PER_DAY, 3)
    assert server._fresh_generation < db.generation
    assert len(server._stale) <= len(degradable)
    assert server.stats.total() == 160


def test_deadline_cancels_inside_long_scans():
    db = synthetic_store(6, domains=400)
    # cost_rate=1: one simulated second per cost unit, so a whole-store
    # aggregate (cost ~400) blows any sane budget mid-scan.
    server = _server(db, serving=ServingPolicy(cost_rate=1))
    record = server.serve(
        [QueryRequest(query=TopDomainsQuery(n=3), budget=40)]
    )[0]
    assert record.disposition is Disposition.CANCELLED
    assert "deadline" in record.detail
    assert record.value is None
    # The worker was consumed up to the cancelling checkpoint, not the
    # full scan: finish beyond the deadline by at most one stride.
    assert record.finished_at > START + 40


def test_dead_on_dequeue_is_never_started():
    db = synthetic_store(6, domains=300)
    # One worker; the first query holds it (cost_rate=1 -> ~300s) while
    # the second's 20s budget expires in the queue.
    server = _server(
        db,
        serving=ServingPolicy(workers=1, cost_rate=1),
        admission=AdmissionPolicy(tenant_limit=None),
    )
    blocker = QueryRequest(query=TopDomainsQuery(n=3), budget=3_600)
    doomed = QueryRequest(
        query=DailySeriesQuery(
            domain=str(db.all_domains()[1]),
            start=T0,
            end=T0 + 30 * SECONDS_PER_DAY,
        ),
        budget=20,
    )
    records = server.serve([blocker, doomed])
    assert records[1].disposition is Disposition.EXPIRED
    assert records[1].detail == "deadline passed while queued"
    assert records[1].value is None


def test_stuck_worker_trips_breaker_then_degraded_reads():
    db = synthetic_store(8, domains=100)
    request = QueryRequest(query=TopDomainsQuery(n=5), budget=60)
    schedule = FaultPlan(stuck_worker_rate=1.0).schedule(seed=1)
    server = _server(
        db, serving=ServingPolicy(breaker_failures=1), schedule=schedule
    )
    # Every execution wedges, so the first aggregate holds its worker
    # until the deadline reaper frees it — and that failure trips the
    # breaker at the reap instant.
    wedged = server.serve([request])[0]
    assert wedged.disposition is Disposition.CANCELLED
    assert wedged.detail == "stuck worker reaped at deadline"
    assert wedged.finished_at == wedged.submitted_at + 60
    assert server.breaker.state is BreakerState.OPEN
    # Breaker open and no stale value yet: degradable queries are
    # refused fast, not wedged again.
    rejected = server.serve([request])[0]
    assert rejected.disposition is Disposition.REJECTED
    assert rejected.latency == 0


def test_degraded_read_serves_last_good_generation():
    db = synthetic_store(8, domains=100)
    request = QueryRequest(query=TopDomainsQuery(n=5), budget=60)
    server = _server(db, serving=ServingPolicy(breaker_failures=1))
    healthy = server.serve([request])[0]
    assert healthy.disposition is Disposition.SERVED
    # The store moves on; then the aggregate path goes unhealthy.
    db.add(db.all_domains()[2], T0 + 2 * SECONDS_PER_DAY, 9)
    server.breaker.record_failure(now=server.clock.now)
    assert server.breaker.state is BreakerState.OPEN
    degraded = server.serve([request])[0]
    assert degraded.disposition is Disposition.DEGRADED
    assert degraded.degraded
    assert degraded.value == healthy.value
    assert degraded.generation == healthy.generation
    assert degraded.generation < db.generation
    # Non-degradable queries never consult the breaker.
    point = server.serve(
        [
            QueryRequest(
                query=DailySeriesQuery(
                    domain=str(db.all_domains()[0]),
                    start=T0,
                    end=T0 + 10 * SECONDS_PER_DAY,
                )
            )
        ]
    )[0]
    assert point.disposition is Disposition.SERVED


def test_burst_windows_fan_out_arrivals():
    db = synthetic_store(4, domains=60)
    plan = FaultPlan(
        query_burst_episodes=1,
        query_burst_days=1.0,
        query_burst_fanout=5,
        horizon_start=START,
        horizon_end=START + SECONDS_PER_DAY,
    )
    server = _server(db, schedule=plan.schedule(seed=0))
    # The single window spans the whole one-day horizon, so the
    # arrival lands inside it deterministically.
    records = server.serve(
        [QueryRequest(query=TopDomainsQuery(n=3), at=START + 100)]
    )
    assert len(records) == 5


def test_same_seed_replays_bit_identically():
    def run():
        db = synthetic_store(13, domains=120)
        schedule = FaultPlan.overload(0.4, bursts=2, fanout=4)
        schedule = schedule.schedule(seed=13)
        server = _server(db, schedule=schedule)
        records = server.serve(
            scripted_workload(db, 13, queries=80, start=START)
        )
        return [
            (r.seq, r.disposition.value, r.finished_at) for r in records
        ], schedule.fingerprint()

    assert run() == run()


def test_threaded_mode_matches_direct_calls():
    db = synthetic_store(9, domains=150)
    server = _server(db)
    workload = scripted_workload(db, 9, queries=120, start=START)
    records = server.serve_threaded(workload, threads=4)
    assert len(records) == 120
    assert server.stats.unhandled == 0
    for record in records:
        assert record.answered
        direct = record.request.query.execute(db)
        if isinstance(direct, np.ndarray):
            assert np.array_equal(record.value, direct)
        else:
            assert record.value == direct
