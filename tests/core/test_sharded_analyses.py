"""§4–§6 analysis loops decompose over contiguous shards.

Each loop is a single serial pass whose merge is an integer sum or an
in-order concatenation.  Cutting the input into contiguous shards,
running the loop (or its per-item step) on each shard and merging in
shard order must therefore reproduce the whole-input result *exactly*,
not merely statistically.  This is the property any future sharded
scheduler would have to preserve.
"""

import numpy as np
import pytest

from repro.clock import SECONDS_PER_DAY
from repro.core.origin import WhoisJoinResult, whois_join
from repro.core.scale import expiry_timeline
from repro.honeypot.batch import PacketBatch, RequestBatch
from repro.honeypot.filtering import FilterStats, TwoStageFilter
from repro.honeypot.http import HttpRequest
from repro.honeypot.recorder import TrafficRecorder
from repro.workloads.trace import NxdomainTraceGenerator, TraceConfig


@pytest.fixture(scope="module")
def trace():
    generator = NxdomainTraceGenerator(
        seed=11, config=TraceConfig(total_domains=400, squat_count=16)
    )
    return generator.generate()


def _shards(items, count):
    """``items`` cut into ``count`` contiguous, order-preserving pieces."""
    bounds = np.linspace(0, len(items), count + 1).astype(int)
    return [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


# -- §4: expiry timeline -----------------------------------------------------


@pytest.mark.parametrize("jobs", [2, 4])
def test_expiry_timeline_sharded_matches_serial(trace, jobs):
    serial = expiry_timeline(trace, sample_size=60)
    candidates = [
        record
        for record in trace.expired_domains()
        if record.activity_days >= 120
    ][:60]
    accumulator = np.zeros(180, dtype=np.int64)
    for shard in _shards(candidates, jobs):
        partial = np.zeros(180, dtype=np.int64)
        for record in shard:
            pivot = record.became_nx_at
            partial[:60] += trace.pre_expiry_db.daily_series_for(
                record.domain, pivot - 60 * SECONDS_PER_DAY, pivot
            )
            partial[60:] += trace.nx_db.daily_series_for(
                record.domain, pivot, pivot + 120 * SECONDS_PER_DAY
            )
        accumulator += partial
    sharded = accumulator.astype(float) / max(len(candidates), 1)
    assert serial.sampled_domains == len(candidates) > 0
    assert sharded.tobytes() == serial.average_series.tobytes()

    seeded = expiry_timeline(trace, sample_size=60, rng=np.random.default_rng(5))
    again = expiry_timeline(trace, sample_size=60, rng=np.random.default_rng(5))
    assert again.sampled_domains == seeded.sampled_domains
    assert again.average_series.tobytes() == seeded.average_series.tobytes()


# -- §5: WHOIS join ----------------------------------------------------------


def _merged_join(domains, whois, jobs):
    merged = WhoisJoinResult(total_domains=0, with_history=0, never_registered=0)
    for shard in _shards(domains, jobs):
        part = whois_join(shard, whois)
        merged = WhoisJoinResult(
            total_domains=merged.total_domains + part.total_domains,
            with_history=merged.with_history + part.with_history,
            never_registered=merged.never_registered + part.never_registered,
        )
    return merged


@pytest.mark.parametrize("jobs", [2, 3, 4])
def test_whois_join_sharded_matches_serial(trace, jobs):
    domains = [record.domain for record in trace.population]
    serial = whois_join(domains, trace.whois)
    assert _merged_join(domains, trace.whois, jobs) == serial
    assert serial.with_history > 0 and serial.never_registered > 0


def test_whois_join_empty_population(trace):
    empty = whois_join([], trace.whois)
    assert empty == WhoisJoinResult(
        total_domains=0, with_history=0, never_registered=0
    )
    assert _merged_join([], trace.whois, 4) == empty


# -- §6: honeypot noise filter -----------------------------------------------


def _synthetic_traffic(n=600):
    rng = np.random.default_rng(2)
    requests = []
    for i in range(n):
        roll = rng.integers(0, 4)
        if roll == 0:
            src = f"scanner-{rng.integers(0, 10)}"
        elif roll == 1:
            src = f"control-{rng.integers(0, 10)}"
        else:
            src = f"visitor-{i}"
        path = (
            "/.well-known/acme-challenge/tok"
            if rng.integers(0, 3) == 0
            else f"/page{rng.integers(0, 5)}"
        )
        requests.append(
            HttpRequest(
                timestamp=1_000 + i, src_ip=src, host="study.example", path=path
            )
        )
    return RequestBatch.from_requests(requests)


def _calibrated_filter():
    no_hosting = TrafficRecorder("no-hosting")
    no_hosting.record_packet_batch(
        PacketBatch.of([0] * 10, src_ip=[f"scanner-{i}" for i in range(10)], port=80)
    )
    control = TrafficRecorder("control-group")
    control.record_batch(
        RequestBatch.of(
            [0] * 10,
            src_ip=[f"control-{i}" for i in range(10)],
            host="ctrl.example",
            path="/.well-known/acme-challenge/tok",
        )
    )
    return TwoStageFilter.calibrated(no_hosting, control)


@pytest.mark.parametrize("jobs", [2, 3, 8])
def test_noise_filter_sharded_matches_serial(jobs):
    traffic = _synthetic_traffic()
    noise_filter = _calibrated_filter()
    serial_kept, serial_stats = noise_filter.apply_batch(traffic)
    serial_kept = serial_kept.to_requests()
    sharded_kept, sharded_stats = [], FilterStats()
    for shard in _shards(np.arange(len(traffic)), jobs):
        kept, stats = noise_filter.apply_batch(traffic.take(shard))
        sharded_kept.extend(kept.to_requests())
        sharded_stats.input_requests += stats.input_requests
        sharded_stats.dropped_by_ip_baseline += stats.dropped_by_ip_baseline
        sharded_stats.dropped_by_control_group += stats.dropped_by_control_group
        sharded_stats.kept += stats.kept
    assert sharded_kept == serial_kept  # order-preserving concatenation
    assert sharded_stats == serial_stats
    assert serial_stats.dropped_by_ip_baseline > 0
    assert serial_stats.dropped_by_control_group > 0
