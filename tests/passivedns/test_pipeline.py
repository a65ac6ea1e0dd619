"""ResilientIngestPipeline: fault absorption, identity, checkpointing."""

import pytest

from repro.clock import SECONDS_PER_DAY, STUDY_START, date_to_epoch
from repro.dns.message import RCode
from repro.dns.name import DomainName
from repro.errors import ConfigError, UnknownKeyError, WorkloadError
from repro.faults import FaultPlan
from repro.passivedns.channel import SieChannel
from repro.passivedns.pipeline import ResilientIngestPipeline
from repro.passivedns.record import DnsObservation
from repro.resilience import RetryPolicy
from tests.passivedns.reference import ScalarDatabase

T0 = date_to_epoch(STUDY_START)


def _observations(count=300):
    return [
        DnsObservation(
            qname=DomainName(f"host{i}.example.com"),
            rcode=RCode.NXDOMAIN,
            timestamp=T0 + i * 3_600,
            sensor_id="s1",
        )
        for i in range(count)
    ]


def _plain_store(observations):
    db = ScalarDatabase()
    for observation in observations:
        db.ingest(observation)
    return db


# -- identity ----------------------------------------------------------------


def test_no_schedule_is_byte_identical_to_plain_ingest():
    observations = _observations()
    pipeline = ResilientIngestPipeline()
    pipeline.ingest_many(observations)
    pipeline.finish()
    assert pipeline.database.fingerprint() == _plain_store(observations).fingerprint()


def test_null_plan_is_byte_identical_to_plain_ingest():
    observations = _observations()
    pipeline = ResilientIngestPipeline(schedule=FaultPlan().schedule(3))
    pipeline.ingest_many(observations)
    pipeline.finish()
    assert pipeline.database.fingerprint() == _plain_store(observations).fingerprint()
    assert len(pipeline.schedule.log) == 0


def test_same_seed_same_faulted_output():
    observations = _observations()
    fingerprints = set()
    logs = set()
    for _ in range(2):
        pipeline = ResilientIngestPipeline(
            schedule=FaultPlan.loss(0.1).schedule(7)
        )
        pipeline.ingest_many(observations)
        pipeline.finish()
        fingerprints.add(pipeline.database.fingerprint())
        logs.add(pipeline.schedule.fingerprint())
    assert len(fingerprints) == 1
    assert len(logs) == 1


# -- fault absorption --------------------------------------------------------


def test_total_drop_loses_everything():
    pipeline = ResilientIngestPipeline(
        schedule=FaultPlan(drop_rate=1.0).schedule(1)
    )
    pipeline.ingest_many(_observations(50))
    pipeline.finish()
    assert pipeline.database.row_count() == 0
    assert pipeline.stats.dropped == 50


def test_duplicates_are_suppressed_by_dedup():
    observations = _observations(200)
    pipeline = ResilientIngestPipeline(
        schedule=FaultPlan(duplicate_rate=1.0).schedule(1)
    )
    pipeline.ingest_many(observations)
    pipeline.finish()
    assert pipeline.stats.duplicates_delivered == 200
    assert pipeline.database.duplicates_suppressed == 200
    assert pipeline.database.fingerprint() == _plain_store(observations).fingerprint()


def test_reorder_changes_arrival_not_content():
    observations = _observations(200)
    pipeline = ResilientIngestPipeline(
        schedule=FaultPlan(reorder_rate=0.5, reorder_depth=4).schedule(2)
    )
    pipeline.ingest_many(observations)
    pipeline.finish()
    assert pipeline.database.fingerprint() == _plain_store(observations).fingerprint()


def test_store_faults_are_fully_recovered():
    """Retries plus dead-letter replay mean store faults lose nothing."""
    observations = _observations(300)
    pipeline = ResilientIngestPipeline(
        schedule=FaultPlan(store_failure_rate=0.4).schedule(5),
        retry_policy=RetryPolicy(max_attempts=2),
    )
    pipeline.ingest_many(observations)
    assert pipeline.stats.store_retries > 0
    pipeline.finish()
    assert pipeline.database.fingerprint() == _plain_store(observations).fingerprint()


def test_subscriber_crashes_do_not_lose_stored_rows():
    observations = _observations(200)
    pipeline = ResilientIngestPipeline(
        schedule=FaultPlan(subscriber_crash_rate=0.3).schedule(4)
    )
    pipeline.ingest_many(observations)
    pipeline.finish()
    # The crashing tap dead-letters observations, but the store
    # subscriber already ingested them; replay dedups them away.
    assert pipeline.database.fingerprint() == _plain_store(observations).fingerprint()


def test_burst_amplifies_counts_inside_windows():
    plan = FaultPlan(burst_episodes=1, burst_days=30.0, burst_multiplier=5)
    schedule = plan.schedule(3)
    (window,) = schedule.burst_windows
    observation = DnsObservation(
        qname=DomainName("burst.example.com"),
        rcode=RCode.NXDOMAIN,
        timestamp=window.start + 10,
        sensor_id="s1",
        count=2,
    )
    pipeline = ResilientIngestPipeline(schedule=schedule)
    pipeline.ingest(observation)
    pipeline.finish()
    assert pipeline.database.total_responses() == 10
    assert pipeline.stats.burst_amplified == 1


# -- checkpoint / resume -----------------------------------------------------


def test_checkpoint_resume_matches_uninterrupted_run(tmp_path):
    observations = _observations(400)
    plan = FaultPlan.loss(0.1)

    uninterrupted = ResilientIngestPipeline(schedule=plan.schedule(7))
    uninterrupted.ingest_many(observations)
    uninterrupted.finish()

    # Interrupted run: ingest 250, checkpoint, "crash", resume fresh.
    first = ResilientIngestPipeline(
        schedule=plan.schedule(7),
        spill_dir=tmp_path,
        checkpoint_every=100,
    )
    for observation in observations[:250]:
        first.ingest(observation)
    first.checkpoint()

    second = ResilientIngestPipeline(
        schedule=plan.schedule(7),
        spill_dir=tmp_path,
        checkpoint_every=100,
    )
    cursor = second.resume()
    assert cursor == 250
    for observation in observations[cursor:]:
        second.ingest(observation)
    second.finish()

    assert (
        second.database.fingerprint() == uninterrupted.database.fingerprint()
    )
    assert second.stats.offered == uninterrupted.stats.offered
    assert second.stats.dropped == uninterrupted.stats.dropped


def test_resume_without_checkpoint_returns_zero(tmp_path):
    pipeline = ResilientIngestPipeline(spill_dir=tmp_path)
    assert pipeline.resume() == 0


def test_resume_after_ingest_is_refused(tmp_path):
    """Resume continues the store the pipeline opened; rows offered
    before it would be counted again on top of the checkpoint."""
    first = ResilientIngestPipeline(spill_dir=tmp_path, checkpoint_every=100)
    first.ingest_many(_observations(100))
    second = ResilientIngestPipeline(spill_dir=tmp_path, checkpoint_every=100)
    second.ingest(_observations(1)[0])
    with pytest.raises(ConfigError, match="precede"):
        second.resume()


def test_checkpoint_config_validation(tmp_path):
    with pytest.raises(ConfigError):
        ResilientIngestPipeline(checkpoint_every=10)
    with pytest.raises(ConfigError):
        ResilientIngestPipeline(checkpoint_every=-1)
    pipeline = ResilientIngestPipeline()
    with pytest.raises(ConfigError):
        pipeline.checkpoint()
    with pytest.raises(ConfigError):
        pipeline.resume()


# -- channel fan-out ---------------------------------------------------------


def _failing_subscriber(observation):
    raise WorkloadError("analysis tap bug")


def test_channel_raise_policy_still_delivers_to_everyone():
    channel = SieChannel()
    seen = []
    channel.subscribe(_failing_subscriber)
    channel.subscribe(seen.append)
    observation = _observations(1)[0]
    with pytest.raises(WorkloadError):
        channel.publish(observation)
    # The crash no longer starves later subscribers.
    assert seen == [observation]
    assert channel.subscriber_errors == 1


def test_unsubscribe_unknown_raises_library_error():
    channel = SieChannel()
    with pytest.raises(UnknownKeyError):
        channel.unsubscribe(_failing_subscriber)
    channel.subscribe(_failing_subscriber)
    channel.unsubscribe(_failing_subscriber)
    assert channel.subscriber_count == 0
