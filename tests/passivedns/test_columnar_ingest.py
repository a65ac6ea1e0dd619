"""The columnar ingest pipeline ≡ the record-at-a-time reference model.

:class:`ResilientIngestPipeline` runs each chunk of offered
observations as columns; :class:`tests.passivedns.reference.ReferencePipeline`
offers them one at a time through the scalar injectors.  The two must
agree on every observable: store fingerprint and intern order, pipeline
stats, channel counters, injection log, draw counters, dead letters and
checkpoint payloads — under every fault family, for every chunk cut,
and across checkpoints that fall inside a caller's batch.
"""

import dataclasses

import pytest

from repro.clock import SECONDS_PER_DAY, STUDY_START, date_to_epoch
from repro.dns.message import RCode, RRType
from repro.dns.name import DomainName
from repro.faults import FaultPlan
from repro.passivedns import io as io_mod
from repro.passivedns import pipeline as pipeline_mod
from repro.passivedns.pipeline import ResilientIngestPipeline
from repro.passivedns.record import DnsObservation
from repro.resilience import RetryPolicy
from tests.passivedns import reference as reference_mod
from tests.passivedns.reference import ReferencePipeline

T0 = date_to_epoch(STUDY_START)
#: Window placement over the test streams' span, so windows hit rows.
HORIZON = dict(horizon_start=T0, horizon_end=T0 + 13 * SECONDS_PER_DAY)


def _observations(count=300):
    return [
        DnsObservation(
            qname=DomainName(f"host{i % 80}.example{i % 11}.com"),
            rcode=RCode.NXDOMAIN,
            timestamp=T0 + i * 3_600,
            sensor_id="s1",
            count=1 + i % 3,
        )
        for i in range(count)
    ]


def _mixed_observations(count=400):
    """NXDomains with NOERROR rows, reverse lookups and other rtypes."""
    out = []
    for i in range(count):
        if i % 9 == 0:
            qname = DomainName(f"{i % 7}.2.0.192.in-addr.arpa")
        else:
            qname = DomainName(f"www.site{i % 23}.org")
        out.append(
            DnsObservation(
                qname=qname,
                rcode=RCode.NOERROR if i % 5 == 0 else RCode.NXDOMAIN,
                timestamp=T0 + i * 1_800,
                sensor_id=f"s{i % 2}",
                rtype=RRType.AAAA if i % 4 == 0 else RRType.A,
            )
        )
    return out


def _spread_repeats(gap=5_000, rounds=3):
    """The same keys offered again more than a dedup window apart.

    The gap leaves more than ``DEDUP_WINDOW`` admissions between two
    copies even after the faulted plan's drops.
    """
    block = [
        DnsObservation(
            qname=DomainName(f"h{i}.spread{i % 50}.net"),
            rcode=RCode.NXDOMAIN,
            timestamp=T0 + i,
            sensor_id="s",
        )
        for i in range(gap)
    ]
    return block * rounds


def _build(cls, plan, seed, **kwargs):
    return cls(
        schedule=plan.schedule(seed) if plan is not None else None, **kwargs
    )


def _feed(pipeline, observations, batch):
    if batch is None:
        pipeline.ingest_many(observations)
        return
    for lo in range(0, len(observations), batch):
        pipeline.ingest_many(observations[lo : lo + batch])


def _letters(pipeline):
    return [
        (letter.item, letter.reason, letter.timestamp, letter.attempts)
        for letter in pipeline.dead_letters.letters()
    ]


def _state(pipeline):
    db = pipeline.database
    channel = pipeline.channel
    schedule = pipeline.schedule
    return {
        "fingerprint": db.fingerprint(),
        "domains": [str(d) for d in db.all_domains()],
        "rows": db.row_count(),
        "responses": db.total_responses(),
        "suppressed": db.duplicates_suppressed,
        "window": db.recent_keys(),
        "stats": dataclasses.asdict(pipeline.stats),
        "channel": (channel.published, channel.dropped, channel.subscriber_errors),
        "dlq": (pipeline.dead_letters.pushed, pipeline.dead_letters.evicted),
        "log": schedule.log.lines() if schedule is not None else [],
        "log_fingerprint": schedule.fingerprint() if schedule else None,
        "counters": schedule.counters() if schedule is not None else {},
        "summary": schedule.summary() if schedule is not None else [],
        "held": schedule.reorder.held if schedule is not None else 0,
    }


def _run(cls, observations, plan, seed, batch=None, **kwargs):
    """Feed, snapshot the dead letters, finish; return both states."""
    pipeline = _build(cls, plan, seed, **kwargs)
    _feed(pipeline, observations, batch)
    before = (_state(pipeline), _letters(pipeline))
    pipeline.finish()
    return before, _state(pipeline)


def _assert_same(observations, plan, seed, batch=None, **kwargs):
    columnar = _run(ResilientIngestPipeline, observations, plan, seed, batch, **kwargs)
    reference = _run(ReferencePipeline, observations, plan, seed, batch, **kwargs)
    assert columnar == reference
    return columnar


EVERYTHING = FaultPlan(
    drop_rate=0.05,
    duplicate_rate=0.1,
    reorder_rate=0.2,
    reorder_depth=4,
    store_failure_rate=0.1,
    subscriber_crash_rate=0.05,
    burst_episodes=1,
    burst_days=4.0,
    burst_multiplier=3,
    **HORIZON,
)

FAULT_MATRIX = [
    pytest.param(None, id="clean"),
    pytest.param(FaultPlan(drop_rate=0.15), id="drops"),
    pytest.param(FaultPlan(duplicate_rate=0.3), id="duplicates"),
    pytest.param(FaultPlan(reorder_rate=0.4, reorder_depth=5), id="reorder"),
    pytest.param(FaultPlan(store_failure_rate=0.25), id="store-faults"),
    pytest.param(FaultPlan(subscriber_crash_rate=0.2), id="crashes"),
    pytest.param(
        FaultPlan(burst_episodes=2, burst_days=3.0, burst_multiplier=4, **HORIZON),
        id="bursts",
    ),
    pytest.param(EVERYTHING, id="everything-at-once"),
    pytest.param(
        FaultPlan(
            dropout_windows=2, dropout_window_days=2.0, drop_rate=0.05, **HORIZON
        ),
        id="dropout-windows",
    ),
    pytest.param(
        FaultPlan(
            reorder_rate=0.95,
            reorder_depth=1,
            duplicate_rate=0.5,
            burst_episodes=3,
            burst_days=5.0,
            **HORIZON,
        ),
        id="overlapping-bursts-saturated-reorder",
    ),
]


@pytest.mark.parametrize("plan", FAULT_MATRIX)
@pytest.mark.parametrize("seed", [0, 7])
def test_columnar_matches_reference(plan, seed):
    (before, _), _ = _assert_same(
        _observations(), plan, seed, retry_policy=RetryPolicy(max_attempts=2)
    )
    assert plan is None or before["log"]


@pytest.mark.parametrize(
    "plan",
    [p for p in FAULT_MATRIX if p.id in ("bursts", "everything-at-once")],
)
def test_observations_built_only_for_dead_letters(plan, monkeypatch):
    """Rows travel as columns: a faulted ingest builds a
    :class:`DnsObservation` only for each dead-lettered row, once."""
    observations = _observations()
    built = []
    post_init = DnsObservation.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(DnsObservation, "__post_init__", counting)
    pipeline = _build(ResilientIngestPipeline, plan, 0)
    pipeline.ingest_many(observations)
    quarantined = {id(letter.item) for letter in pipeline.dead_letters.letters()}
    assert {id(o) for o in built} == quarantined
    assert len(built) == len(quarantined)
    pipeline.finish()
    assert len(built) == len(quarantined)


@pytest.mark.parametrize("attempts", [1, 4])
def test_retry_budgets(attempts):
    plan = FaultPlan(store_failure_rate=0.5, subscriber_crash_rate=0.1)
    (before, letters), _ = _assert_same(
        _observations(), plan, 3, retry_policy=RetryPolicy(max_attempts=attempts)
    )
    assert before["stats"]["store_failures"] > 0
    assert letters


def test_dead_letter_eviction():
    plan = FaultPlan(store_failure_rate=0.6, subscriber_crash_rate=0.3)
    (before, letters), after = _assert_same(
        _observations(),
        plan,
        5,
        retry_policy=RetryPolicy(max_attempts=1),
        dead_letter_capacity=8,
    )
    assert after["dlq"][1] > 0  # some letters were evicted
    assert len(letters) == 8


@pytest.mark.parametrize("plan", [None, EVERYTHING], ids=["clean", "faulted"])
def test_non_nxdomain_and_reverse_lookup_rows(plan):
    (before, _), _ = _assert_same(_mixed_observations(), plan, 11)
    assert before["channel"][1] > 0  # the filter dropped rows


@pytest.mark.parametrize("plan", [None, EVERYTHING], ids=["clean", "faulted"])
def test_repeats_spread_past_the_dedup_window(plan):
    observations = _spread_repeats()
    (before, _), after = _assert_same(observations, plan, 2, batch=4_096)
    # Every repeat is more than DEDUP_WINDOW admissions after its
    # first copy, so the window has forgotten it and it lands again.
    assert before["stats"]["dropped"] + before["rows"] >= len(observations) - 30


@pytest.mark.parametrize("batch", [1, 7, 4097, None])
def test_batch_cuts(batch):
    observations = _observations(600) + _mixed_observations(200)
    _assert_same(observations, EVERYTHING, 4, batch=batch)


def test_dedup_window_with_doubled_input():
    observations = [o for o in _observations(200) for _ in range(2)]
    plan = FaultPlan(reorder_rate=0.3, reorder_depth=3)
    _, after = _assert_same(observations, plan, 3)
    assert after["suppressed"] > 0


# -- checkpoints -------------------------------------------------------------


@pytest.fixture
def payloads(monkeypatch):
    """Record every checkpoint payload written, per pipeline class."""
    written = {ResilientIngestPipeline: [], ReferencePipeline: []}

    def recorder(cls):
        def save(db, cursor, injector_counters=None, extra=None):
            written[cls].append(
                io_mod._checkpoint_payload(db, cursor, injector_counters, extra)
            )
            return io_mod.save_checkpoint(db, cursor, injector_counters, extra)

        return save

    monkeypatch.setattr(pipeline_mod, "save_checkpoint", recorder(ResilientIngestPipeline))
    monkeypatch.setattr(reference_mod, "save_checkpoint", recorder(ReferencePipeline))
    return written


@pytest.mark.parametrize("layout", ["spill"])
@pytest.mark.parametrize("every, batch", [(64, 100), (100, 7), (37, None)])
def test_checkpoints_inside_batches_crash_and_resume(
    tmp_path, payloads, layout, every, batch
):
    observations = _observations(500)
    plan = EVERYTHING
    outcomes = []
    for cls in (ResilientIngestPipeline, ReferencePipeline):
        options = dict(
            spill_dir=tmp_path / cls.__name__,
            checkpoint_every=every,
            retry_policy=RetryPolicy(max_attempts=2),
        )
        first = _build(cls, plan, 9, **options)
        # "Crash" part-way through a caller's batch: stop feeding.
        _feed(first, observations[:301], batch)
        second = _build(cls, plan, 9, **options)
        cursor = second.resume()
        assert cursor == 301 - 301 % every
        _feed(second, observations[cursor:], batch)
        second.finish()
        outcomes.append((_state(first), _state(second)))
    assert outcomes[0] == outcomes[1]
    assert payloads[ResilientIngestPipeline] == payloads[ReferencePipeline]
    assert len(payloads[ResilientIngestPipeline]) >= 500 // every


def _store_state(pipeline):
    """Store content plus the schedule-determined counters.

    A checkpoint replays the dead-letter queue early, so
    ``store_retries``/``replay_recovered``/``checkpoints`` legitimately
    differ from an uninterrupted run.
    """
    db = pipeline.database
    return (
        db.fingerprint(),
        db.duplicates_suppressed,
        db.total_responses(),
        [str(d) for d in db.all_domains()],
        pipeline.stats.offered,
        pipeline.stats.dropped,
        pipeline.stats.duplicates_delivered,
    )


def test_checkpoint_mid_stretch_resume_matches_uninterrupted(tmp_path):
    """An explicit checkpoint between periodic ones, with rows still
    held by the reorder buffer, resumes to the uninterrupted store."""
    observations = _observations(400)
    plan = FaultPlan.loss(0.1)
    uninterrupted = _build(ResilientIngestPipeline, plan, 7)
    uninterrupted.ingest_many(observations)
    uninterrupted.finish()

    options = dict(spill_dir=tmp_path, checkpoint_every=100)
    first = _build(ResilientIngestPipeline, plan, 7, **options)
    first.ingest_many(observations[:250])
    first.checkpoint()
    second = _build(ResilientIngestPipeline, plan, 7, **options)
    cursor = second.resume()
    assert cursor == 250
    second.ingest_many(observations[cursor:])
    second.finish()
    assert _store_state(second) == _store_state(uninterrupted)


# -- conservation ledger -----------------------------------------------------


@pytest.mark.parametrize("plan", FAULT_MATRIX)
def test_ledger(plan):
    pipeline = _build(ResilientIngestPipeline, plan, 1)
    pipeline.ingest_many(_observations(800))
    stats = pipeline.finish()
    assert stats.delivered == stats.offered - stats.dropped + stats.duplicates_delivered
    channel = pipeline.channel
    assert channel.published + channel.dropped == stats.delivered
    if pipeline.dead_letters.evicted == 0:
        db = pipeline.database
        assert (
            db.row_count() + db.duplicates_suppressed
            == channel.published - stats.store_failures + stats.replay_recovered
        )
