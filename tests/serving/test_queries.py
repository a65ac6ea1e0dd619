"""Typed queries, deadlines, and the cooperative cost meter."""

from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.clock import SECONDS_PER_DAY, STUDY_START, date_to_epoch
from repro.dns.name import DomainName
from repro.errors import ConfigError, DeadlineExceededError
from repro.passivedns.database import PassiveDnsDatabase
from repro.serving import queries
from repro.serving import (
    ActivityWindowQuery,
    CostMeter,
    DailySeriesQuery,
    Deadline,
    TimelineQuery,
    TopDomainsQuery,
    query_from_payload,
    synthetic_store,
)

T0 = date_to_epoch(STUDY_START)


@pytest.fixture(scope="module")
def db():
    return synthetic_store(3, domains=120)


def test_deadline_arithmetic():
    deadline = Deadline.after(now=100, budget=30)
    assert deadline.expires_at == 130
    assert not deadline.expired(130)
    assert deadline.expired(131)
    assert deadline.remaining(110) == 20
    assert deadline.remaining(999) == 0
    with pytest.raises(ConfigError):
        Deadline.after(now=0, budget=0)


def test_meter_charges_and_cancels_at_checkpoints():
    meter = CostMeter(
        started_at=100, deadline=Deadline.after(100, 10), cost_rate=10,
        initial_delay=2,
    )
    meter.tick(50)  # 2 + 50//10 = 7s consumed; 107 <= 110
    assert meter.seconds() == 7
    with pytest.raises(DeadlineExceededError):
        meter.tick(50)  # 2 + 100//10 = 12s; 112 > 110
    # Without a deadline the meter only accounts.
    free = CostMeter(started_at=0, deadline=None, cost_rate=10)
    free.tick(10_000)
    assert free.seconds() == 1_000


def test_queries_match_direct_store_calls(db):
    domain = str(db.all_domains()[7])
    top = TopDomainsQuery(n=5).execute(db)
    assert len(top) == 5
    totals = {str(d): int(t) for d, t in zip(*[db.aggregate_snapshot()[0], db.aggregate_snapshot()[3]])}
    assert all(totals[name] == count for name, count in top)
    # Ranked by (-total, name): totals non-increasing, ties lexicographic.
    for (name_a, count_a), (name_b, count_b) in zip(top, top[1:]):
        assert (-count_a, name_a) < (-count_b, name_b)

    series = DailySeriesQuery(
        domain=domain, start=T0, end=T0 + 90 * SECONDS_PER_DAY
    ).execute(db)
    direct = db.daily_series_for(
        DomainName(domain), T0, T0 + 90 * SECONDS_PER_DAY
    )
    assert np.array_equal(series, direct)

    timeline = TimelineQuery(
        domain=domain, pivot=T0 + 200 * SECONDS_PER_DAY
    ).execute(db)
    assert np.array_equal(
        timeline,
        db.timeline_around(DomainName(domain), T0 + 200 * SECONDS_PER_DAY, 30, 30),
    )


def test_activity_window_counts_active_days(db):
    domain = db.all_domains()[3]
    result = ActivityWindowQuery(domain=str(domain)).execute(db)
    profile = db.profile(domain)
    assert result["total_queries"] == profile.total_queries
    full = db.daily_series_for(
        domain,
        (profile.first_seen // SECONDS_PER_DAY) * SECONDS_PER_DAY,
        profile.last_seen + SECONDS_PER_DAY,
    )
    assert result["active_days"] == int(np.count_nonzero(full))
    assert 1 <= result["active_days"] <= result["lifespan_days"]
    assert ActivityWindowQuery(domain="never-seen.example").execute(db) is None


def test_query_validation_and_cache_keys(db):
    with pytest.raises(ConfigError):
        TopDomainsQuery(n=0)
    with pytest.raises(ConfigError):
        DailySeriesQuery(domain="a.com", start=10, end=10)
    with pytest.raises(ConfigError):
        TimelineQuery(domain="a.com", pivot=0, days_before=0, days_after=0)
    keys = {
        TopDomainsQuery(n=5).cache_key(),
        TopDomainsQuery(n=10).cache_key(),
        DailySeriesQuery(domain="a.com", start=0, end=SECONDS_PER_DAY).cache_key(),
        TimelineQuery(domain="a.com", pivot=0).cache_key(),
        ActivityWindowQuery(domain="a.com").cache_key(),
    }
    assert len(keys) == 5
    for query in (TopDomainsQuery(), ActivityWindowQuery(domain="a.com")):
        assert query.estimated_cost(db) > 0


def test_query_from_payload_round_trip():
    query = query_from_payload({"kind": "daily-series", "domain": "x.com",
                                "start": 0, "end": SECONDS_PER_DAY})
    assert query == DailySeriesQuery(domain="x.com", start=0, end=SECONDS_PER_DAY)
    assert query_from_payload({"kind": "top-domains", "n": 3}) == TopDomainsQuery(n=3)
    with pytest.raises(ConfigError):
        query_from_payload({"kind": "no-such-kind"})
    with pytest.raises(ConfigError):
        query_from_payload({"kind": "timeline", "bogus": 1})


def test_only_whole_store_aggregates_degrade():
    assert TopDomainsQuery.degradable
    assert not DailySeriesQuery.degradable
    assert not TimelineQuery.degradable
    assert not ActivityWindowQuery.degradable


# -- top-domains ≡ the stride-sort scan ---------------------------------------


def _stride_sort_top(db, n, meter=None, stride=None):
    """The former ``TopDomainsQuery.execute``: a stride-by-stride sort.

    Kept as the reference: per ``stride`` domains it ticks the meter,
    then merges the stride's ``(-total, name)`` tuples into the best
    ``n`` so far.
    """
    stride = queries.CHECKPOINT_STRIDE if stride is None else stride
    domains, _first, _last, totals = db.aggregate_snapshot()
    best = []
    for lo in range(0, len(domains), stride):
        hi = min(lo + stride, len(domains))
        if meter is not None:
            meter.tick(hi - lo)
        chunk = [(-int(totals[i]), str(domains[i])) for i in range(lo, hi)]
        best = sorted(best + chunk)[:n]
    return [(name, -neg_total) for neg_total, name in best]


def _tied_store(seed, domains, levels):
    """A store whose totals take only ``levels`` values: heavy ties."""
    rng = np.random.default_rng(seed)
    db = PassiveDnsDatabase()
    # Shuffled names, so intern order and name order disagree.
    names = [DomainName(f"t{i:05d}.com") for i in rng.permutation(domains)]
    ids = db.intern_many(names)
    totals = rng.integers(1, levels + 1, domains)
    db.add_batch(ids, np.full(domains, T0, dtype=np.int64), totals)
    return db


def _outcome(run):
    try:
        return ("ok", run())
    except DeadlineExceededError as error:
        return ("cancelled", str(error))


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    domains=st.integers(min_value=0, max_value=120),
    levels=st.integers(min_value=1, max_value=4),
    n=st.integers(min_value=1, max_value=130),
    stride=st.integers(min_value=1, max_value=40),
    budget=st.integers(min_value=1, max_value=12),
)
def test_top_domains_equals_stride_sort(seed, domains, levels, n, stride, budget):
    """Same ranking, same checkpoints, same cancellation point.

    Small strides stand in for CHECKPOINT_STRIDE so a small store
    spans many checkpoints; ``n`` runs past the domain count and the
    store may be empty.
    """
    db = _tied_store(seed, domains, levels)
    with mock.patch.object(queries, "CHECKPOINT_STRIDE", stride):
        assert TopDomainsQuery(n=n).execute(db) == _stride_sort_top(db, n)
        meters = [
            CostMeter(started_at=0, deadline=Deadline(budget), cost_rate=7)
            for _ in range(2)
        ]
        fast = _outcome(lambda: TopDomainsQuery(n=n).execute(db, meters[0]))
        slow = _outcome(lambda: _stride_sort_top(db, n, meters[1]))
    assert fast == slow
    assert meters[0].checkpoints == meters[1].checkpoints
    assert meters[0].seconds() == meters[1].seconds()


def test_top_domains_equals_stride_sort_at_full_stride():
    """More domains than one CHECKPOINT_STRIDE, ties at every cutoff."""
    db = _tied_store(4, 2 * queries.CHECKPOINT_STRIDE + 300, levels=3)
    for n in (1, 5, 50, 3000, 10_000):
        meters = [CostMeter(started_at=0, deadline=None, cost_rate=1) for _ in "ab"]
        assert TopDomainsQuery(n=n).execute(db, meters[0]) == _stride_sort_top(
            db, n, meters[1]
        )
        assert meters[0].checkpoints == meters[1].checkpoints == 3
    assert TopDomainsQuery(n=3).execute(PassiveDnsDatabase()) == []
