"""Tests for the columnar passive DNS database."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.clock import SECONDS_PER_DAY
from repro.dns.message import RCode
from repro.dns.name import DomainName
from repro.passivedns.database import PassiveDnsDatabase
from repro.passivedns.pipeline import ResilientIngestPipeline
from repro.passivedns.record import DnsObservation
from repro.passivedns.sampling import sample_domains, scale_up
from repro.rand import make_rng
from tests.passivedns.reference import ScalarDatabase, daily_series_scan

DAY = SECONDS_PER_DAY
D1 = DomainName("alpha.com")
D2 = DomainName("beta.net")


@pytest.fixture
def db():
    database = PassiveDnsDatabase()
    database.add_rows(D1, [0], [10])
    database.add_rows(D1, [5 * DAY], [5])
    database.add_rows(D2, [2 * DAY], [3])
    return database


class TestIngestion:
    def test_totals(self, db):
        assert db.total_responses() == 18
        assert db.unique_domains() == 2
        assert db.row_count() == 3

    def test_ingest_filters_non_nx(self):
        pipeline = ResilientIngestPipeline()
        pipeline.ingest(DnsObservation(DomainName("x.org"), RCode.NOERROR, 0))
        assert pipeline.database.unique_domains() == 0
        pipeline.ingest(DnsObservation(DomainName("x.org"), RCode.NXDOMAIN, 0))
        assert pipeline.database.unique_domains() == 1

    def test_subdomains_collapse_via_ingest(self):
        pipeline = ResilientIngestPipeline()
        pipeline.ingest_many(
            [
                DnsObservation(D1, RCode.NXDOMAIN, 0, count=15),
                DnsObservation(DomainName("www.alpha.com"), RCode.NXDOMAIN, 9 * DAY),
            ]
        )
        assert pipeline.database.profile(D1).total_queries == 16
        assert pipeline.database.unique_domains() == 1

    def test_count_validation(self, db):
        with pytest.raises(ValueError):
            db.add_rows(D1, [0], [0])
        # A rejected write interns nothing.
        with pytest.raises(ValueError):
            db.add_rows(DomainName("new.org"), [0, DAY], [1, 0])
        assert db.unique_domains() == 2


class TestProfiles:
    def test_profile_aggregates(self, db):
        profile = db.profile(D1)
        assert profile.first_seen == 0
        assert profile.last_seen == 5 * DAY
        assert profile.total_queries == 15
        assert profile.lifespan_days() == 5
        assert profile.tld == "com"

    def test_profile_missing(self, db):
        assert db.profile(DomainName("nope.org")) is None

    def test_profile_by_subdomain(self, db):
        assert db.profile(DomainName("www.alpha.com")).domain == D1

    def test_monthly_rate(self, db):
        # 15 queries over 5 days -> months = max(5,1)/30 = 1/6 -> 90/month.
        # A sub-month lifespan is *not* clamped up to a full month: the
        # rate is a true per-month extrapolation, so short-lived bursts
        # rank above slow drips of the same total volume.
        assert db.profile(D1).monthly_rate() == pytest.approx(90.0)

    def test_monthly_rate_single_day(self, db):
        # Zero-day lifespans use the one-day floor: 3 / (1/30) = 90.
        assert db.profile(D2).monthly_rate() == pytest.approx(90.0)

    def test_high_traffic_selection(self, db):
        # Both fixtures extrapolate to 90/month, so thresholds select on
        # the unclamped rate.  100 excludes both; 90 keeps both; the §3.3
        # study-set selection is unaffected because it also requires a
        # >=180-day NX window, where the old clamp never bound.
        assert db.high_traffic_domains(100) == []
        assert {p.domain for p in db.high_traffic_domains(90)} == {D1, D2}
        assert {p.domain for p in db.high_traffic_domains(1)} == {D1, D2}


class TestSeries:
    def test_monthly_series(self, db):
        series = db.monthly_response_series()
        assert series == {"2014-01": 18} or sum(series.values()) == 18

    def test_monthly_series_spans_months(self):
        db = PassiveDnsDatabase()
        db.add_rows(D1, [0], [1])  # 1970-01
        db.add_rows(D1, [40 * DAY], [2])  # 1970-02
        series = db.monthly_response_series()
        assert series["1970-01"] == 1
        assert series["1970-02"] == 2

    def test_empty_series(self):
        assert PassiveDnsDatabase().monthly_response_series() == {}

    def test_daily_series(self, db):
        series = db.daily_series_for(D1, start=0, end=7 * DAY)
        assert series[0] == 10
        assert series[5] == 5
        assert series.sum() == 15

    def test_daily_series_window_clips(self, db):
        series = db.daily_series_for(D1, start=DAY, end=6 * DAY)
        assert series.sum() == 5

    def test_daily_series_unknown_domain(self, db):
        assert db.daily_series_for(DomainName("nope.org"), 0, DAY).sum() == 0

    def test_timeline_around_pivot(self, db):
        timeline = db.timeline_around(D1, pivot=3 * DAY, days_before=3, days_after=4)
        assert len(timeline) == 7
        assert timeline[0] == 10  # day -3 = t0
        assert timeline[5] == 5   # day +2 = t5


class TestTlds:
    def test_tld_histogram(self, db):
        histogram = db.tld_histogram()
        assert histogram["com"] == (1, 15)
        assert histogram["net"] == (1, 3)

    def test_top_tlds_order(self):
        db = PassiveDnsDatabase()
        for i in range(3):
            db.add_rows(DomainName(f"a{i}.com"), [0], [1])
        db.add_rows(DomainName("b.net"), [0], [100])
        top = db.top_tlds(2)
        assert top[0][0] == "com"  # ranked by unique domains
        assert top[0][1] == 3
        assert top[1] == ("net", 1, 100)


class TestLifespanDecay:
    def test_decay_shapes(self):
        db = PassiveDnsDatabase()
        # d1 queried on days 0,1,2; d2 only day 0.
        for day in range(3):
            db.add_rows(D1, [day * DAY], [2])
        db.add_rows(D2, [10 * DAY], [1])  # its own day 0
        domains, queries = db.lifespan_decay(max_days=5)
        assert domains.tolist() == [2, 1, 1, 0, 0]
        assert queries.tolist() == [3, 2, 2, 0, 0]

    def test_decay_window_bound(self):
        db = PassiveDnsDatabase()
        db.add_rows(D1, [0], [1])
        db.add_rows(D1, [100 * DAY], [1])
        domains, queries = db.lifespan_decay(max_days=10)
        assert queries.sum() == 1  # the day-100 row falls outside

    def test_empty_decay(self):
        domains, queries = PassiveDnsDatabase().lifespan_decay(5)
        assert domains.sum() == 0 and queries.sum() == 0

    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 30)), min_size=1, max_size=50))
    def test_decay_conserves_queries(self, rows):
        db = PassiveDnsDatabase()
        for domain_index, day in rows:
            db.add_rows(DomainName(f"d{domain_index}.com"), [day * DAY], [1])
        _, queries = db.lifespan_decay(max_days=31)
        assert queries.sum() == len(rows)


class TestBatchIngest:
    def test_batch_matches_scalar(self):
        """add_batch lands the same store as the row-by-row oracle."""
        rng = make_rng(7)
        domains = [DomainName(f"d{i}.com") for i in range(20)]
        rows = [
            (domains[int(rng.integers(0, 20))],
             int(rng.integers(0, 400)) * DAY,
             int(rng.integers(1, 9)))
            for _ in range(500)
        ]
        scalar = ScalarDatabase()
        for domain, timestamp, count in rows:
            scalar.add(domain, timestamp, count)
        batched = PassiveDnsDatabase()
        ids = batched.intern_many(domain for domain, _, _ in rows)
        batched.add_batch(
            ids,
            np.asarray([t for _, t, _ in rows], dtype=np.int64),
            np.asarray([c for _, _, c in rows], dtype=np.int64),
        )
        assert batched.fingerprint() == scalar.fingerprint()
        assert batched.total_responses() == scalar.total_responses()
        assert batched.monthly_response_series() == scalar.monthly_response_series()
        assert batched.tld_histogram() == scalar.tld_histogram()
        for domain in domains:
            a, b = batched.profile(domain), scalar.profile(domain)
            assert (a is None) == (b is None)
            if a is not None:
                assert (a.first_seen, a.last_seen, a.total_queries) == (
                    b.first_seen, b.last_seen, b.total_queries
                )

    def test_add_rows_matches_scalar(self):
        scalar = ScalarDatabase()
        batched = PassiveDnsDatabase()
        times = [0, 3 * DAY, 3 * DAY, 9 * DAY]
        counts = [2, 1, 4, 1]
        for t, c in zip(times, counts):
            scalar.add(D1, t, c)
        batched.add_rows(D1, times, counts)
        assert batched.fingerprint() == scalar.fingerprint()
        assert batched.row_count() == scalar.row_count() == 4

    def test_batch_validation(self):
        db = PassiveDnsDatabase()
        ids = db.intern_many([D1])
        with pytest.raises(ValueError):
            db.add_batch(ids, np.asarray([0, DAY]), np.asarray([1, 1]))
        with pytest.raises(ValueError):
            db.add_batch(ids, np.asarray([0]), np.asarray([0]))
        with pytest.raises(ValueError):
            db.add_batch(np.asarray([5]), np.asarray([0]), np.asarray([1]))

    def test_empty_batch_is_noop(self, db):
        before = db.fingerprint()
        db.add_batch(
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
        db.add_rows(D1, [], [])
        assert db.fingerprint() == before

    def test_chunk_sealing_preserves_contents(self):
        """Rows straddling multiple sealed chunks read back intact."""
        db = PassiveDnsDatabase()
        db._CHUNK = 64  # instance-level override: seal early
        rng = make_rng(11)
        total = 0
        for i in range(300):
            count = int(rng.integers(1, 5))
            total += count
            db.add_rows(DomainName(f"d{i % 7}.com"), [i * DAY], [count])
        assert db.row_count() == 300
        assert db.total_responses() == total
        series = db.daily_series_for(DomainName("d0.com"), 0, 300 * DAY)
        assert series.sum() == db.profile(DomainName("d0.com")).total_queries

    def test_snapshot_immune_to_later_appends(self):
        """Column snapshots must not alias the mutable tail buffer."""
        db = PassiveDnsDatabase()
        db.add_rows(D1, [0], [10])
        ids, times, counts = db._columns()
        db.add_rows(D2, [5 * DAY], [3])
        assert counts.tolist() == [10]
        assert db._columns()[2].tolist() == [10, 3]


class TestAggregateCache:
    def test_cache_invalidated_by_add(self, db):
        """Aggregates recompute after a post-aggregation mutation."""
        assert db.monthly_response_series()  # prime the cache
        first_fp = db.fingerprint()
        histogram = db.tld_histogram()
        assert histogram["com"] == (1, 15)
        db.add_rows(DomainName("gamma.org"), [7 * DAY], [4])
        assert db.total_responses() == 22
        assert db.tld_histogram()["org"] == (1, 4)
        assert sum(db.monthly_response_series().values()) == 22
        assert db.fingerprint() != first_fp
        decay_before = db.lifespan_decay(5)[1].sum()
        db.add_rows(DomainName("gamma.org"), [7 * DAY], [1])
        assert db.lifespan_decay(5)[1].sum() == decay_before + 1

    def test_cached_results_are_copies(self, db):
        db.monthly_response_series()["2014-01"] = -1
        assert -1 not in db.monthly_response_series().values()
        db.lifespan_decay(5)[0][:] = -1
        assert (db.lifespan_decay(5)[0] >= 0).all()

    def test_fingerprint_order_insensitive(self):
        forward = PassiveDnsDatabase()
        backward = PassiveDnsDatabase()
        rows = [(D1, 0, 1), (D2, DAY, 2), (D1, 2 * DAY, 3)]
        for domain, t, c in rows:
            forward.add_rows(domain, [t], [c])
        for domain, t, c in reversed(rows):
            backward.add_rows(domain, [t], [c])
        assert forward.fingerprint() == backward.fingerprint()


class TestIndexedSeries:
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 5), st.integers(0, 120), st.integers(1, 6)
            ),
            min_size=1,
            max_size=80,
        ),
        st.integers(0, 60),
        st.integers(0, 70),
    )
    def test_indexed_matches_scan(self, rows, start_day, span_days):
        """The CSR-indexed series equals the reference masked scan."""
        db = PassiveDnsDatabase()
        for domain_index, day, count in rows:
            db.add_rows(DomainName(f"d{domain_index}.com"), [day * DAY], [count])
        start = start_day * DAY
        end = (start_day + span_days) * DAY
        for domain_index in range(6):
            domain = DomainName(f"d{domain_index}.com")
            np.testing.assert_array_equal(
                db.daily_series_for(domain, start, end),
                daily_series_scan(db, domain, start, end),
            )


_KEY_ROWS = st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, 4), st.integers(0, 3)),
    max_size=60,
)


def _key_observation(sensor, name, time):
    return DnsObservation(
        qname=DomainName(f"d{name}.com"),
        rcode=RCode.NXDOMAIN,
        timestamp=time,
        sensor_id=f"s{sensor}",
        count=1 + time % 2,
    )


class TestBatchAdmit:
    """``admit_many`` over batches ≡ the oracle's one ``admit`` per observation."""

    def _check(self, rows, window, cuts):
        observations = [_key_observation(*row) for row in rows]
        scalar = ScalarDatabase(deduplicate=True)
        batched = PassiveDnsDatabase(deduplicate=True)
        for db in (scalar, batched):
            db.DEDUP_WINDOW = window
        expected = [scalar.admit(o) for o in observations]
        got = []
        bounds = sorted({0, len(observations), *cuts})
        for lo, hi in zip(bounds, bounds[1:]):
            batch = observations[lo:hi]
            got += batched.admit_many(
                [o.sensor_id for o in batch],
                [str(o.qname) for o in batch],
                np.array([int(o.rcode) for o in batch], dtype=np.int64),
                np.array([int(o.rtype) for o in batch], dtype=np.int64),
                np.array([o.timestamp for o in batch], dtype=np.int64),
                np.array([o.count for o in batch], dtype=np.int64),
            ).tolist()
        assert got == expected
        assert batched.recent_keys() == scalar.recent_keys()
        assert batched.duplicates_suppressed == scalar.duplicates_suppressed

    @given(
        _KEY_ROWS,
        st.integers(1, 6),
        st.lists(st.integers(0, 60), max_size=4),
    )
    def test_matches_scalar_admit(self, rows, window, cuts):
        self._check(rows, window, cuts)

    def test_mix_collisions_fall_back_to_exact_grouping(self, monkeypatch):
        """Every row sharing one mix must still group exactly."""
        from repro.passivedns import database as database_mod

        monkeypatch.setattr(database_mod, "_mix64", lambda x: x.fill(0))
        rng = make_rng(4)
        rows = [tuple(int(v) for v in row) for row in rng.integers(0, 4, (80, 3))]
        self._check(rows, window=5, cuts=[17, 40])


class TestDedupWindow:
    def test_restore_trims_to_window(self):
        db = PassiveDnsDatabase(deduplicate=True)
        oversized = [("sensor", i, 0) for i in range(db.DEDUP_WINDOW + 100)]
        db.restore_recent_keys(oversized)
        restored = db.recent_keys()
        assert len(restored) == db.DEDUP_WINDOW
        # The newest keys survive; the oldest 100 are dropped.
        assert restored[0] == ("sensor", 100, 0)
        assert restored[-1] == ("sensor", db.DEDUP_WINDOW + 99, 0)

    def test_restore_roundtrip_under_window(self):
        db = PassiveDnsDatabase(deduplicate=True)
        keys = [("sensor", i, 0) for i in range(10)]
        db.restore_recent_keys(keys)
        assert db.recent_keys() == keys


class TestSampling:
    def test_ratio_validation(self):
        with pytest.raises(ValueError):
            sample_domains([D1], ratio=0.0, rng=make_rng(1))
        with pytest.raises(ValueError):
            sample_domains([D1], ratio=1.5, rng=make_rng(1))

    def test_sample_size(self):
        population = [DomainName(f"d{i}.com") for i in range(1000)]
        sample = sample_domains(population, 0.1, make_rng(2))
        assert len(sample) == 100
        assert len(set(sample)) == 100  # without replacement

    def test_at_least_one(self):
        sample = sample_domains([D1, D2], 0.001, make_rng(1))
        assert len(sample) == 1
        assert sample_domains([D1, D2], 0.001, make_rng(1), at_least_one=False) == []

    def test_empty_population(self):
        assert sample_domains([], 0.5, make_rng(1)) == []

    def test_deterministic(self):
        population = [DomainName(f"d{i}.com") for i in range(100)]
        assert sample_domains(population, 0.2, make_rng(5)) == sample_domains(
            population, 0.2, make_rng(5)
        )

    def test_scale_up(self):
        assert scale_up(146, 1 / 1000) == pytest.approx(146_000)
        with pytest.raises(ValueError):
            scale_up(1, 0)
