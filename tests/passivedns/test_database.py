"""Tests for the columnar passive DNS database."""

import bisect
import collections
import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.clock import SECONDS_PER_DAY
from repro.dns.message import RCode, RRType
from repro.dns.name import DomainName
from repro.errors import DomainNameError
from repro.passivedns import database as database_mod
from repro.passivedns.database import (
    _NAMES_PER_MATCH,
    PassiveDnsDatabase,
    pack_names,
    unpack_names,
)
from repro.passivedns import pipeline as pipeline_mod
from repro.passivedns.io import save_checkpoint
from repro.passivedns.pipeline import (
    DEDUP_WINDOW,
    ResilientIngestPipeline,
    _DedupWindow,
    _Names,
)
from repro.passivedns.record import DnsObservation
from repro.passivedns.sampling import sample_domains
from repro.rand import make_rng
from tests.passivedns.reference import (
    ReferencePipeline,
    ScalarDatabase,
    daily_series_scan,
    recent_keys,
    window_keys,
)

DAY = SECONDS_PER_DAY
D1 = DomainName("alpha.com")
D2 = DomainName("beta.net")


def assert_same_domain_tables(got, expected):
    """Equal domain tables: ids, aggregates, TLD table and name hashes."""
    assert got.all_domains() == expected.all_domains()
    assert got._id_of == expected._id_of
    assert got._tlds == expected._tlds
    assert got._tld_of == expected._tld_of
    for column in ("_first_seen", "_last_seen", "_totals", "_tld_ids"):
        np.testing.assert_array_equal(
            getattr(got, column).view(), getattr(expected, column).view()
        )
    np.testing.assert_array_equal(got._name_hashes(), expected._name_hashes())


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
        pipeline.ingest_many([DnsObservation(DomainName("x.org"), RCode.NOERROR, 0)])
        assert pipeline.database.unique_domains() == 0
        pipeline.ingest_many([DnsObservation(DomainName("x.org"), RCode.NXDOMAIN, 0)])
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

    def test_intern_many_matches_per_domain_interning(self):
        """Known names keep their ids and new ones follow first
        appearance, exactly as interning one name at a time does."""
        first = [DomainName(f"d{i % 7}.com") for i in range(20)]
        second = [DomainName(f"d{i}.com") for i in (9, 3, 9, 12, 0, 3, 11, 12)]
        batched, single = PassiveDnsDatabase(), ScalarDatabase()
        for chunk in (first, second, []):
            ids = batched.intern_many(iter(chunk))
            expected = [single._intern(domain) for domain in chunk]
            assert ids.dtype == np.int64
            assert ids.tolist() == expected
        assert_same_domain_tables(batched, single)

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
        """The indexed series equals the reference masked scan."""
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
    """``_DedupWindow.admit`` over batches ≡ the oracle's one ``admit`` per observation."""

    def _check(self, rows, window, cuts):
        observations = [_key_observation(*row) for row in rows]
        reference = ReferencePipeline()
        reference.dedup_window = window
        expected = [reference.admit(o) for o in observations]
        names = _Names()
        numbers = [(o.rcode, o.rtype, o.timestamp, o.count) for o in observations]
        keys = np.column_stack(
            (
                names.sensor_ids([o.sensor_id for o in observations]),
                names.ids([o.qname for o in observations]),
                np.array(numbers, dtype=np.int64).reshape(-1, 4),
            )
        )
        batched = _DedupWindow()
        batched.size = window
        got = []
        bounds = sorted({0, len(observations), *cuts})
        for lo, hi in zip(bounds, bounds[1:]):
            got += batched.admit(keys[lo:hi]).tolist()
        assert got == expected
        assert [
            (names.sensors[sensor], names.text[qid], *rest)
            for sensor, qid, *rest in batched.keys.tolist()
        ] == reference.recent_keys()
        assert got.count(False) == reference.stats.duplicates_suppressed

    @given(
        _KEY_ROWS,
        st.integers(1, 6),
        st.lists(st.integers(0, 60), max_size=4),
    )
    def test_matches_scalar_admit(self, rows, window, cuts):
        self._check(rows, window, cuts)

    def test_mix_collisions_fall_back_to_exact_grouping(self, monkeypatch):
        """Every row sharing one mix must still group exactly."""
        monkeypatch.setattr(pipeline_mod, "_mix64", lambda x: x.fill(0))
        rng = make_rng(4)
        rows = [tuple(int(v) for v in row) for row in rng.integers(0, 4, (80, 3))]
        self._check(rows, window=5, cuts=[17, 40])


class TestForcedAdmit:
    """Rows ``admit`` decides without walking, and the edges of that."""

    def _admit(self, monkeypatch, names, window):
        """``TestBatchAdmit``'s oracle check, recording walked rows."""
        walked = []
        walk = _DedupWindow._walk

        def recording(self, candidates, *rest):
            walked.extend(candidates.tolist())
            return walk(self, candidates, *rest)

        monkeypatch.setattr(_DedupWindow, "_walk", recording)
        TestBatchAdmit()._check([(0, name, 0) for name in names], window, [])
        return walked

    def test_duplicate_at_window_size_is_forced(self, monkeypatch):
        """A copy exactly ``size`` rows after its admitted first copy
        is suppressed without a walk."""
        assert self._admit(monkeypatch, [0, 1, 2, 3, 0], window=4) == []

    def test_duplicate_past_window_size_lands(self, monkeypatch):
        """One row further, with no suppression between, it lands."""
        assert self._admit(monkeypatch, [0, 1, 2, 3, 4, 0], window=4) == [5]

    def test_prior_forced_suppression_is_walked(self, monkeypatch):
        """A row whose previous copy was itself suppressed decides by
        the walk: here its key's admission has slid out of the window,
        though its previous copy is only two rows back."""
        names = [0, 1, 2, 0, 3, 0]
        assert self._admit(monkeypatch, names, window=3) == [5]

    def test_adjacent_duplicates_never_bisect(self, monkeypatch):
        calls = []
        bisect_left = bisect.bisect_left

        def counting(*args):
            calls.append(args)
            return bisect_left(*args)

        monkeypatch.setattr(bisect, "bisect_left", counting)
        rows = np.repeat(np.arange(5_000), 2)
        keys = np.zeros((len(rows), 6), dtype=np.int64)
        keys[:, 1] = rows
        window = _DedupWindow()
        admitted = np.concatenate(
            [window.admit(keys[lo : lo + 4_000]) for lo in range(0, len(keys), 4_000)]
        )
        assert calls == []
        assert admitted.tolist() == [True, False] * 5_000
        np.testing.assert_array_equal(window.keys, keys[::2][-DEDUP_WINDOW:])


#: Label characters beside ``_`` (which only a label's first may be).
_LDH = "abcdefghijklmnopqrstuvwxyz0123456789"
_LABELS = st.one_of(
    st.sampled_from(_LDH + "_"),
    st.builds(
        lambda first, middle, last: first + middle + last,
        st.sampled_from(_LDH + "_"),
        st.text(_LDH + "-", max_size=61),
        st.sampled_from(_LDH),
    ),
    st.builds(
        lambda first, middle: first + middle,
        st.sampled_from(_LDH + "_"),
        st.text(_LDH, min_size=62, max_size=62),
    ),
)
_NAMES = (
    st.lists(_LABELS, min_size=1, max_size=6)
    .map(".".join)
    .filter(lambda name: len(name) <= 253)
)
_LONGEST = ".".join(("a" * 63, "b" * 63, "c" * 63, "d" * 61))


def _parsed(names):
    """What parsing each name with :class:`DomainName` gives: the names,
    or the type and message of the error it raises."""
    try:
        return [DomainName(name) for name in names]
    except Exception as error:
        return type(error), str(error)


def _unpacked(names):
    """``unpack_names`` of the packed table, in the same form."""
    buffer = np.frombuffer("\x00".join(names).encode("utf-8"), dtype=np.uint8)
    try:
        return unpack_names(buffer)
    except Exception as error:
        return type(error), str(error)


class TestUnpackNames:
    """``unpack_names`` ≡ parsing each packed name with ``DomainName``."""

    @given(st.lists(_NAMES, min_size=1, max_size=12))
    def test_valid_tables_take_the_bulk_path(self, names):
        parse = DomainName.__init__
        parsed = []

        def counting(self, text):
            parsed.append(text)
            parse(self, text)

        DomainName.__init__ = counting
        try:
            got = _unpacked(names)
        finally:
            DomainName.__init__ = parse
        assert got == _parsed(names)
        assert [name.labels for name in got] == [
            tuple(name.split(".")) for name in names
        ]
        assert parsed == []

    @pytest.mark.parametrize(
        "bad",
        [
            "a" * 64 + ".com",
            _LONGEST + "d",
            "a..com",
            ".a.com",
            "a.com.",
            "-a.com",
            "a-.com",
            "a.b-",
            "a_.com",
            "a__b.com",
            "Example.COM",
            ".",
            "a\n.com",
            "a.com\n",
            " a.com",
            "a b.com",
            "\u00fc.com",
            "",
        ],
    )
    def test_invalid_tables_parse_name_by_name(self, bad):
        # A lone empty name is the empty table (``test_empty_table``).
        tables = [["ok.com", bad, "x.net"]] + ([[bad]] if bad else [])
        for names in tables:
            assert _unpacked(names) == _parsed(names)

    def test_longest_name_and_label_are_valid(self):
        names = [_LONGEST, "a" * 63 + ".com", "_.b", "_-1.c", "9.z"]
        assert _unpacked(names) == _parsed(names)

    def test_every_match_run_is_checked(self):
        """A bad name at either side of a match-run boundary is caught."""
        names = [f"n{i}.com" for i in range(3 * _NAMES_PER_MATCH)]
        assert _unpacked(names) == _parsed(names)
        for position in (
            _NAMES_PER_MATCH - 1,
            _NAMES_PER_MATCH,
            len(names) - 1,
        ):
            bad = list(names)
            bad[position] = "bad-.com"
            assert _unpacked(bad) == _parsed(bad)
            assert _unpacked(bad)[0] is DomainNameError

    def test_empty_table(self):
        assert unpack_names(pack_names([])) == []


class TestBulkIntern:
    """``intern_many`` interns a chunk's new names in one step."""

    def _chunk(self):
        old = [DomainName(f"old{i}.example.com") for i in range(50)]
        chunk = [
            DomainName(f"old{i % 50}.example.com" if i % 2 else f"new{i % 25}.org")
            for i in range(200)
        ]
        return old, chunk

    def test_no_intern_call_per_name(self, monkeypatch):
        old, chunk = self._chunk()
        db = PassiveDnsDatabase()
        db.intern_many(old)

        def refuse(self, domain):
            raise AssertionError("intern_many interned a name one at a time")

        monkeypatch.setattr(PassiveDnsDatabase, "_intern", refuse)
        db.intern_many(chunk)
        assert db.unique_domains() > len(old)

    def test_names_hashed_once(self, monkeypatch):
        """Each input name is hashed once, plus a constant per new name,
        and the new names take ids in first-appearance order."""
        old, chunk = self._chunk()
        db = PassiveDnsDatabase()
        db.intern_many(old)
        new = [name for name in dict.fromkeys(chunk) if name not in set(old)]
        hashed = []
        name_hash = DomainName.__hash__

        def counting(self):
            hashed.append(self)
            return name_hash(self)

        monkeypatch.setattr(DomainName, "__hash__", counting)
        ids = db.intern_many(chunk)
        monkeypatch.undo()
        assert len(new) == 25
        assert sum(name in new for name in chunk) == 4 * len(new)
        assert len(hashed) <= len(chunk) + 2 * len(new)
        assert db.all_domains()[len(old):] == new
        assert [db.all_domains()[i] for i in ids.tolist()] == chunk

    @given(
        st.lists(
            st.lists(st.tuples(st.integers(0, 30), st.integers(0, 4)), max_size=40),
            max_size=5,
        )
    )
    def test_matches_one_at_a_time(self, chunks):
        """Ids, the TLD table, TLD ids and name hashes equal those of
        the one-at-a-time reference, over any chunking."""
        tlds = ("com", "net", "org", "xn--p1ai", "io")
        batched, single = PassiveDnsDatabase(), ScalarDatabase()
        for chunk in chunks:
            names = [DomainName(f"d{i}.{tlds[t]}") for i, t in chunk]
            ids = batched.intern_many(names)
            assert ids.tolist() == [single._intern(name) for name in names]
        assert_same_domain_tables(batched, single)

    def test_one_name_interning_shares_the_path(self):
        names = [DomainName(f"d{i}.{('com', 'net')[i % 2]}") for i in range(9)]
        db, single = PassiveDnsDatabase(), ScalarDatabase()
        for name in names + names[:3]:
            assert db._intern(name) == single._intern(name)
        assert_same_domain_tables(db, single)

    def test_reopened_tables_equal_the_writer(self, tmp_path):
        writer = PassiveDnsDatabase(spill_dir=tmp_path)
        rng = make_rng(5)
        for lo in range(0, 120, 40):
            names = [
                DomainName(f"h{int(i)}.{('com', 'net', 'de', '_x')[int(i) % 4]}")
                for i in rng.integers(0, 90, 40)
            ]
            ids = writer.intern_many(names)
            times = np.arange(lo, lo + 40) * DAY
            writer.add_batch(ids, times, np.ones(40, dtype=np.int64))
            writer.spill_commit()
        reopened = PassiveDnsDatabase(spill_dir=tmp_path)
        assert_same_domain_tables(reopened, writer)
        assert reopened.fingerprint() == writer.fingerprint()


class TestLazyNameHashes:
    """Names are hashed when a row digest first needs them, once each."""

    def _committed(self, root):
        """A two-segment store of 60 names, committed and closed."""
        db = PassiveDnsDatabase(spill_dir=root)
        names = [DomainName(f"h{i}.{('com', 'net', 'de')[i % 3]}") for i in range(60)]
        for lo in (0, 30):
            ids = db.intern_many(names[lo : lo + 40])
            times = np.arange(len(ids), dtype=np.int64) * DAY + lo
            db.add_batch(ids, times, np.ones(len(ids), dtype=np.int64))
            db.spill_commit()
        return names

    def _record(self, monkeypatch):
        """Every name ``_hash_names`` hashes, in call order."""
        hashed = []
        original = database_mod._hash_names

        def recording(names):
            names = list(names)
            hashed.extend(names)
            return original(names)

        monkeypatch.setattr(database_mod, "_hash_names", recording)
        return hashed

    def test_reopen_and_section4_reads_hash_nothing(self, tmp_path, monkeypatch):
        self._committed(tmp_path)
        hashed = self._record(monkeypatch)
        db = PassiveDnsDatabase(spill_dir=tmp_path)
        db.monthly_response_series()
        db.tld_histogram()
        db.lifespan_decay()
        assert db.fingerprint() == db.spill.meta["store_digest"]
        assert hashed == []

    def test_first_seal_after_reopen_hashes_each_name_once(
        self, tmp_path, monkeypatch
    ):
        names = self._committed(tmp_path)
        hashed = self._record(monkeypatch)
        db = PassiveDnsDatabase(spill_dir=tmp_path)
        fresh = [DomainName("late.org"), DomainName("later.io")]
        ids = db.intern_many(names[:5] + fresh)
        ones = np.ones(len(ids), dtype=np.int64)
        db.add_batch(ids, np.full(len(ids), 99 * DAY), ones)
        assert hashed == []
        db.spill_commit()
        assert collections.Counter(hashed) == collections.Counter(names + fresh)
        # Later digests hash only the names interned since.
        del hashed[:]
        newest = DomainName("newest.net")
        db.add_rows(newest, [100 * DAY], [1])
        db.spill_commit()
        assert hashed == [newest]
        assert len(db._name_hashes()) == db.unique_domains()
        reference = ScalarDatabase()
        reference.intern_many(db.all_domains())
        assert np.array_equal(db._name_hashes(), reference._name_hashes())

    def test_concurrent_digests_hash_each_name_once(self):
        """Readers racing a writer's interning never extend the column
        twice for one name."""
        db = PassiveDnsDatabase()
        names = [DomainName(f"r{i}.com") for i in range(2_000)]
        errors = []
        done = threading.Event()
        start = threading.Barrier(5)

        def writer():
            start.wait()
            for lo in range(0, len(names), 50):
                db.intern_many(names[lo : lo + 50])
            done.set()

        def reader():
            start.wait()
            while not done.is_set():
                hashes = db._name_hashes()
                if len(hashes) > db.unique_domains():
                    errors.append(len(hashes))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer)] + [
                threading.Thread(target=reader) for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert np.array_equal(db._name_hashes(), database_mod._hash_names(names))


def _window_key(i):
    return ("sensor", f"d{i}.com", int(RCode.NXDOMAIN), int(RRType.A), i, 1)


def _redelivery(key):
    sensor, qname, rcode, rtype, timestamp, count = key
    return DnsObservation(
        qname=DomainName(qname),
        rcode=RCode(rcode),
        timestamp=timestamp,
        sensor_id=sensor,
        rtype=RRType(rtype),
        count=count,
    )


class TestDedupWindow:
    """A resumed pipeline restores the checkpoint's dedup window."""

    def _resume(self, tmp_path, keys):
        db = PassiveDnsDatabase(spill_dir=tmp_path)
        save_checkpoint(db, cursor=0, window=window_keys(keys))
        pipeline = ResilientIngestPipeline(spill_dir=tmp_path)
        assert pipeline.resume() == 0
        return pipeline

    def test_restore_trims_to_window(self, tmp_path):
        keys = [_window_key(i) for i in range(DEDUP_WINDOW + 100)]
        pipeline = self._resume(tmp_path, keys)
        # The newest keys survive; the oldest 100 are dropped.
        assert recent_keys(pipeline) == keys[100:]
        # A redelivery of a dropped key lands; of a retained one, not.
        pipeline.ingest_many([_redelivery(keys[0]), _redelivery(keys[-1])])
        assert pipeline.stats.duplicates_suppressed == 1
        assert pipeline.database.row_count() == 1
        assert pipeline.database.all_domains() == [DomainName("d0.com")]

    def test_restore_roundtrip_under_window(self, tmp_path):
        keys = [_window_key(i) for i in range(10)]
        pipeline = self._resume(tmp_path, keys)
        assert recent_keys(pipeline) == keys


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
