"""Tests for the WHOIS history database and records."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dns.name import DomainName
from repro.whois.history import WhoisHistoryDatabase
from repro.whois.record import WhoisRecord

DOMAIN = DomainName("example.com")
YEAR = 365 * 86_400


def record(domain=DOMAIN, created=0, expires=YEAR, captured=None, status="registered"):
    return WhoisRecord(
        domain=domain,
        registrar="generic",
        registrant_handle="h-1",
        status=status,
        created_at=created,
        expires_at=expires,
        captured_at=captured if captured is not None else created,
    )


class TestRecord:
    def test_validation(self):
        with pytest.raises(ValueError):
            record(created=100, expires=50)
        with pytest.raises(ValueError):
            record(created=100, expires=200, captured=50)


class TestHistoryDatabase:
    def test_empty(self):
        db = WhoisHistoryDatabase()
        assert not db.has_history(DOMAIN)
        assert db.history(DOMAIN) == []
        assert db.latest(DOMAIN) is None

    def test_append_and_lookup(self):
        db = WhoisHistoryDatabase()
        db.append(record())
        assert db.has_history(DOMAIN)
        assert DOMAIN in db
        assert db.domain_count() == 1
        assert len(db) == 1

    def test_subdomain_queries_hit_sld(self):
        db = WhoisHistoryDatabase()
        db.append(record())
        assert db.has_history(DomainName("www.example.com"))

    def test_snapshots_sorted_by_capture(self):
        db = WhoisHistoryDatabase()
        db.append(record(captured=YEAR // 2))
        db.append(record(captured=10))
        captures = [r.captured_at for r in db.history(DOMAIN)]
        assert captures == sorted(captures)
        assert db.latest(DOMAIN).captured_at == YEAR // 2

    def test_join_splits_hits_and_misses(self):
        db = WhoisHistoryDatabase()
        db.append(record())
        stream = [
            DomainName("example.com"),
            DomainName("www.example.com"),
            DomainName("never.net"),
        ]
        result = db.join(stream)
        assert result.total == 3
        assert result.hit_count == 2
        assert result.never_registered_count == 1

    def test_join_empty_stream(self):
        result = WhoisHistoryDatabase().join([])
        assert result.total == 0
        assert result.hit_count == 0

    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 100)),
            min_size=1,
            max_size=30,
        )
    )
    def test_record_count_matches_appends(self, entries):
        db = WhoisHistoryDatabase()
        for domain_index, captured in entries:
            db.append(
                record(
                    domain=DomainName(f"d{domain_index}.com"),
                    captured=captured,
                )
            )
        assert len(db) == len(entries)
        assert db.domain_count() == len({i for i, _ in entries})
