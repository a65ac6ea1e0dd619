"""Tests for the resolver cache, especially RFC 2308 negative caching."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dns.cache import CacheOutcome, ResolverCache
from repro.dns.message import ResourceRecord, RRType
from repro.dns.name import DomainName

WWW = DomainName("www.example.com")
GONE = DomainName("gone.example.com")


def a_record(ttl=300):
    return ResourceRecord(WWW, RRType.A, ttl, "1.2.3.4")


class TestPositiveCaching:
    def test_miss_then_hit(self):
        cache = ResolverCache()
        outcome, _ = cache.probe(WWW, RRType.A, now=0)
        assert outcome == CacheOutcome.MISS
        cache.store_positive(WWW, RRType.A, [a_record()], now=0)
        outcome, entry = cache.probe(WWW, RRType.A, now=10)
        assert outcome == CacheOutcome.POSITIVE
        assert entry.remaining_ttl(10) == 290

    def test_expiry(self):
        cache = ResolverCache()
        cache.store_positive(WWW, RRType.A, [a_record(ttl=60)], now=0)
        outcome, _ = cache.probe(WWW, RRType.A, now=60)
        assert outcome == CacheOutcome.MISS

    def test_entry_ttl_is_min_record_ttl(self):
        cache = ResolverCache()
        entry = cache.store_positive(
            WWW, RRType.A, [a_record(ttl=300), a_record(ttl=30)], now=0
        )
        assert entry.ttl == 30

    def test_empty_positive_rejected(self):
        cache = ResolverCache()
        with pytest.raises(ValueError):
            cache.store_positive(WWW, RRType.A, [], now=0)


class TestNegativeCaching:
    def test_nxdomain_cached_for_all_types(self):
        cache = ResolverCache()
        cache.store_nxdomain(GONE, negative_ttl=900, now=0)
        for rtype in (RRType.A, RRType.AAAA, RRType.MX, RRType.TXT):
            outcome, entry = cache.probe(GONE, rtype, now=100)
            assert outcome == CacheOutcome.NEGATIVE_NXDOMAIN
            assert entry.remaining_ttl(100) == 800

    def test_nodata_cached_per_type(self):
        cache = ResolverCache()
        cache.store_nodata(WWW, RRType.TXT, negative_ttl=900, now=0)
        outcome, _ = cache.probe(WWW, RRType.TXT, now=10)
        assert outcome == CacheOutcome.NEGATIVE_NODATA
        # Other types are unaffected by a NODATA entry.
        outcome, _ = cache.probe(WWW, RRType.A, now=10)
        assert outcome == CacheOutcome.MISS

    def test_negative_ttl_capped(self):
        cache = ResolverCache(max_negative_ttl=3600)
        entry = cache.store_nxdomain(GONE, negative_ttl=86400, now=0)
        assert entry.ttl == 3600

    def test_negative_expiry(self):
        cache = ResolverCache()
        cache.store_nxdomain(GONE, negative_ttl=60, now=0)
        outcome, _ = cache.probe(GONE, RRType.A, now=61)
        assert outcome == CacheOutcome.MISS

    def test_stats_count_negative_hits(self):
        cache = ResolverCache()
        cache.store_nxdomain(GONE, negative_ttl=900, now=0)
        cache.probe(GONE, RRType.A, now=1)
        cache.probe(WWW, RRType.A, now=1)
        assert cache.stats.negative_hits == 1
        assert cache.stats.misses == 1


class TestEvictionAndFlush:
    def test_capacity_eviction(self):
        cache = ResolverCache(max_entries=2)
        for i in range(3):
            name = DomainName(f"host{i}.example.com")
            cache.store_positive(
                name,
                RRType.A,
                [ResourceRecord(name, RRType.A, 100 + i, "1.1.1.1")],
                now=0,
            )
        assert len(cache) == 2
        # host0 expired soonest and was evicted.
        outcome, _ = cache.probe(DomainName("host0.example.com"), RRType.A, now=0)
        assert outcome == CacheOutcome.MISS

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ResolverCache(max_entries=0)

    @given(st.integers(1, 50), st.integers(2, 30))
    def test_capacity_never_exceeded(self, capacity, inserts):
        cache = ResolverCache(max_entries=capacity)
        for i in range(inserts):
            name = DomainName(f"h{i}.test")
            cache.store_positive(
                name, RRType.A, [ResourceRecord(name, RRType.A, 60, "1.1.1.1")], now=0
            )
        assert len(cache) <= capacity
