"""Tests for NXDomain hijacking (§7)."""

import pytest

from repro.dns.hijack import HijackingResolver, WILD_HIJACK_RATE
from repro.dns.hierarchy import DnsHierarchy
from repro.dns.message import RCode
from repro.dns.name import DomainName
from repro.dns.tld import TldRegistry
from repro.rand import make_rng

GONE = DomainName("www.long-gone.com")
ALIVE = DomainName("www.alive.com")


@pytest.fixture
def hierarchy():
    h = DnsHierarchy.build(TldRegistry.default())
    h.register_domain(DomainName("alive.com"), "10.0.0.1")
    return h


def make_hijacker(hierarchy, rate, seed=1):
    return HijackingResolver(
        hierarchy.make_recursive_resolver(), make_rng(seed), hijack_rate=rate
    )


class TestHijackingResolver:
    def test_rate_validation(self, hierarchy):
        with pytest.raises(ValueError):
            make_hijacker(hierarchy, -0.1)
        with pytest.raises(ValueError):
            make_hijacker(hierarchy, 1.1)

    def test_zero_rate_is_transparent(self, hierarchy):
        resolver = make_hijacker(hierarchy, 0.0)
        result = resolver.resolve(GONE, now=0)
        assert result.is_nxdomain
        assert resolver.stats.nxdomains_hijacked == 0

    def test_full_rate_rewrites_every_nxdomain(self, hierarchy):
        resolver = make_hijacker(hierarchy, 1.0)
        result = resolver.resolve(GONE, now=0)
        assert result.rcode == RCode.NOERROR
        assert result.addresses() == [resolver.ad_server_address]
        assert resolver.stats.nxdomains_hijacked == resolver.stats.nxdomains_seen == 1

    def test_positive_answers_untouched(self, hierarchy):
        resolver = make_hijacker(hierarchy, 1.0)
        result = resolver.resolve(ALIVE, now=0)
        assert result.addresses() == ["10.0.0.1"]
        assert resolver.stats.nxdomains_seen == 0

    def test_wild_rate_hijacks_roughly_5_percent(self, hierarchy):
        resolver = make_hijacker(hierarchy, WILD_HIJACK_RATE, seed=3)
        # Distinct names defeat the negative cache so each query is an
        # independent NXDOMAIN outcome.
        for i in range(1000):
            resolver.resolve(DomainName(f"gone-{i}.com"), now=i)
        assert resolver.stats.nxdomains_seen == 1000
        assert 20 <= resolver.stats.nxdomains_hijacked <= 90

    def test_hijack_applies_to_negative_cache_hits(self, hierarchy):
        resolver = make_hijacker(hierarchy, 1.0)
        resolver.inner.resolve(GONE, now=0)  # prime the negative cache
        result = resolver.resolve(GONE, now=10)
        assert result.from_cache
        assert result.addresses() == [resolver.ad_server_address]
