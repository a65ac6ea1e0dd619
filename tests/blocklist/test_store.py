"""Tests for the blocklist store, rate limiting, and feed generation."""

import pytest

from repro.blocklist.categories import PAPER_CATEGORY_SHARES, ThreatCategory
from repro.blocklist.feeds import FeedGenerator
from repro.blocklist.store import BlocklistStore, RateLimit
from repro.dns.name import DomainName
from repro.errors import RateLimitExceeded
from repro.rand import make_rng

BAD = DomainName("malware-site.com")


@pytest.fixture
def store():
    s = BlocklistStore(RateLimit(capacity=5, window_seconds=100))
    s.add(BAD, ThreatCategory.MALWARE, listed_at=10)
    return s


class TestStore:
    def test_lookup_hit_and_miss(self, store):
        assert store.lookup(BAD).category == ThreatCategory.MALWARE
        assert store.lookup(DomainName("clean.com")) is None
        assert BAD in store
        assert len(store) == 1

    def test_subdomain_matches_registered_domain(self, store):
        assert store.lookup(DomainName("cdn.malware-site.com")) is not None

    def test_relisting_keeps_earliest(self, store):
        entry = store.add(BAD, ThreatCategory.PHISHING, listed_at=99)
        assert entry.category == ThreatCategory.MALWARE
        assert entry.listed_at == 10

    def test_remove(self, store):
        assert store.remove(BAD)
        assert not store.remove(BAD)
        assert BAD not in store


class TestRateLimit:
    def test_budget_enforced(self, store):
        for _ in range(5):
            store.query(BAD, now=0)
        with pytest.raises(RateLimitExceeded):
            store.query(BAD, now=0)
        assert store.queries_served == 5
        assert store.queries_rejected == 1

    def test_window_refills(self, store):
        for _ in range(5):
            store.query(BAD, now=0)
        with pytest.raises(RateLimitExceeded):
            store.query(BAD, now=99)
        for _ in range(5):
            store.query(BAD, now=100)

    def test_invalid_rate_limit(self):
        with pytest.raises(ValueError):
            RateLimit(capacity=0)
        with pytest.raises(ValueError):
            RateLimit(window_seconds=0)


class TestFeedGenerator:
    def test_shares_approximated(self):
        generator = FeedGenerator(make_rng(7))
        domains = [DomainName(f"bad{i}.com") for i in range(4000)]
        histogram = {c: 0 for c in ThreatCategory}
        for domain in domains:
            histogram[generator.assign_category(domain)] += 1
        shares = {c: n / len(domains) for c, n in histogram.items()}
        for category, expected in PAPER_CATEGORY_SHARES:
            assert shares[category] == pytest.approx(expected, abs=0.03)

    def test_custom_shares(self):
        generator = FeedGenerator(
            make_rng(1), category_shares=[(ThreatCategory.PHISHING, 1.0)]
        )
        assert generator.assign_category(BAD) == ThreatCategory.PHISHING

    def test_invalid_shares(self):
        with pytest.raises(ValueError):
            FeedGenerator(make_rng(1), category_shares=[(ThreatCategory.MALWARE, 0.0)])

    def test_deterministic(self):
        domains = [DomainName(f"bad{i}.com") for i in range(50)]
        a, b = FeedGenerator(make_rng(3)), FeedGenerator(make_rng(3))
        assert [a.assign_category(d) for d in domains] == [
            b.assign_category(d) for d in domains
        ]
