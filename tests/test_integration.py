"""Cross-substrate integration tests.

These exercise the seams the unit suites can't: registration state
flowing through live resolution into the passive DNS channel, the
sinkhole consuming the channel, and whole-study determinism.
"""

import pytest

from repro.blocklist.categories import ThreatCategory
from repro.blocklist.store import BlocklistStore
from repro.clock import SECONDS_PER_DAY
from repro.core.sinkhole import NxdomainSinkhole, SinkholeVerdict
from repro.core.study import NxdomainStudy, StudyConfig
from repro.dga.detector import DgaDetector
from repro.dns.hierarchy import DnsHierarchy
from repro.dns.name import DomainName
from repro.dns.tld import TldRegistry
from repro.passivedns.channel import SieChannel
from repro.passivedns.database import PassiveDnsDatabase
from repro.passivedns.sensor import Sensor, SensorTappedResolver
from repro.whois.registry import Registry

YEAR = 365 * SECONDS_PER_DAY
DAY = SECONDS_PER_DAY


class TestLifecycleToPassiveDns:
    """Registration → expiry → NXDomain observations, end to end."""

    @pytest.fixture
    def world(self):
        hierarchy = DnsHierarchy.build(TldRegistry.default())
        registry = Registry(hierarchy=hierarchy)
        channel = SieChannel()
        db = PassiveDnsDatabase()
        channel.subscribe(
            lambda o: db.add_rows(o.registered_domain, [o.timestamp], [o.count])
        )
        resolver = SensorTappedResolver(
            hierarchy.make_recursive_resolver(), Sensor("tap", channel)
        )
        return registry, resolver, db

    def test_expired_domain_reaches_database_with_whois_history(self, world):
        registry, resolver, db = world
        domain = DomainName("fading-star.com")
        registry.register(domain, owner="h-1", at=0)

        # Queried while live: nothing on the NX channel.
        resolver.resolve(DomainName("www.fading-star.com"), now=10 * DAY)
        assert db.unique_domains() == 0

        # Expire past the redemption entry; repeat daily queries now
        # produce NXDomains (negative TTL is 900s, so daily queries
        # are all upstream-visible).
        nx_at = registry.policy.grace_end(YEAR)
        registry.tick(nx_at)
        for day in range(5):
            resolver.resolve(
                DomainName("www.fading-star.com"), now=nx_at + day * DAY
            )
        profile = db.profile(domain)
        assert profile is not None
        assert profile.total_queries == 5

        # And the WHOIS join classifies it as expired, not never-registered.
        join = registry.history.join([domain, DomainName("never-was.com")])
        assert join.hit_count == 1
        assert join.never_registered_count == 1

    def test_sinkhole_consumes_live_channel(self, world):
        registry, resolver, db = world
        hierarchy = resolver.resolver.iterative  # noqa: F841 - documents wiring
        channel = resolver.sensor.channel
        detector = DgaDetector.train_default(
            seed=2, samples_per_family=80, threshold=0.8
        )
        blocklist = BlocklistStore()
        blocklist.add(DomainName("old-malware.net"), ThreatCategory.MALWARE)
        sinkhole = NxdomainSinkhole(detector, blocklist=blocklist)
        channel.subscribe(sinkhole.ingest)

        resolver.resolve(DomainName("www.old-malware.net"), now=0)
        resolver.resolve(DomainName("paypal-verify.com"), now=5)
        resolver.resolve(DomainName("quiet-meadow.org"), now=9)

        assert sinkhole.lookup(DomainName("old-malware.net")).verdict == (
            SinkholeVerdict.BLOCKLISTED
        )
        assert sinkhole.lookup(DomainName("paypal-verify.com")).verdict == (
            SinkholeVerdict.SQUATTING
        )
        report = sinkhole.report()
        assert report.total_domains() == 3


class TestStudyDeterminism:
    CONFIG = StudyConfig(
        trace_domains=800,
        squat_count=30,
        honeypot_scale=0.0005,
        expiry_timeline_sample=50,
        dga_samples_per_family=60,
    )

    def test_same_seed_same_report(self):
        a = NxdomainStudy(seed=6, config=self.CONFIG).full_report()
        b = NxdomainStudy(seed=6, config=self.CONFIG).full_report()
        assert a == b

    def test_different_seed_different_report(self):
        a = NxdomainStudy(seed=6, config=self.CONFIG).full_report()
        b = NxdomainStudy(seed=7, config=self.CONFIG).full_report()
        assert a != b
