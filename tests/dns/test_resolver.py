"""End-to-end resolution tests over the root/TLD/auth hierarchy."""

import pytest

from repro.dns.hierarchy import DnsHierarchy
from repro.dns.message import RCode, ResourceRecord, RRType
from repro.dns.name import DomainName
from repro.dns.resolver import StepKind
from repro.dns.tld import TldRegistry
from repro.errors import ResolutionError, ZoneError

EXAMPLE = DomainName("example.com")
WWW = DomainName("www.example.com")


@pytest.fixture
def hierarchy():
    h = DnsHierarchy.build(TldRegistry.default())
    h.register_domain(EXAMPLE, "93.184.216.34")
    return h


class TestIterativeResolution:
    def test_full_walk_resolves(self, hierarchy):
        resolver = hierarchy.make_iterative_resolver()
        result = resolver.resolve(WWW)
        assert result.rcode == RCode.NOERROR
        assert result.addresses() == ["93.184.216.34"]

    def test_walk_visits_root_tld_auth(self, hierarchy):
        resolver = hierarchy.make_iterative_resolver()
        trace = resolver.resolve(WWW).trace
        assert [s.server for s in trace.steps] == ["root", "tld-com", "hosting"]
        assert trace.steps[0].kind == StepKind.REFERRAL
        assert trace.steps[1].kind == StepKind.REFERRAL
        assert trace.steps[2].kind == StepKind.ANSWER

    def test_unregistered_domain_is_nxdomain_at_tld(self, hierarchy):
        resolver = hierarchy.make_iterative_resolver()
        result = resolver.resolve(DomainName("www.never-registered.com"))
        assert result.is_nxdomain
        assert result.trace.steps[-1].server == "tld-com"
        assert result.negative_ttl == 900

    def test_unknown_tld_is_nxdomain_at_root(self, hierarchy):
        resolver = hierarchy.make_iterative_resolver()
        result = resolver.resolve(DomainName("foo.nonexistent-tld"))
        assert result.is_nxdomain
        assert result.trace.steps[-1].server == "root"

    def test_missing_host_is_nxdomain_at_auth(self, hierarchy):
        resolver = hierarchy.make_iterative_resolver()
        result = resolver.resolve(DomainName("nothere.example.com"))
        assert result.is_nxdomain
        assert result.trace.steps[-1].server == "hosting"

    def test_nodata_for_wrong_type(self, hierarchy):
        resolver = hierarchy.make_iterative_resolver()
        result = resolver.resolve(WWW, RRType.TXT)
        assert result.rcode == RCode.NOERROR and not result.answers
        assert result.trace.steps[-1].kind == StepKind.NODATA

    def test_cname_chase_across_restart(self, hierarchy):
        zone = hierarchy.register_domain(DomainName("alias.net"), "10.0.0.1")
        zone.add(
            ResourceRecord(
                DomainName("go.alias.net"), RRType.CNAME, 60, str(WWW)
            )
        )
        resolver = hierarchy.make_iterative_resolver()
        result = resolver.resolve(DomainName("go.alias.net"))
        assert result.addresses() == ["93.184.216.34"]
        assert any(s.kind == StepKind.CNAME for s in result.trace.steps)

    def test_released_domain_becomes_nxdomain(self, hierarchy):
        resolver = hierarchy.make_iterative_resolver()
        assert resolver.resolve(WWW).rcode == RCode.NOERROR
        hierarchy.release_domain(EXAMPLE)
        result = resolver.resolve(WWW)
        assert result.is_nxdomain
        assert result.trace.steps[-1].server == "tld-com"

    def test_duplicate_registration_rejected(self, hierarchy):
        with pytest.raises(ZoneError):
            hierarchy.register_domain(EXAMPLE, "1.1.1.1")

    def test_only_slds_registrable(self, hierarchy):
        with pytest.raises(ZoneError):
            hierarchy.register_domain(DomainName("a.b.com"), "1.1.1.1")

    def test_release_unknown_rejected(self, hierarchy):
        with pytest.raises(ZoneError):
            hierarchy.release_domain(DomainName("ghost.com"))

    def test_unreachable_nameserver_raises(self, hierarchy):
        resolver = hierarchy.make_iterative_resolver()
        resolver.server_registry.pop("ns1.example.com")
        with pytest.raises(ResolutionError):
            resolver.resolve(WWW)

    def test_cname_loop_bounded(self, hierarchy):
        zone = hierarchy.register_domain(DomainName("loop.net"), "10.0.0.9")
        zone.add(
            ResourceRecord(DomainName("a.loop.net"), RRType.CNAME, 60, "b.loop.net")
        )
        zone.add(
            ResourceRecord(DomainName("b.loop.net"), RRType.CNAME, 60, "a.loop.net")
        )
        resolver = hierarchy.make_iterative_resolver()
        with pytest.raises(ResolutionError, match="CNAME chain"):
            resolver.resolve(DomainName("a.loop.net"))

    def test_cname_query_type_not_chased(self, hierarchy):
        zone = hierarchy.register_domain(DomainName("alias2.net"), "10.0.0.8")
        zone.add(
            ResourceRecord(
                DomainName("go.alias2.net"), RRType.CNAME, 60, str(WWW)
            )
        )
        resolver = hierarchy.make_iterative_resolver()
        result = resolver.resolve(DomainName("go.alias2.net"), RRType.CNAME)
        assert len(result.answers) == 1
        assert result.answers[0].rtype == RRType.CNAME

    def test_queries_sent_counter(self, hierarchy):
        resolver = hierarchy.make_iterative_resolver()
        resolver.resolve(WWW)
        assert resolver.queries_sent == 3  # root, TLD, authoritative


class TestRecursiveResolution:
    def test_positive_caching_avoids_upstream(self, hierarchy):
        resolver = hierarchy.make_recursive_resolver()
        first = resolver.resolve(WWW, now=0)
        assert not first.from_cache
        second = resolver.resolve(WWW, now=10)
        assert second.from_cache
        assert second.addresses() == ["93.184.216.34"]
        assert resolver.stats.upstream_resolutions == 1

    def test_cached_ttl_decays(self, hierarchy):
        resolver = hierarchy.make_recursive_resolver()
        resolver.resolve(WWW, now=0)
        cached = resolver.resolve(WWW, now=100)
        assert cached.answers[0].ttl == 200  # zone TTL 300 - 100

    def test_negative_caching_absorbs_repeat_nxdomains(self, hierarchy):
        resolver = hierarchy.make_recursive_resolver()
        gone = DomainName("www.not-registered.com")
        first = resolver.resolve(gone, now=0)
        assert first.is_nxdomain and not first.from_cache
        second = resolver.resolve(gone, now=60)
        assert second.is_nxdomain and second.from_cache
        assert resolver.stats.negative_cache_hits == 1
        assert resolver.stats.nxdomain_responses == 2

    def test_negative_cache_expiry_goes_upstream(self, hierarchy):
        resolver = hierarchy.make_recursive_resolver()
        gone = DomainName("www.not-registered.com")
        resolver.resolve(gone, now=0)
        resolver.resolve(gone, now=901)  # TLD negative TTL is 900
        assert resolver.stats.upstream_resolutions == 2

    def test_negative_cache_disabled_always_goes_upstream(self, hierarchy):
        resolver = hierarchy.make_recursive_resolver(use_negative_cache=False)
        gone = DomainName("www.not-registered.com")
        resolver.resolve(gone, now=0)
        resolver.resolve(gone, now=1)
        resolver.resolve(gone, now=2)
        assert resolver.stats.upstream_resolutions == 3

    def test_nodata_cached_separately(self, hierarchy):
        resolver = hierarchy.make_recursive_resolver()
        resolver.resolve(WWW, now=0, rtype=RRType.TXT)
        second = resolver.resolve(WWW, now=1, rtype=RRType.TXT)
        assert second.from_cache
        assert second.rcode == RCode.NOERROR and not second.answers
        # A-type queries still go upstream.
        third = resolver.resolve(WWW, now=2)
        assert not third.from_cache
