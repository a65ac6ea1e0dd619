"""Registry integration tests: WHOIS history, DNS, and drop-catching."""

import pytest

from repro.clock import SECONDS_PER_DAY
from repro.dns.hierarchy import DnsHierarchy
from repro.dns.name import DomainName
from repro.dns.tld import TldRegistry
from repro.errors import RegistryError
from repro.whois.lifecycle import DomainStatus, EventKind, LifecyclePolicy
from repro.whois.registrar import DropCatchService, Registrar
from repro.whois.registry import Registry, days

YEAR = 365 * SECONDS_PER_DAY
DOMAIN = DomainName("example.com")


@pytest.fixture
def hierarchy():
    return DnsHierarchy.build(TldRegistry.default())


@pytest.fixture
def registry(hierarchy):
    return Registry(hierarchy=hierarchy, dropcatch=DropCatchService())


class TestRegistration:
    def test_register_creates_history_and_delegation(self, registry, hierarchy):
        registry.register(DOMAIN, owner="h-1", at=0)
        assert registry.history.has_history(DOMAIN)
        assert hierarchy.is_registered(DOMAIN)
        resolver = hierarchy.make_iterative_resolver()
        assert resolver.resolve(DomainName("www.example.com")).addresses()

    def test_register_unavailable_rejected(self, registry):
        registry.register(DOMAIN, owner="h-1", at=0)
        with pytest.raises(RegistryError):
            registry.register(DOMAIN, owner="h-2", at=10)

    def test_subdomain_registers_sld(self, registry):
        registry.register(DomainName("deep.sub.example.com"), owner="h-1", at=0)
        assert registry.status_of(DOMAIN) == DomainStatus.REGISTERED

    def test_unknown_registrar_rejected(self, registry):
        with pytest.raises(RegistryError):
            registry.register(DOMAIN, owner="h-1", at=0, registrar="nope")

    def test_named_registrar_charged(self, registry):
        godaddy = Registrar("godaddy", registration_fee=10)
        registry.registrars["godaddy"] = godaddy
        registry.register(DOMAIN, owner="h-1", at=0, registrar="godaddy", years=2)
        assert godaddy.revenue == 20
        assert godaddy.registrations == 1


class TestExpiryIntegration:
    def test_delegation_withdrawn_at_redemption(self, registry, hierarchy):
        registry.register(DOMAIN, owner="h-1", at=0)
        grace_end = registry.policy.grace_end(YEAR)
        registry.tick(grace_end)
        assert not hierarchy.is_registered(DOMAIN)
        assert registry.is_nxdomain(DOMAIN)
        result = hierarchy.make_iterative_resolver().resolve(
            DomainName("www.example.com")
        )
        assert result.is_nxdomain

    def test_resolves_during_auto_renew_grace(self, registry, hierarchy):
        registry.register(DOMAIN, owner="h-1", at=0)
        registry.tick(YEAR + days(5))
        assert hierarchy.is_registered(DOMAIN)
        assert not registry.is_nxdomain(DOMAIN)

    def test_restore_rewires_dns(self, registry, hierarchy):
        registry.register(DOMAIN, owner="h-1", at=0)
        at = registry.policy.grace_end(YEAR) + days(1)
        registry.tick(at)
        registry.restore(DOMAIN, at=at)
        assert hierarchy.is_registered(DOMAIN)

    def test_renew_from_grace_keeps_dns(self, registry, hierarchy):
        registry.register(DOMAIN, owner="h-1", at=0)
        registry.tick(YEAR + days(1))
        registry.renew(DOMAIN, at=YEAR + days(1))
        assert hierarchy.is_registered(DOMAIN)
        assert registry.status_of(DOMAIN) == DomainStatus.REGISTERED

    def test_history_snapshots_accumulate(self, registry):
        registry.register(DOMAIN, owner="h-1", at=0)
        registry.tick(registry.policy.delete_at(YEAR) + 1)
        statuses = [r.status for r in registry.history.history(DOMAIN)]
        assert statuses[0] == "registered"
        assert "redemption-grace-period" in statuses
        assert statuses[-1] == "available"

    def test_tick_reports_event_kinds(self, registry):
        registry.register(DOMAIN, owner="h-1", at=0)
        activity = registry.tick(YEAR * 3)
        assert EventKind.RELEASED in activity[DOMAIN]


class TestDropCatch:
    def test_dropcatch_reregisters_on_release(self, registry, hierarchy):
        registry.register(DOMAIN, owner="h-1", at=0)
        registry.dropcatch.reserve(DOMAIN, customer="speculator", at=days(30))
        registry.tick(YEAR * 3)
        lifecycle = registry.lifecycle_of(DOMAIN)
        assert lifecycle.status == DomainStatus.REGISTERED
        assert lifecycle.owner == "speculator"
        assert hierarchy.is_registered(DOMAIN)
        assert registry.dropcatch.catches == 1

    def test_earliest_reservation_wins(self):
        service = DropCatchService()
        service.reserve(DOMAIN, customer="late", at=100)
        service.reserve(DOMAIN, customer="early", at=1)
        assert service.claim(DOMAIN) == "early"
        assert service.claim(DOMAIN) == "late"
        assert service.claim(DOMAIN) is None

    def test_unreserved_domain_stays_available(self, registry):
        registry.register(DOMAIN, owner="h-1", at=0)
        registry.tick(YEAR * 3)
        assert registry.status_of(DOMAIN) == DomainStatus.AVAILABLE


class TestQueries:
    def test_unmanaged_domain_available_and_nx(self, registry):
        assert registry.status_of(DomainName("ghost.net")) == DomainStatus.AVAILABLE
        assert registry.is_nxdomain(DomainName("ghost.net"))

    def test_renew_unmanaged_rejected(self, registry):
        with pytest.raises(RegistryError):
            registry.renew(DomainName("ghost.net"), at=0)

    def test_custom_policy_flows_through(self, hierarchy):
        policy = LifecyclePolicy(auto_renew_grace_days=1)
        registry = Registry(hierarchy=hierarchy, policy=policy)
        registry.register(DOMAIN, owner="h-1", at=0)
        registry.tick(YEAR + days(1))
        assert registry.is_nxdomain(DOMAIN)
