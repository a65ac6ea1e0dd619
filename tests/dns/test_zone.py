"""Tests for zones and the authoritative answer algorithm."""

import pytest

from repro.dns.message import DnsMessage, RCode, ResourceRecord, RRType
from repro.dns.name import DomainName
from repro.dns.zone import AuthoritativeServer, Zone
from repro.errors import ZoneError


@pytest.fixture
def zone():
    z = Zone(DomainName("example.com"))
    z.add(ResourceRecord(DomainName("example.com"), RRType.A, 300, "1.2.3.4"))
    z.add(ResourceRecord(DomainName("www.example.com"), RRType.A, 300, "1.2.3.4"))
    z.add(
        ResourceRecord(
            DomainName("example.com"), RRType.MX, 600, "10 mail.example.com"
        )
    )
    z.add(
        ResourceRecord(
            DomainName("deep.empty.example.com"), RRType.TXT, 60, "leaf"
        )
    )
    return z


@pytest.fixture
def server(zone):
    s = AuthoritativeServer("ns1.example.com")
    s.host_zone(zone)
    return s


def ask(server, name, rtype=RRType.A):
    return server.handle_query(DnsMessage.make_query(DomainName(name), rtype))


class TestZone:
    def test_lookup_exact(self, zone):
        assert zone.lookup(DomainName("www.example.com"), RRType.A)[0].rdata == "1.2.3.4"

    def test_lookup_any_gathers_types(self, zone):
        records = zone.lookup(DomainName("example.com"), RRType.ANY)
        assert {rr.rtype for rr in records} == {RRType.A, RRType.MX}

    def test_out_of_zone_record_rejected(self, zone):
        with pytest.raises(ZoneError):
            zone.add(ResourceRecord(DomainName("other.org"), RRType.A, 300, "1.1.1.1"))

    def test_empty_non_terminal_exists(self, zone):
        # 'empty.example.com' has no records but a descendant does.
        assert zone.name_exists(DomainName("empty.example.com"))

    def test_unknown_name_does_not_exist(self, zone):
        assert not zone.name_exists(DomainName("nope.example.com"))

    def test_remove_name(self, zone):
        removed = zone.remove_name(DomainName("www.example.com"))
        assert removed == 1
        assert not zone.name_exists(DomainName("www.example.com"))

    def test_remove_keeps_empty_non_terminal_with_descendants(self, zone):
        zone.remove_name(DomainName("empty.example.com"))
        # Still referenced by deep.empty.example.com's TXT record.
        assert zone.name_exists(DomainName("empty.example.com"))

    def test_delegation_discovery(self, zone):
        zone.add_delegation(
            DomainName("sub.example.com"), DomainName("ns1.sub.example.com"), "9.9.9.9"
        )
        assert zone.find_delegation(DomainName("x.sub.example.com")) == DomainName(
            "sub.example.com"
        )
        assert zone.find_delegation(DomainName("www.example.com")) is None

    def test_cannot_delegate_apex(self, zone):
        with pytest.raises(ZoneError):
            zone.add_delegation(DomainName("example.com"), DomainName("ns.example.com"))


class TestAnswerAlgorithm:
    def test_positive_answer(self, server):
        response = ask(server, "www.example.com")
        assert response.rcode == RCode.NOERROR
        assert response.answers[0].rdata == "1.2.3.4"
        assert response.authoritative

    def test_nxdomain_with_soa(self, server):
        response = ask(server, "missing.example.com")
        assert response.is_nxdomain()
        assert response.soa_minimum_ttl() is not None

    def test_nodata_for_existing_name_wrong_type(self, server):
        response = ask(server, "www.example.com", RRType.TXT)
        assert response.rcode == RCode.NOERROR and not response.answers
        assert not response.is_nxdomain()
        assert response.soa_minimum_ttl() is not None

    def test_nodata_for_empty_non_terminal(self, server):
        response = ask(server, "empty.example.com")
        assert response.rcode == RCode.NOERROR and not response.answers

    def test_refused_outside_hosted_zones(self, server):
        response = ask(server, "www.other.org")
        assert response.rcode == RCode.REFUSED

    def test_referral_for_delegated_subtree(self, server, zone):
        zone.add_delegation(
            DomainName("sub.example.com"), DomainName("ns1.sub.example.com"), "9.9.9.9"
        )
        response = ask(server, "host.sub.example.com")
        assert response.is_referral()
        assert any(rr.rtype == RRType.NS for rr in response.authorities)
        assert any(rr.rtype == RRType.A for rr in response.additionals)

    def test_cname_chased_one_step(self, server, zone):
        zone.add(
            ResourceRecord(
                DomainName("alias.example.com"), RRType.CNAME, 60, "www.example.com"
            )
        )
        response = ask(server, "alias.example.com")
        assert response.answers[0].rtype == RRType.CNAME

    def test_stats_track_outcomes(self, server):
        ask(server, "www.example.com")
        ask(server, "missing.example.com")
        ask(server, "www.example.com", RRType.TXT)
        assert server.stats.queries == 3
        assert server.stats.answers == 1
        assert server.stats.nxdomains == 1
        assert server.stats.nodatas == 1

    def test_most_specific_zone_wins(self, server, zone):
        child = Zone(DomainName("sub.example.com"))
        child.add(
            ResourceRecord(DomainName("host.sub.example.com"), RRType.A, 60, "7.7.7.7")
        )
        server.host_zone(child)
        response = ask(server, "host.sub.example.com")
        assert response.answers[0].rdata == "7.7.7.7"
