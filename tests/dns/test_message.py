"""Tests for the DNS message model."""

import pytest

from repro.dns.message import (
    DnsMessage,
    Question,
    RCode,
    ResourceRecord,
    RRType,
    make_soa_record,
)
from repro.dns.name import DomainName


@pytest.fixture
def query():
    return DnsMessage.make_query(DomainName("www.example.com"), msg_id=42)


class TestQueryConstruction:
    def test_query_shape(self, query):
        assert not query.is_response
        assert query.msg_id == 42
        assert query.question == Question(DomainName("www.example.com"), RRType.A)

    def test_question_required(self):
        with pytest.raises(ValueError):
            DnsMessage().question


class TestResponses:
    def test_response_mirrors_query(self, query):
        response = query.make_response()
        assert response.is_response
        assert response.msg_id == 42
        assert response.questions == query.questions

    def test_cannot_respond_to_response(self, query):
        with pytest.raises(ValueError):
            query.make_response().make_response()

    def test_nxdomain_classification(self, query):
        response = query.make_response(rcode=RCode.NXDOMAIN)
        assert response.is_nxdomain()

    def test_nodata_is_not_nxdomain(self, query):
        response = query.make_response()  # NOERROR, empty answers
        assert response.rcode == RCode.NOERROR and not response.answers
        assert not response.is_nxdomain()

    def test_answered_response_is_neither(self, query):
        rr = ResourceRecord(
            DomainName("www.example.com"), RRType.A, 300, "93.184.216.34"
        )
        response = query.make_response(answers=[rr])
        assert response.answers
        assert not response.is_nxdomain()

    def test_referral_detection(self, query):
        ns = ResourceRecord(
            DomainName("example.com"), RRType.NS, 172800, "ns1.example.com"
        )
        referral = query.make_response(authorities=[ns], authoritative=False)
        assert referral.is_referral()
        authoritative = query.make_response(authorities=[ns], authoritative=True)
        assert not authoritative.is_referral()


class TestSoa:
    def test_soa_minimum_ttl_uses_min_of_ttl_and_minimum(self, query):
        soa = make_soa_record(DomainName("example.com"), ttl=7200, minimum=900)
        response = query.make_response(rcode=RCode.NXDOMAIN, authorities=[soa])
        assert response.soa_minimum_ttl() == 900

        soa_low_ttl = make_soa_record(DomainName("example.com"), ttl=60, minimum=900)
        response = query.make_response(rcode=RCode.NXDOMAIN, authorities=[soa_low_ttl])
        assert response.soa_minimum_ttl() == 60

    def test_soa_minimum_absent_without_soa(self, query):
        assert query.make_response(rcode=RCode.NXDOMAIN).soa_minimum_ttl() is None

    def test_soa_requires_structured_data(self):
        with pytest.raises(ValueError):
            ResourceRecord(DomainName("example.com"), RRType.SOA, 300, "free-form")


class TestRecords:
    def test_negative_ttl_rejected(self):
        with pytest.raises(ValueError):
            ResourceRecord(DomainName("example.com"), RRType.A, -1, "1.2.3.4")

    def test_with_ttl_copies(self):
        rr = ResourceRecord(DomainName("example.com"), RRType.A, 300, "1.2.3.4")
        assert rr.with_ttl(10).ttl == 10
        assert rr.ttl == 300
