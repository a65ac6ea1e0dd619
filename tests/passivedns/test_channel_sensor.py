"""Tests for observations, the SIE channel, and sensors."""

import pytest

from repro.dns.hierarchy import DnsHierarchy
from repro.dns.message import DnsMessage, RCode, RRType
from repro.dns.name import DomainName
from repro.dns.tld import TldRegistry
from repro.dns.wire import encode_message
from repro.passivedns.channel import SieChannel
from repro.passivedns.record import DnsObservation
from repro.passivedns.sensor import Sensor, SensorTappedResolver

GONE = DomainName("www.gone-domain.com")


def nx_observation(name="gone.com", ts=100, count=1):
    return DnsObservation(DomainName(name), RCode.NXDOMAIN, ts, count=count)


class TestObservation:
    def test_validation(self):
        with pytest.raises(ValueError):
            nx_observation(count=0)
        with pytest.raises(ValueError):
            nx_observation(ts=-1)

    def test_registered_domain_projection(self):
        obs = DnsObservation(GONE, RCode.NXDOMAIN, 0)
        assert obs.registered_domain == DomainName("gone-domain.com")
        assert obs.is_nxdomain


class TestChannel:
    def test_filters_non_nxdomain(self):
        channel = SieChannel()
        received = []
        channel.subscribe(received.append)
        assert channel.publish(nx_observation())
        assert not channel.publish(
            DnsObservation(DomainName("ok.com"), RCode.NOERROR, 0)
        )
        assert len(received) == 1
        assert channel.published == 1
        assert channel.dropped == 1

    def test_filters_reverse_lookups(self):
        channel = SieChannel()
        obs = DnsObservation(
            DomainName("1.2.3.4.in-addr.arpa"), RCode.NXDOMAIN, 0
        )
        assert not channel.publish(obs)

    def test_unfiltered_channel(self):
        channel = SieChannel(nxdomain_only=False, drop_reverse_lookups=False)
        assert channel.publish(DnsObservation(DomainName("ok.com"), RCode.NOERROR, 0))

    def test_multiple_subscribers(self):
        channel = SieChannel()
        a, b = [], []
        channel.subscribe(a.append)
        channel.subscribe(b.append)
        channel.publish(nx_observation())
        assert len(a) == len(b) == 1
        channel.unsubscribe(b.append)
        channel.publish(nx_observation())
        assert len(a) == 2 and len(b) == 1

    def test_subscriber_count(self):
        channel = SieChannel()
        assert channel.subscriber_count == 0
        channel.subscribe(lambda o: None)
        assert channel.subscriber_count == 1


class TestSensor:
    def test_wire_tap_decodes_and_publishes(self):
        channel = SieChannel()
        received = []
        channel.subscribe(received.append)
        sensor = Sensor("eu-west", channel)
        query = DnsMessage.make_query(GONE, msg_id=5)
        response = query.make_response(rcode=RCode.NXDOMAIN)
        obs = sensor.observe_wire(encode_message(response), now=50)
        assert obs is not None
        assert obs.qname == GONE
        assert obs.sensor_id == "eu-west"
        assert received == [obs]

    def test_malformed_wire_counted_not_raised(self):
        sensor = Sensor("s", SieChannel())
        assert sensor.observe_wire(b"\x00\x01", now=0) is None
        assert sensor.stats.decode_errors == 1

    def test_queries_ignored(self):
        sensor = Sensor("s", SieChannel())
        query = DnsMessage.make_query(GONE)
        assert sensor.observe_message(query, now=0) is None

    def test_noerror_filtered_by_channel(self):
        sensor = Sensor("s", SieChannel())
        query = DnsMessage.make_query(GONE)
        assert sensor.observe_message(query.make_response(), now=0) is None
        assert sensor.stats.observed == 1


class TestSensorTappedResolver:
    @pytest.fixture
    def tapped(self):
        hierarchy = DnsHierarchy.build(TldRegistry.default())
        hierarchy.register_domain(DomainName("alive.com"), "10.0.0.1")
        channel = SieChannel()
        received = []
        channel.subscribe(received.append)
        resolver = SensorTappedResolver(
            hierarchy.make_recursive_resolver(), Sensor("tap", channel)
        )
        return resolver, received

    def test_nxdomain_visible_once_then_cached(self, tapped):
        resolver, received = tapped
        gone = DomainName("www.gone.com")
        resolver.resolve(gone, now=0)
        resolver.resolve(gone, now=60)  # negative cache hit: invisible
        assert len(received) == 1

    def test_negative_cache_expiry_reappears(self, tapped):
        resolver, received = tapped
        gone = DomainName("www.gone.com")
        resolver.resolve(gone, now=0)
        resolver.resolve(gone, now=1000)  # TLD negative TTL is 900
        assert len(received) == 2

    def test_positive_answers_not_on_nx_channel(self, tapped):
        resolver, received = tapped
        resolver.resolve(DomainName("www.alive.com"), now=0)
        assert received == []
