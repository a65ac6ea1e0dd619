"""Tests for the HTTP request / packet models."""

import pytest

from repro.honeypot.batch import RequestBatch
from repro.honeypot.http import (
    HttpRequest,
    PacketRecord,
    Transport,
    parse_query,
    path_extension,
)

from tests.honeypot.reference import reference_shadow


def request(**overrides):
    defaults = dict(timestamp=0, src_ip="198.51.100.7", host="example.com")
    defaults.update(overrides)
    return HttpRequest(**defaults)


class TestPacketRecord:
    def test_valid(self):
        packet = PacketRecord(0, "1.2.3.4", 443, Transport.UDP, 100)
        assert packet.transport == Transport.UDP

    def test_port_bounds(self):
        with pytest.raises(ValueError):
            PacketRecord(0, "1.2.3.4", 70000)
        with pytest.raises(ValueError):
            PacketRecord(0, "1.2.3.4", -1)

    def test_payload_bounds(self):
        with pytest.raises(ValueError):
            PacketRecord(0, "1.2.3.4", 80, payload_size=-5)


class TestHttpRequest:
    def test_defaults(self):
        r = request()
        assert r.path == "/"
        assert r.port == 80
        assert r.uri == "/"

    def test_path_validation(self):
        with pytest.raises(ValueError):
            request(path="no-slash")

    def test_port_validation(self):
        with pytest.raises(ValueError):
            request(port=8080)

    def test_tls(self):
        assert request(port=443).port == 443

    def test_uri_with_query(self):
        r = request(path="/getTask.php", query="imei=1&balance=0")
        assert r.uri == "/getTask.php?imei=1&balance=0"

    def test_filename_and_extension(self):
        assert path_extension("/a/b/status.json") == "json"
        assert path_extension("/dir/") == ""
        assert path_extension("/README") == ""
        assert path_extension("/pic.JPEG") == "jpeg"

    def test_query_parameters(self):
        params = parse_query("imei=A-1&country=us&os=23&empty")
        assert params["imei"] == "A-1"
        assert params["country"] == "us"
        assert params["empty"] == ""
        assert parse_query("") == {}

    def test_packet_shadow_matches_reference(self):
        requests = [
            request(port=443),
            request(path="/getTask.php", query="imei=1", user_agent="curl/7.85.0"),
            request(timestamp=9, src_ip="10.0.0.1", path="/a/b.json"),
        ]
        shadows = RequestBatch.from_requests(requests).packet_shadow().to_packets()
        assert shadows == [reference_shadow(r) for r in requests]
        assert shadows[0].dst_port == 443
        assert shadows[0].src_ip == "198.51.100.7"
        assert shadows[1].payload_size == len("/getTask.php?imei=1") + 11 + 64
