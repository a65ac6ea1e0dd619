"""Tests for the gpclick botnet generator and IP pools."""

import pytest

from repro.honeypot.categorize import Subcategory, TrafficCategorizer
from repro.honeypot.batch import RequestBatch
from repro.honeypot.http import parse_query
from repro.honeypot.reverse_ip import ReverseIpTable
from repro.rand import make_rng
from repro.workloads.botnet import (
    BOTNET_USER_AGENT,
    GpclickBotnet,
    continent_of_country,
)
from repro.workloads.ipspace import IpPool, make_pool


class TestIpPool:
    def test_prefix_validation(self):
        with pytest.raises(ValueError):
            IpPool("1.2.3", make_rng(1))
        with pytest.raises(ValueError):
            IpPool("999.1", make_rng(1))

    def test_sized_pool_repeats_addresses(self):
        pool = IpPool("198.51", make_rng(1), size=5)
        addresses = {pool.address() for _ in range(200)}
        assert len(addresses) <= 5

    def test_sized_pool_validation(self):
        with pytest.raises(ValueError):
            IpPool("198.51", make_rng(1), size=0)

    def test_unsized_pool_diverse(self):
        pool = IpPool("66.249", make_rng(1))
        addresses = {pool.address() for _ in range(200)}
        assert len(addresses) > 150

    def test_ptr_registration(self):
        table = ReverseIpTable()
        pool = make_pool("google-crawler", make_rng(1), table)
        ip = pool.address()
        assert table.lookup(ip).endswith("googlebot.com")
        assert table.is_known_crawler(ip)

    def test_unknown_pool_name(self):
        with pytest.raises(KeyError):
            make_pool("nonexistent", make_rng(1))


class TestGpclickBotnet:
    @pytest.fixture(scope="class")
    def requests(self):
        table = ReverseIpTable()
        botnet = GpclickBotnet(make_rng(7), table)
        return botnet.batch(800, 0, 10_000_000).to_requests(), table

    def test_shape(self, requests):
        reqs, _ = requests
        assert len(reqs) == 800
        assert all(r.path == "/getTask.php" for r in reqs)
        assert all(r.user_agent == BOTNET_USER_AGENT for r in reqs)
        assert all(r.host == "gpclick.com" for r in reqs)

    def test_sorted_timestamps(self, requests):
        reqs, _ = requests
        times = [r.timestamp for r in reqs]
        assert times == sorted(times)

    def test_query_structure_matches_figure12(self, requests):
        reqs, _ = requests
        params = parse_query(reqs[0].query)
        for key in ("imei", "balance", "country", "phone", "op", "mnc", "mcc", "model", "os"):
            assert key in params, key
        assert params["op"] == "Android"
        assert params["os"] == "23"
        assert params["balance"] == "0"

    def test_nexus_models_dominate(self, requests):
        reqs, _ = requests
        models = [parse_query(r.query)["model"] for r in reqs]
        nexus = sum(1 for m in models if m.startswith("Nexus"))
        assert nexus / len(models) > 0.9

    def test_country_spread_across_continents(self, requests):
        reqs, _ = requests
        countries = {parse_query(r.query)["country"] for r in reqs}
        continents = {continent_of_country(c) for c in countries}
        assert {"Europe", "Asia", "America"} <= continents

    def test_google_proxy_majority(self, requests):
        reqs, table = requests
        histogram = table.hostname_histogram([r.src_ip for r in reqs])
        total = sum(histogram.values())
        assert histogram.get("google-proxy", 0) / total > 0.45

    def test_classified_as_malicious_request(self, requests):
        reqs, _ = requests
        categorizer = TrafficCategorizer()
        categorized = categorizer.categorize_batch(
            RequestBatch.from_requests(reqs[:1]), stream_threshold=None
        )
        assert categorized.rows_of(Subcategory.MALICIOUS_REQUEST).all()

    def test_validation(self):
        botnet = GpclickBotnet(make_rng(1))
        with pytest.raises(ValueError):
            botnet.batch(-1, 0, 10)
        with pytest.raises(ValueError):
            botnet.batch(1, 10, 10)

    def test_continent_of_unknown(self):
        assert continent_of_country("zz") is None
