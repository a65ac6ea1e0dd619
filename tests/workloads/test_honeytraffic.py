"""End-to-end tests: generated honeypot traffic → categorizer → Table 1."""

import pytest

from repro.honeypot.categorize import Category, Subcategory, TrafficCategorizer
from repro.honeypot.reverse_ip import ReverseIpTable
from repro.honeypot.webfilter import WebFilter
from repro.rand import make_rng
from repro.workloads.control import (
    generate_control_traffic,
    generate_no_hosting_baseline,
)
from repro.workloads.domains import (
    PAPER_TABLE1,
    TABLE1_FIELDS,
    registered_domain_profiles,
)
from repro.workloads.honeytraffic import HoneypotTrafficGenerator


@pytest.fixture(scope="module")
def setup():
    reverse_ip = ReverseIpTable()
    web_filter = WebFilter()
    generator = HoneypotTrafficGenerator(
        make_rng(11), scale=0.004, reverse_ip=reverse_ip, web_filter=web_filter
    )
    categorizer = TrafficCategorizer(reverse_ip=reverse_ip, web_filter=web_filter)
    return generator, categorizer


class TestProfiles:
    def test_nineteen_domains(self):
        profiles = registered_domain_profiles()
        assert len(profiles) == 19
        assert sum(1 for p in profiles if p.malicious) == 8

    def test_paper_total(self):
        # The table's printed Total column disagrees with its own cells
        # by 74 requests (typesetting artifacts in two rows); we encode
        # the cells, so the sum lands within that slack.
        total = sum(sum(row) for row, _ in PAPER_TABLE1.values())
        assert abs(total - 5_925_311) < 100

    def test_scaled_counts_floor(self):
        profile = registered_domain_profiles()[-1]
        scaled = profile.scaled_counts(1e-6)
        assert all(v >= 1 for k, v in scaled.items() if profile.counts[k] > 0)
        with pytest.raises(ValueError):
            profile.scaled_counts(0)

    def test_flags(self):
        by_name = {p.domain: p for p in registered_domain_profiles()}
        assert by_name["gpclick.com"].botnet_target
        assert by_name["conf-cdn.com"].email_crawler_heavy
        assert by_name["1x-sport-bk7.com"].polling_fleet
        assert by_name["resheba.online"].region == "ru"


class TestGeneratedClassification:
    """Each emitter's traffic must classify back into its subcategory."""

    @pytest.mark.parametrize("field", TABLE1_FIELDS, ids=lambda f: f.value)
    def test_per_subcategory_accuracy(self, setup, field):
        generator, categorizer = setup
        profiles = {p.domain: p for p in registered_domain_profiles()}
        # Use a mid-size domain for generic behaviour plus the special
        # ones where the pattern lives.
        for name in ("porno-komiksy.com", "gpclick.com", "conf-cdn.com"):
            profile = profiles[name]
            count = 40
            emitter = generator._emitters[field]
            categorized = categorizer.categorize_batch(
                emitter(profile, count), stream_threshold=None
            )
            matched = int(categorized.rows_of(field).sum())
            assert matched / len(categorized) >= 0.9, (name, field)

    def test_polling_fleet_needs_stream_reclassifier(self, setup):
        generator, categorizer = setup
        profile = next(
            p for p in registered_domain_profiles() if p.polling_fleet
        )
        requests = generator._emit_script_software(profile, 600)
        without = categorizer.categorize_batch(requests, stream_threshold=None)
        with_streams = categorizer.categorize_batch(requests, stream_threshold=50)
        assert without.category_counts()[Category.USER_VISIT] == 600
        counts = with_streams.category_counts()
        assert counts[Category.AUTOMATED] > 500


class TestEndToEndTable1:
    @pytest.fixture(scope="class")
    def table(self):
        reverse_ip = ReverseIpTable()
        web_filter = WebFilter()
        generator = HoneypotTrafficGenerator(
            make_rng(5), scale=0.002, reverse_ip=reverse_ip, web_filter=web_filter
        )
        categorizer = TrafficCategorizer(
            reverse_ip=reverse_ip, web_filter=web_filter
        )
        traffic = generator.generate_batch(include_noise=False)
        return categorizer.categorize_batch(traffic)

    def test_volume_matches_scale(self, table):
        expected = 5_925_311 * 0.002
        assert abs(len(table.requests) - expected) / expected < 0.1

    def test_automated_dominates(self, table):
        counts = table.category_counts()
        assert counts[Category.AUTOMATED] > counts[Category.WEB_CRAWLER]
        assert counts[Category.AUTOMATED] > counts[Category.USER_VISIT]
        assert counts[Category.AUTOMATED] > counts[Category.REFERRAL]

    def test_resheba_is_top_domain(self, table):
        volumes = table.requests.host.tally()
        top = max(volumes, key=volumes.get)
        assert top == "resheba.online"

    def test_gpclick_malicious_share(self, table):
        gpclick = table.requests.host_rows("gpclick.com")
        malicious = gpclick & table.rows_of(Subcategory.MALICIOUS_REQUEST)
        assert malicious.sum() / gpclick.sum() > 0.9

    def test_subcategory_shape_per_domain(self, table):
        """Every domain's dominant generated subcategory matches Table 1."""
        paper_dominant = {}
        for domain, (row, _) in PAPER_TABLE1.items():
            cells = dict(zip(TABLE1_FIELDS, row))
            paper_dominant[domain] = max(cells, key=cells.get)
        mismatches = []
        for domain in table.requests.host.tally():
            counts = table.subcategory_counts(table.requests.host_rows(domain))
            dominant = max(counts, key=counts.get)
            if dominant != paper_dominant[domain]:
                mismatches.append((domain, dominant, paper_dominant[domain]))
        # Tolerate at most two small-volume domains drifting.
        assert len(mismatches) <= 2, mismatches


class TestCalibrationDeployments:
    def test_no_hosting_baseline_monitor_dominates(self):
        recorder = generate_no_hosting_baseline(make_rng(3), packets=1000)
        top_port, _ = recorder.top_ports(1)[0]
        assert top_port == 52646
        assert recorder.request_count == 0

    def test_control_group_has_establishment_traffic(self):
        recorder = generate_control_traffic(make_rng(3), requests=500)
        requests = recorder.request_batch().to_requests()
        assert any(r.path.startswith("/.well-known") for r in requests)
        assert all(r.host.startswith("control-study-") for r in requests)
        assert recorder.port_histogram().get(52646, 0) > 0

    def test_noise_is_filterable(self):
        from repro.honeypot.filtering import TwoStageFilter

        rng = make_rng(9)
        no_hosting = generate_no_hosting_baseline(rng, packets=2000)
        control = generate_control_traffic(rng, requests=1000)
        noise_filter = TwoStageFilter.calibrated(no_hosting, control)

        generator = HoneypotTrafficGenerator(make_rng(10), scale=0.001)
        requests = generator.generate_batch(include_noise=True)
        kept, stats = noise_filter.apply_batch(requests)
        assert stats.dropped > 0
        # The genuine traffic survives nearly intact.
        assert stats.kept / stats.input_requests > 0.9
        # And the well-known URI noise is gone from what's kept.
        assert not any(p.startswith("/.well-known") for p in kept.path.distinct())
