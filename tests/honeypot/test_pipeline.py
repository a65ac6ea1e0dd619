"""Tests for recorder, filtering, categorizer, and the honeypot server."""

import pytest

from repro.honeypot.categorize import (
    Category,
    Subcategory,
    TrafficCategorizer,
    category_counts,
    subcategory_counts,
)
from repro.honeypot.filtering import TwoStageFilter
from repro.honeypot.http import HttpRequest, PacketRecord, Transport
from repro.honeypot.recorder import TrafficRecorder
from repro.honeypot.reverse_ip import ReverseIpTable
from repro.honeypot.server import LANDING_PAGE, NxdHoneypot
from repro.honeypot.webfilter import WebFilter, WebPage

CHROME = (
    "Mozilla/5.0 (Windows NT 10.0) AppleWebKit/537.36 (KHTML, like Gecko) "
    "Chrome/100.0 Safari/537.36"
)


def req(**overrides):
    defaults = dict(timestamp=0, src_ip="198.51.100.1", host="resheba.online")
    defaults.update(overrides)
    return HttpRequest(**defaults)


class TestRecorder:
    def test_port_histogram_and_top_ports(self):
        recorder = TrafficRecorder()
        for port, n in ((80, 5), (443, 3), (22, 1)):
            for i in range(n):
                recorder.record_packet(PacketRecord(i, "1.1.1.1", port))
        assert recorder.port_histogram()[80] == 5
        assert recorder.top_ports(2) == [(80, 5), (443, 3)]

    def test_request_recording_creates_packet(self):
        recorder = TrafficRecorder()
        recorder.record_request(req(port=443))
        assert recorder.request_count == 1
        assert recorder.packet_count == 1
        assert recorder.port_histogram() == {443: 1}

    def test_http_share(self):
        recorder = TrafficRecorder()
        recorder.record_packet(PacketRecord(0, "1.1.1.1", 80))
        recorder.record_packet(PacketRecord(0, "1.1.1.1", 22))
        assert recorder.http_share() == 0.5
        assert TrafficRecorder().http_share() == 0.0

    def test_window_and_host_filter(self):
        recorder = TrafficRecorder()
        recorder.record_request(req(timestamp=10))
        recorder.record_request(req(timestamp=20, host="other.com"))
        view = recorder.window(0, 15)
        assert view.request_count == 1
        assert len(recorder.requests_for_host("OTHER.com")) == 1

    def test_source_ips(self):
        recorder = TrafficRecorder()
        recorder.record_packet(PacketRecord(0, "1.1.1.1", 80))
        recorder.record_request(req(src_ip="2.2.2.2"))
        assert recorder.source_ips() == {"1.1.1.1", "2.2.2.2"}


class TestTwoStageFilter:
    @pytest.fixture
    def noise_filter(self):
        f = TwoStageFilter()
        f.learn_no_hosting_baseline(
            [PacketRecord(0, "203.0.113.50", 22), PacketRecord(0, "203.0.113.51", 80)]
        )
        f.learn_control_group(
            [
                req(src_ip="198.18.0.1", path="/.well-known/acme-challenge/tok"),
                req(src_ip="198.18.0.2", path="/"),
            ]
        )
        return f

    def test_scanner_ips_dropped(self, noise_filter):
        kept, stats = noise_filter.apply([req(src_ip="203.0.113.50")])
        assert kept == []
        assert stats.dropped_by_ip_baseline == 1

    def test_control_ips_dropped(self, noise_filter):
        kept, stats = noise_filter.apply([req(src_ip="198.18.0.1")])
        assert kept == []
        assert stats.dropped_by_control_group == 1

    def test_well_known_uri_dropped_even_from_new_ip(self, noise_filter):
        request = req(src_ip="9.9.9.9", path="/.well-known/acme-challenge/tok")
        kept, _ = noise_filter.apply([request])
        assert kept == []

    def test_shared_benign_uri_kept_from_new_ip(self, noise_filter):
        kept, _ = noise_filter.apply([req(src_ip="9.9.9.9", path="/")])
        assert len(kept) == 1

    def test_stats_roll_up(self, noise_filter):
        requests = [
            req(src_ip="203.0.113.50"),
            req(src_ip="198.18.0.1"),
            req(src_ip="9.9.9.9"),
        ]
        kept, stats = noise_filter.apply(requests)
        assert stats.input_requests == 3
        assert stats.kept == 1
        assert stats.dropped == 2
        assert stats.drop_fraction() == pytest.approx(2 / 3)

    def test_empty_input(self, noise_filter):
        kept, stats = noise_filter.apply([])
        assert kept == [] and stats.input_requests == 0 and stats.kept == 0

    def test_learning_counters(self, noise_filter):
        assert noise_filter.scanner_ip_count == 2
        assert noise_filter.control_signature_count >= 3


class TestCategorizer:
    @pytest.fixture
    def categorizer(self):
        webfilter = WebFilter()
        webfilter.register_page(
            WebPage(
                "https://blog.example.org/post",
                linked_domains={"resheba.online"},
            )
        )
        reverse = ReverseIpTable()
        reverse.register("66.249.66.1", "crawl-1.googlebot.com")
        return TrafficCategorizer(reverse_ip=reverse, web_filter=webfilter)

    def test_referral_search(self, categorizer):
        item = categorizer.categorize(
            req(referer="https://www.google.com/search?q=resheba")
        )
        assert item.category == Category.REFERRAL
        assert item.subcategory == Subcategory.REFERRAL_SEARCH

    def test_referral_embedded(self, categorizer):
        item = categorizer.categorize(req(referer="https://blog.example.org/post"))
        assert item.subcategory == Subcategory.REFERRAL_EMBEDDED

    def test_referral_malicious(self, categorizer):
        item = categorizer.categorize(req(referer="https://fake.example.net/x"))
        assert item.subcategory == Subcategory.REFERRAL_MALICIOUS

    def test_referral_takes_precedence_over_ua(self, categorizer):
        item = categorizer.categorize(
            req(user_agent=CHROME, referer="https://www.google.com/search")
        )
        assert item.category == Category.REFERRAL

    def test_search_engine_crawler(self, categorizer):
        item = categorizer.categorize(
            req(user_agent="Mozilla/5.0 (compatible; Googlebot/2.1)", path="/index.html")
        )
        assert item.category == Category.WEB_CRAWLER
        assert item.subcategory == Subcategory.SEARCH_ENGINE
        assert item.agent_name == "Google"

    def test_file_grabber_crawler(self, categorizer):
        item = categorizer.categorize(
            req(user_agent="Mozilla/5.0 (compatible; Googlebot-Image/1.0 crawler)",
                path="/img/banner.jpeg")
        )
        assert item.subcategory == Subcategory.FILE_GRABBER

    def test_email_crawler_is_file_grabber(self, categorizer):
        item = categorizer.categorize(
            req(user_agent="Mozilla/5.0 (via ggpht.com GoogleImageProxy)",
                path="/newsletter/pixel.png")
        )
        assert item.category == Category.WEB_CRAWLER
        assert item.subcategory == Subcategory.FILE_GRABBER

    def test_crawler_attested_by_reverse_ip(self, categorizer):
        item = categorizer.categorize(
            req(src_ip="66.249.66.1", user_agent="", path="/page.html")
        )
        assert item.category == Category.WEB_CRAWLER

    def test_user_visit_pc(self, categorizer):
        item = categorizer.categorize(req(user_agent=CHROME))
        assert item.category == Category.USER_VISIT
        assert item.subcategory == Subcategory.PC_MOBILE

    def test_user_visit_inapp(self, categorizer):
        item = categorizer.categorize(
            req(user_agent="Mozilla/5.0 (iPhone) WhatsApp/2.21")
        )
        assert item.subcategory == Subcategory.INAPP
        assert item.agent_name == "WhatsApp"

    def test_script_benign(self, categorizer):
        item = categorizer.categorize(
            req(user_agent="curl/7.85.0", path="/status.json")
        )
        assert item.category == Category.AUTOMATED
        assert item.subcategory == Subcategory.SCRIPT_SOFTWARE

    def test_script_hitting_sensitive_uri_is_malicious(self, categorizer):
        item = categorizer.categorize(
            req(user_agent="python-requests/2.28", path="/wp-login.php")
        )
        assert item.subcategory == Subcategory.MALICIOUS_REQUEST

    def test_unknown_ua_sensitive_uri_malicious(self, categorizer):
        item = categorizer.categorize(req(user_agent="", path="/wp-login.php"))
        assert item.category == Category.AUTOMATED
        assert item.subcategory == Subcategory.MALICIOUS_REQUEST

    def test_unknown_ua_suspicious_query_malicious(self, categorizer):
        item = categorizer.categorize(
            req(
                user_agent="Apache-HttpClient/UNAVAILABLE (java 1.4)",
                path="/getTask.php",
                query="imei=A-1&balance=0&country=us",
            )
        )
        assert item.subcategory == Subcategory.MALICIOUS_REQUEST

    def test_unknown_ua_file_path_is_script(self, categorizer):
        item = categorizer.categorize(req(user_agent="", path="/data/feed.xml"))
        assert item.subcategory == Subcategory.SCRIPT_SOFTWARE

    def test_bare_probe_is_others(self, categorizer):
        item = categorizer.categorize(req(user_agent="", path="/"))
        assert item.category == Category.OTHERS

    def test_count_helpers(self, categorizer):
        items = categorizer.categorize_many(
            [req(user_agent=CHROME), req(user_agent="curl/7.0", path="/x.json")]
        )
        assert category_counts(items)[Category.USER_VISIT] == 1
        assert subcategory_counts(items)[Subcategory.SCRIPT_SOFTWARE] == 1


class TestHoneypotServer:
    def test_serves_landing_page(self):
        honeypot = NxdHoneypot(["resheba.online"])
        body = honeypot.accept_request(req())
        assert body == LANDING_PAGE
        assert "measurement study" in body
        assert honeypot.pages_served == 1

    def test_unfiltered_report_without_calibration(self):
        honeypot = NxdHoneypot(["resheba.online"])
        honeypot.accept_request(req(user_agent=CHROME))
        report = honeypot.report_for("resheba.online")
        assert report.total == 1
        assert report.count(Subcategory.PC_MOBILE) == 1

    def test_calibrated_filtering(self):
        honeypot = NxdHoneypot(["resheba.online"])
        honeypot.accept_request(req(src_ip="203.0.113.50", user_agent=CHROME))
        honeypot.accept_request(req(src_ip="7.7.7.7", user_agent=CHROME))

        no_hosting = TrafficRecorder("no-hosting")
        no_hosting.record_packet(PacketRecord(0, "203.0.113.50", 22))
        control = TrafficRecorder("control")
        honeypot.calibrate(no_hosting, control)

        kept, stats = honeypot.filtered_requests()
        assert stats.dropped_by_ip_baseline == 1
        assert len(kept) == 1

    def test_reports_sorted_by_volume(self):
        honeypot = NxdHoneypot(["a.com", "b.com"])
        for _ in range(3):
            honeypot.accept_request(req(host="b.com", user_agent=CHROME))
        honeypot.accept_request(req(host="a.com", user_agent=CHROME))
        reports = honeypot.reports()
        assert [r.domain for r in reports] == ["b.com", "a.com"]
        assert reports[0].total == 3

    def test_reports_equal_reports_from_categorized(self):
        honeypot = NxdHoneypot(["c.com", "a.com", "b.com", "d.com"])
        for host, n in (("b.com", 2), ("c.com", 2), ("a.com", 2), ("d.com", 1)):
            for _ in range(n):
                honeypot.accept_request(req(host=host, user_agent=CHROME))
        honeypot.accept_request(req(host="a.com", user_agent="curl/7.68.0"))
        honeypot.accept_request(req(host="c.com", user_agent="curl/7.68.0"))
        reports = honeypot.reports()
        assert reports == honeypot.reports_from(honeypot.categorized_requests())
        # Equal totals are ordered by domain name.
        assert [(r.domain, r.total) for r in reports] == [
            ("a.com", 3), ("c.com", 3), ("b.com", 2), ("d.com", 1),
        ]

    def test_unhosted_domain_traffic_excluded_from_reports(self):
        honeypot = NxdHoneypot(["a.com"])
        honeypot.accept_request(req(host="stranger.com", user_agent=CHROME))
        assert honeypot.reports()[0].total == 0
