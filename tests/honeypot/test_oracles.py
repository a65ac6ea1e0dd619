"""Tests for the NVD, reverse-IP, and web-filter oracles."""

import pytest

from repro.honeypot.nvd import Severity, VulnerabilityDatabase
from repro.honeypot.reverse_ip import ReverseIpTable
from repro.honeypot.webfilter import ReferralKind, WebFilter, WebPage


class TestNvd:
    @pytest.fixture
    def nvd(self):
        return VulnerabilityDatabase()

    def test_paper_examples_sensitive(self, nvd):
        assert nvd.is_sensitive("/wp-login.php")
        assert nvd.is_sensitive("/accounts/changepassword.php")

    def test_critical_files(self, nvd):
        assert nvd.severity_of("/.env") == Severity.CRITICAL
        assert nvd.severity_of("/backup/shell.php") == Severity.CRITICAL

    def test_benign_paths(self, nvd):
        assert nvd.severity_of("/index.html") == Severity.NONE
        assert not nvd.is_sensitive("/images/logo.png")
        assert not nvd.is_sensitive("/getTask.php")

    def test_sensitive_segments(self, nvd):
        assert nvd.is_sensitive("/phpmyadmin/index.php")
        assert nvd.is_sensitive("/cgi-bin/test.sh")
        assert nvd.is_sensitive("/.git/config")

    def test_minimum_threshold(self, nvd):
        nvd.add("weak.php", Severity.LOW)
        assert not nvd.is_sensitive("/weak.php")
        assert nvd.is_sensitive("/weak.php", minimum=Severity.LOW)

    def test_suspicious_query(self, nvd):
        assert nvd.is_malicious_uri("/", "cmd=ls")
        assert nvd.is_malicious_uri("/", "imei=A-1&os=23")
        assert not nvd.is_malicious_uri("/", "page=2")
        assert not nvd.is_malicious_uri("/", "")

    def test_add_extends(self, nvd):
        before = len(nvd)
        nvd.add("newprobe.php", Severity.HIGH)
        assert len(nvd) == before + 1
        assert nvd.is_sensitive("/newprobe.php")


class TestReverseIp:
    @pytest.fixture
    def table(self):
        t = ReverseIpTable()
        t.register("66.249.66.1", "crawl-66-249-66-1.googlebot.com")
        t.register("40.77.167.10", "msnbot-40-77-167-10.search.msn.com")
        t.register("74.125.0.5", "rate-limited-proxy-74-125-0-5.googleusercontent.com")
        t.register("3.88.1.2", "ec2-3-88-1-2.compute-1.amazonaws.com")
        return t

    def test_lookup(self, table):
        assert table.lookup("66.249.66.1").endswith("googlebot.com")
        assert table.lookup("9.9.9.9") is None

    def test_service_attribution(self, table):
        assert table.service_of("66.249.66.1") == "Google crawler"
        assert table.service_of("40.77.167.10") == "Bing crawler"
        assert table.service_of("74.125.0.5") == "google-proxy"
        assert table.service_of("3.88.1.2") == "Amazon AWS"
        assert table.service_of("9.9.9.9") is None

    def test_known_crawler(self, table):
        assert table.is_known_crawler("66.249.66.1")
        assert not table.is_known_crawler("74.125.0.5")  # proxy, not crawler
        assert not table.is_known_crawler("9.9.9.9")

    def test_hostname_histogram(self, table):
        histogram = table.hostname_histogram(
            ["74.125.0.5", "74.125.0.5", "3.88.1.2", "9.9.9.9"]
        )
        assert histogram["google-proxy"] == 2
        assert histogram["Amazon AWS"] == 1
        assert histogram["unresolved"] == 1

    def test_unknown_suffix_is_other_hosting(self, table):
        table.register("5.5.5.5", "server.random-isp.example")
        histogram = table.hostname_histogram(["5.5.5.5"])
        assert histogram == {"other-hosting": 1}


class TestWebFilter:
    @pytest.fixture
    def webfilter(self):
        wf = WebFilter()
        wf.register_page(
            WebPage(
                "https://forum.example.org/thread/42",
                category="forums-blogs",
                linked_domains={"resheba.online"},
            )
        )
        return wf

    def test_search_engine_referers(self, webfilter):
        for url in (
            "https://www.google.com/search?q=x",
            "https://go.mail.ru/search?q=y",
            "https://yandex.ru/search",
        ):
            assert webfilter.classify(url, "any.com") == ReferralKind.SEARCH_ENGINE

    def test_embedded_link(self, webfilter):
        kind = webfilter.classify(
            "https://forum.example.org/thread/42", "resheba.online"
        )
        assert kind == ReferralKind.EMBEDDED

    def test_page_without_our_link_is_malicious(self, webfilter):
        kind = webfilter.classify(
            "https://forum.example.org/thread/42", "other.com"
        )
        assert kind == ReferralKind.MALICIOUS_LINK

    def test_unreachable_page_is_malicious(self, webfilter):
        kind = webfilter.classify("https://gone.example.net/x", "resheba.online")
        assert kind == ReferralKind.MALICIOUS_LINK

    def test_fetch_normalizes_scheme_and_slash(self, webfilter):
        assert webfilter.fetch("http://forum.example.org/thread/42/") is not None

    def test_page_category(self, webfilter):
        page = webfilter.fetch("https://forum.example.org/thread/42")
        assert page.category == "forums-blogs"
        assert webfilter.fetch("https://nope.example") is None
