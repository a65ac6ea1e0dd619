"""Tests for the §6.3 crawler-origin analyses."""

import pytest

from repro.honeypot.categorize import Subcategory
from repro.core.security import (
    email_crawler_breakdown,
    regional_correlation_checks,
    run_security_experiment,
    search_engine_breakdown,
)
from repro.rand import make_rng
from repro.workloads.domains import registered_domain_profiles

from tests.honeypot.reference import categorized_items


@pytest.fixture(scope="module")
def result():
    return run_security_experiment(make_rng(31), scale=0.003)


class TestEmailCrawlerBreakdown:
    def test_confcdn_dominated_by_email(self, result):
        breakdown = email_crawler_breakdown(result)
        checks = breakdown.shape_checks()
        assert all(checks.values()), checks
        assert breakdown.email_share > 0.85

    def test_gmail_largest(self, result):
        breakdown = email_crawler_breakdown(result)
        gmail = breakdown.by_provider.get("GmailImageProxy", 0)
        assert gmail == max(breakdown.by_provider.values())

    def test_other_domain_not_email_heavy(self, result):
        breakdown = email_crawler_breakdown(result, domain="resheba.online")
        assert breakdown.email_share < 0.5

    def test_unknown_domain_degenerate(self, result):
        breakdown = email_crawler_breakdown(result, domain="nope.example")
        assert breakdown.file_grabber_total == 0
        assert breakdown.email_share == 0.0


class TestRegionalCorrelation:
    def test_checks_pass(self, result):
        checks = regional_correlation_checks(result)
        assert all(checks.values()), checks

    def test_ru_domain_crawled_by_mailru(self, result):
        histogram = search_engine_breakdown(result, "porno-komiksy.com")
        regional = histogram.get("Mail.Ru", 0) + histogram.get("Yandex", 0)
        assert regional > sum(histogram.values()) / 2

    def test_empty_for_unknown_domain(self, result):
        assert search_engine_breakdown(result, "nope.example") == {}


def _scan_breakdown(result, domain):
    """One full scan of the categorized traffic per domain."""
    histogram = {}
    for item in categorized_items(result.traffic):
        if (
            item.request.host.lower() == domain.lower()
            and item.subcategory == Subcategory.SEARCH_ENGINE
        ):
            name = item.agent_name or "unknown"
            histogram[name] = histogram.get(name, 0) + 1
    return dict(sorted(histogram.items(), key=lambda kv: kv[1], reverse=True))


def _per_domain_regional(result):
    """The per-domain composition the one-pass grouping replaced."""
    ru, us = {}, {}
    for profile in registered_domain_profiles():
        target = ru if profile.region == "ru" else us
        for name, count in _scan_breakdown(result, profile.domain).items():
            target[name] = target.get(name, 0) + count
    ru_total, us_total = sum(ru.values()), sum(us.values())
    return {
        "ru-domains-crawled-regionally": ru_total > 0
        and (ru.get("Mail.Ru", 0) + ru.get("Yandex", 0)) / ru_total > 0.5,
        "us-domains-crawled-globally": us_total > 0
        and (us.get("Google", 0) + us.get("Bing", 0)) / us_total > 0.5,
    }


class TestOnePassGrouping:
    def test_breakdown_matches_scan_for_every_domain(self, result):
        domains = [p.domain for p in registered_domain_profiles()]
        for domain in domains + ["PORNO-KOMIKSY.com", "nope.example"]:
            ours = search_engine_breakdown(result, domain)
            expected = _scan_breakdown(result, domain)
            assert list(ours.items()) == list(expected.items()), domain

    def test_regional_checks_match_per_domain_composition(self, result):
        assert regional_correlation_checks(result) == _per_domain_regional(result)

    def test_regional_checks_match_on_a_second_seed(self):
        other = run_security_experiment(make_rng(8), scale=0.002)
        assert regional_correlation_checks(other) == _per_domain_regional(other)
