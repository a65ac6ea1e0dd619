"""Tests for the §6 security experiment (Table 1, Figures 10/13/14/15)."""

import pytest

from repro.core.security import (
    botnet_victim_analysis,
    inapp_browser_distribution,
    inapp_shape_checks,
    port_distribution,
    run_security_experiment,
)
from repro.rand import make_rng


@pytest.fixture(scope="module")
def result():
    return run_security_experiment(make_rng(13), scale=0.002)


class TestTable1:
    def test_shape_checks(self, result):
        checks = result.shape_checks()
        assert all(checks.values()), checks

    def test_nineteen_rows(self, result):
        assert len(result.table1) == 19

    def test_filter_removed_noise(self, result):
        assert result.filter_stats.dropped > 0
        assert result.filter_stats.kept / result.filter_stats.input_requests > 0.85


class TestSinglePass:
    def test_table1_equals_honeypot_reports(self, result):
        assert result.table1 == result.honeypot.reports()

    def test_categorized_equals_honeypot_categorization(self, result):
        assert result.categorized == result.honeypot.categorized_requests()


class TestDeterminism:
    def test_same_seed_same_run(self, result):
        again = run_security_experiment(make_rng(13), scale=0.002)
        assert again.filter_stats == result.filter_stats
        assert [
            (c.request, c.category, c.subcategory) for c in again.categorized
        ] == [(c.request, c.category, c.subcategory) for c in result.categorized]


class TestFigure10:
    def test_shape_checks(self, result):
        ports = port_distribution(result)
        checks = ports.shape_checks()
        assert all(checks.values()), checks

    def test_http_share_high(self, result):
        filtered = result.noise_filter.filter_packets(
            result.honeypot.recorder.packets()
        )
        web = sum(1 for p in filtered if p.dst_port in (80, 443))
        assert web / len(filtered) > 0.75  # paper: 81.7%


class TestFigure13:
    def test_shape_checks(self, result):
        histogram = inapp_browser_distribution(result)
        checks = inapp_shape_checks(histogram)
        assert all(checks.values()), checks

    def test_empty_histogram(self):
        assert inapp_shape_checks({}) == {"nonempty": False}


class TestBotnet:
    def test_shape_checks(self, result):
        analysis = botnet_victim_analysis(result)
        checks = analysis.shape_checks()
        assert all(checks.values()), checks

    def test_request_count_matches_table(self, result):
        analysis = botnet_victim_analysis(result)
        gpclick_row = next(r for r in result.table1 if r.domain == "gpclick.com")
        # Nearly all gpclick traffic is the getTask.php stream.
        assert analysis.request_count >= 0.9 * gpclick_row.total

    def test_victim_facts_parsed(self, result):
        analysis = botnet_victim_analysis(result)
        assert analysis.distinct_phones > 0
        assert analysis.country_histogram
        assert "Nexus 5X" in analysis.model_histogram
