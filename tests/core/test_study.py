"""Tests for selection, the orchestrator, and the report renderers."""

import pytest

from repro.core.reports import render_bars, render_table
from repro.core.selection import (
    SelectionCriteria,
    pick_study_set,
    select_candidates,
)
from repro.core.study import NxdomainStudy, StudyConfig


@pytest.fixture(scope="module")
def study():
    config = StudyConfig(
        trace_domains=3_000,
        squat_count=120,
        honeypot_scale=0.002,
        expiry_timeline_sample=300,
        dga_samples_per_family=100,
    )
    # Seed pinned for the 3k-domain noisy regime; see tests/core/test_scale.py.
    return NxdomainStudy(seed=4, config=config)


class TestSelection:
    def test_criteria_scaling(self):
        criteria = SelectionCriteria(min_monthly_queries=10_000)
        scaled = criteria.scaled(1e-3)
        assert scaled.min_monthly_queries == 10.0
        assert scaled.min_nx_days == 180
        with pytest.raises(ValueError):
            criteria.scaled(0)

    def test_candidates_meet_criteria(self, study):
        criteria = SelectionCriteria(min_monthly_queries=20.0)
        candidates = select_candidates(study.trace, criteria)
        assert candidates
        for candidate in candidates:
            assert candidate.monthly_queries >= 20.0
            assert candidate.nx_days >= 180

    def test_candidates_sorted_by_traffic(self, study):
        criteria = SelectionCriteria(min_monthly_queries=20.0)
        candidates = select_candidates(study.trace, criteria)
        volumes = [c.monthly_queries for c in candidates]
        assert volumes == sorted(volumes, reverse=True)

    def test_study_set(self, study):
        criteria = SelectionCriteria(min_monthly_queries=20.0)
        candidates = select_candidates(study.trace, criteria)
        chosen = pick_study_set(candidates)
        assert len(chosen) <= 19
        if len(chosen) >= 4:
            assert any(s.is_malicious for s in chosen)
            assert any(not s.is_malicious for s in chosen)


class TestStudy:
    def test_trace_cached(self, study):
        assert study.trace is study.trace

    def test_scale_analysis_all_shapes(self, study):
        analysis = study.run_scale_analysis()
        for figure, checks in analysis.shape_checks().items():
            assert all(checks.values()), (figure, checks)

    def test_origin_analysis_all_shapes(self, study):
        analysis = study.run_origin_analysis()
        for section, checks in analysis.shape_checks().items():
            assert all(checks.values()), (section, checks)

    def test_security_analysis_shapes(self, study):
        result = study.run_security_analysis()
        assert all(result.shape_checks().values())
        assert study.run_security_analysis() is result  # cached

    def test_run_selection(self, study):
        chosen = study.run_selection()
        assert chosen

    def test_full_report_renders_everything(self, study):
        report = study.full_report()
        for marker in (
            "Figure 3", "Figure 4", "Figure 5", "Figure 6", "§4.4",
            "§5.1", "§5.2", "Figure 7", "Figure 8", "Table 1",
            "Figure 10a", "Figure 10b", "Figure 13", "Figure 14",
            "Figure 15", "DGA registration rate",
        ):
            assert marker in report, marker
        assert "FAIL" not in report, report

    def test_package_level_import(self):
        import repro

        assert repro.NxdomainStudy is NxdomainStudy
        assert isinstance(repro.__version__, str)
        with pytest.raises(AttributeError):
            repro.nonexistent_attribute


class TestRenderers:
    def test_render_table_alignment(self):
        text = render_table(["a", "bbb"], [[1, 2], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[:2])

    def test_render_bars(self):
        text = render_bars([("x", 10), ("y", 5)], width=10)
        assert "##########" in text
        assert "#####" in text

    def test_render_bars_empty(self):
        assert render_bars([]) == "(empty)"

    def test_render_bars_zero_values(self):
        text = render_bars([("x", 0)])
        assert "x" in text
