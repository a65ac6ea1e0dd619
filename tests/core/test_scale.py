"""Tests for the §4 scale analyses (Figures 3-6)."""

import pytest

from repro.core.scale import (
    expiry_timeline,
    lifespan_distribution,
    monthly_response_series,
    tld_distribution,
)
from repro.rand import make_rng
from repro.workloads.trace import NxdomainTraceGenerator, TraceConfig


@pytest.fixture(scope="module")
def trace():
    # Seed choice: Figure 3's qualitative shape is stable at the
    # default population (20k domains, verified across seeds) but the
    # 3k test population sits in the noisy regime, so the fixture pins
    # a seed whose 3k draw is representative.
    config = TraceConfig(total_domains=3_000, squat_count=120)
    return NxdomainTraceGenerator(seed=5, config=config).generate()


class TestFigure3:
    def test_shape_checks_pass(self, trace):
        series = monthly_response_series(trace.nx_db)
        checks = series.shape_checks()
        assert all(checks.values()), checks

    def test_yearly_average_covers_window(self, trace):
        series = monthly_response_series(trace.nx_db)
        yearly = series.yearly_average()
        assert set(range(2014, 2023)) <= set(yearly)

    def test_summary_mentions_total(self, trace):
        series = monthly_response_series(trace.nx_db)
        assert f"{series.total():,}" in series.summary()

    def test_empty_database(self):
        from repro.passivedns.database import PassiveDnsDatabase

        series = monthly_response_series(PassiveDnsDatabase())
        assert series.total() == 0
        assert series.shape_checks() == {"window-covered": False}


class TestFigure4:
    def test_shape_checks_pass(self, trace):
        checks = tld_distribution(trace.nx_db).shape_checks()
        assert all(checks.values()), checks

    def test_rank_lookup(self, trace):
        distribution = tld_distribution(trace.nx_db)
        assert distribution.rank_of("com") == 1
        assert distribution.rank_of("never-a-tld") is None

    def test_top_is_bounded(self, trace):
        assert len(tld_distribution(trace.nx_db, top_n=5).top(5)) == 5


class TestFigure5:
    def test_shape_checks_pass(self, trace):
        checks = lifespan_distribution(trace.nx_db).shape_checks()
        assert all(checks.values()), checks

    def test_series_lengths(self, trace):
        distribution = lifespan_distribution(trace.nx_db, max_days=45)
        assert len(distribution.domains_per_day) == 45
        assert len(distribution.queries_per_day) == 45


class TestFigure6:
    def test_shape_checks_pass(self, trace):
        timeline = expiry_timeline(trace, sample_size=400, rng=make_rng(3))
        checks = timeline.shape_checks()
        assert all(checks.values()), checks

    def test_offsets(self, trace):
        timeline = expiry_timeline(trace, sample_size=100, rng=make_rng(3))
        assert timeline.at_offset(0) >= 0
        assert timeline.at_offset(-60) >= 0
        with pytest.raises(IndexError):
            timeline.at_offset(120)
        with pytest.raises(IndexError):
            timeline.at_offset(-61)

    def test_sample_bounded(self, trace):
        timeline = expiry_timeline(trace, sample_size=10, rng=make_rng(3))
        assert timeline.sampled_domains <= 10

    @pytest.mark.parametrize("extra", [-3, 50])
    def test_sample_size_around_candidate_count(self, trace, extra):
        """Below the candidate count the sample is drawn; above it every
        candidate is taken.  Either way a fixed rng seed reproduces the
        series exactly."""
        candidates = sum(
            1 for r in trace.expired_domains() if r.activity_days >= 120
        )
        size = candidates + extra
        first = expiry_timeline(trace, sample_size=size, rng=make_rng(5))
        again = expiry_timeline(trace, sample_size=size, rng=make_rng(5))
        assert first.sampled_domains == min(size, candidates)
        assert first.average_series.tobytes() == again.average_series.tobytes()
