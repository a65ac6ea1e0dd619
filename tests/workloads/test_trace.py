"""Tests for the 8-year NXDomain trace generator."""

import numpy as np
import pytest

from repro.clock import SECONDS_PER_DAY
from repro.errors import WorkloadError
from repro.workloads.trace import (
    DomainKind,
    NxdomainTraceGenerator,
    TraceConfig,
    TraceResult,
    YEAR_MULTIPLIERS,
)


@pytest.fixture(scope="module")
def trace() -> TraceResult:
    config = TraceConfig(total_domains=3_000, squat_count=120)
    return NxdomainTraceGenerator(seed=42, config=config).generate()


class TestConfigValidation:
    def test_bounds(self):
        with pytest.raises(WorkloadError):
            TraceConfig(total_domains=10)
        with pytest.raises(WorkloadError):
            TraceConfig(expired_fraction=0.0)
        with pytest.raises(WorkloadError):
            TraceConfig(total_domains=1000, expired_fraction=0.1, squat_count=500)


class TestPopulation:
    def test_population_size(self, trace):
        assert len(trace.population) == 3_000

    def test_kind_proportions(self, trace):
        expired = trace.expired_domains()
        never = [d for d in trace.population if not d.kind.is_expired]
        assert len(never) > len(expired)  # never-registered dominates
        assert abs(len(expired) - 600) < 30

        dga_expired = trace.domains_of_kind(DomainKind.EXPIRED_DGA)
        assert abs(len(dga_expired) - 600 * 0.03) <= 5

        squats = trace.domains_of_kind(DomainKind.EXPIRED_SQUAT)
        assert abs(len(squats) - 120) <= 10

    def test_squat_type_ordering(self, trace):
        from repro.squatting.detector import SquattingType

        squats = trace.domains_of_kind(DomainKind.EXPIRED_SQUAT)
        counts = {}
        for record in squats:
            counts[record.squat_type] = counts.get(record.squat_type, 0) + 1
        assert counts[SquattingType.TYPO] > counts[SquattingType.DOT]
        assert counts[SquattingType.COMBO] > counts[SquattingType.DOT]
        assert counts[SquattingType.DOT] >= counts.get(SquattingType.BIT, 0)

    def test_dga_domains_have_family(self, trace):
        for record in trace.domains_of_kind(
            DomainKind.EXPIRED_DGA, DomainKind.NEVER_REGISTERED_DGA
        ):
            assert record.dga_family

    def test_unique_domains(self, trace):
        names = [d.domain for d in trace.population]
        assert len(set(names)) == len(names)

    def test_ground_truth_lookup(self, trace):
        record = trace.population[0]
        assert trace.ground_truth(record.domain) is record


class TestWhoisIntegration:
    def test_expired_have_history(self, trace):
        for record in trace.expired_domains()[:50]:
            assert trace.whois.has_history(record.domain)
            spans = trace.whois.registration_spans(record.domain)
            assert spans[0][0] < spans[0][1]

    def test_never_registered_have_none(self, trace):
        for record in trace.domains_of_kind(DomainKind.NEVER_REGISTERED_JUNK)[:50]:
            assert not trace.whois.has_history(record.domain)

    def test_join_fraction(self, trace):
        result = trace.whois.join([d.domain for d in trace.population])
        expected = len(trace.expired_domains()) / len(trace.population)
        assert result.hit_fraction == pytest.approx(expected, abs=0.01)


class TestBlocklistIntegration:
    def test_only_expired_blocklisted(self, trace):
        for record in trace.population:
            if record.blocklisted:
                assert record.kind.is_expired
                assert record.domain in trace.blocklist

    def test_blocklist_nonempty(self, trace):
        assert len(trace.blocklist) > 10


class TestQueryActivity:
    def test_every_domain_appears_in_nx_db(self, trace):
        # Nearly every domain should have at least one recorded query
        # (tiny Poisson rates can produce silent domains).
        with_queries = sum(
            1
            for d in trace.population
            if trace.nx_db.profile(d.domain) is not None
        )
        assert with_queries / len(trace.population) > 0.8

    def test_volume_rises_in_2021(self, trace):
        series = trace.nx_db.monthly_response_series()
        def year_avg(year):
            months = [v for k, v in series.items() if k.startswith(str(year))]
            return sum(months) / max(len(months), 1)
        assert year_avg(2021) > 1.4 * year_avg(2019)
        assert year_avg(2022) > year_avg(2016)
        assert year_avg(2016) > year_avg(2014)

    def test_com_is_top_tld(self, trace):
        top = trace.nx_db.top_tlds(5)
        assert top[0][0] == "com"

    def test_lifespan_decay_is_decreasing(self, trace):
        domains, queries = trace.nx_db.lifespan_decay(60)
        assert domains[0] > domains[10] > domains[59]
        assert queries.sum() > 0

    def test_pre_expiry_traffic_exists(self, trace):
        expired = trace.expired_domains()
        with_pre = sum(
            1 for d in expired if trace.pre_expiry_db.profile(d.domain)
        )
        assert with_pre / len(expired) > 0.7

    def test_expiry_spike_around_day_30(self, trace):
        """Average post-NX query series shows the +30d bump (Figure 6).

        The paper computes this over NXDomains queried for more than
        two years in NX status — the long-lived cohort — not over the
        short-lived mass whose decay swamps the bump.
        """
        expired = [d for d in trace.expired_domains() if d.activity_days >= 120]
        assert expired, "trace produced no long-lived expired domains"
        acc = np.zeros(60)
        for record in expired:
            series = trace.nx_db.daily_series_for(
                record.domain,
                record.became_nx_at,
                record.became_nx_at + 60 * SECONDS_PER_DAY,
            )
            acc += series
        window = acc[25:36].mean()
        neighbours = (acc[10:20].mean() + acc[45:55].mean()) / 2
        assert window > neighbours

    def test_deterministic(self):
        config = TraceConfig(total_domains=500, squat_count=40)
        a = NxdomainTraceGenerator(seed=1, config=config).generate()
        b = NxdomainTraceGenerator(seed=1, config=config).generate()
        assert a.nx_db.total_responses() == b.nx_db.total_responses()
        assert [(d.domain, d.kind) for d in a.population] == [
            (d.domain, d.kind) for d in b.population
        ]
        assert a.nx_db.fingerprint() == b.nx_db.fingerprint()
        assert a.pre_expiry_db.fingerprint() == b.pre_expiry_db.fingerprint()

    def test_seed_changes_trace(self):
        config = TraceConfig(total_domains=500, squat_count=40)
        a = NxdomainTraceGenerator(seed=1, config=config).generate()
        b = NxdomainTraceGenerator(seed=2, config=config).generate()
        assert [d.domain for d in a.population] != [d.domain for d in b.population]
