"""Tests for the §4.4 cohort and DGA registration-rate analyses."""

import pytest

from repro.core.origin import dga_registration_rate
from repro.core.scale import long_lived_cohort
from repro.passivedns.database import PassiveDnsDatabase
from repro.dns.name import DomainName
from repro.workloads.trace import NxdomainTraceGenerator, TraceConfig

DAY = 86_400


@pytest.fixture(scope="module")
def trace():
    config = TraceConfig(total_domains=2_000, squat_count=80)
    return NxdomainTraceGenerator(seed=33, config=config).generate()


class TestLongLivedCohort:
    def test_hand_built_cohort(self):
        db = PassiveDnsDatabase()
        # Long-lived: active span of 3 years.
        long_lived = DomainName("old-timer.com")
        db.add_rows(long_lived, [0], [10])
        db.add_rows(long_lived, [3 * 365 * DAY], [7])
        # Short-lived: three days.
        db.add_rows(DomainName("flash.net"), [0], [100])
        db.add_rows(DomainName("flash.net"), [3 * DAY], [1])
        cohort = long_lived_cohort(db, min_years=2.0)
        assert cohort.domain_count == 1
        assert cohort.total_queries == 17
        assert cohort.population_domains == 2
        assert cohort.cohort_fraction == 0.5

    def test_empty_database(self):
        cohort = long_lived_cohort(PassiveDnsDatabase(), min_years=2.0)
        assert cohort.domain_count == 0
        assert cohort.cohort_fraction == 0.0
        assert not cohort.shape_checks()["cohort-nonempty"]

    def test_trace_cohort_shape(self, trace):
        cohort = long_lived_cohort(trace.nx_db, min_years=2.0)
        checks = cohort.shape_checks()
        assert all(checks.values()), checks

    def test_threshold_monotone(self, trace):
        loose = long_lived_cohort(trace.nx_db, min_years=1.0)
        strict = long_lived_cohort(trace.nx_db, min_years=4.0)
        assert strict.domain_count <= loose.domain_count
        assert strict.total_queries <= loose.total_queries


class TestDgaRegistrationRate:
    def test_trace_rate_is_rare(self, trace):
        rate = dga_registration_rate(trace)
        checks = rate.shape_checks()
        assert all(checks.values()), checks
        # Expired DGA is 3% of 20% of the population; never-registered
        # DGA is 55% of 80% — the rate lands low single digits.
        assert rate.registration_rate < 0.05

    def test_counts_match_population(self, trace):
        from repro.workloads.trace import DomainKind

        rate = dga_registration_rate(trace)
        assert rate.registered_dga == len(
            trace.domains_of_kind(DomainKind.EXPIRED_DGA)
        )
        assert rate.total_dga == rate.registered_dga + rate.never_registered_dga

    def test_empty_degenerate(self):
        from repro.core.origin import DgaRegistrationRate

        rate = DgaRegistrationRate(0, 0)
        assert rate.registration_rate == 0.0
        assert not rate.shape_checks()["dga-exists"]
