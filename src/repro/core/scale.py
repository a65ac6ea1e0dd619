"""§4 — the scale of NXDomains.

Four analyses over the passive DNS database:

- :func:`monthly_response_series` — Figure 3's per-month NXDomain
  response volume and its year-over-year shape;
- :func:`tld_distribution` — Figure 4's top-TLD ranking with domain
  and query counts;
- :func:`lifespan_distribution` — Figure 5's decay of domains (and
  their queries) across days spent in NX status;
- :func:`expiry_timeline` — Figure 6's average query volume 60 days
  before to 120 days after domains become non-existent, computed over
  a sample of long-lived NXDomains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.clock import SECONDS_PER_DAY
from repro.passivedns.database import PassiveDnsDatabase
from repro.workloads.trace import TraceResult
from repro.errors import RangeError

# ---------------------------------------------------------------------------
# Figure 3
# ---------------------------------------------------------------------------


@dataclass
class MonthlySeries:
    """NXDomain responses per month with per-year aggregates."""

    by_month: Dict[str, int]

    def yearly_average(self) -> Dict[int, float]:
        """Average responses per month, per year."""
        sums: Dict[int, List[int]] = {}
        for month_key, value in self.by_month.items():
            year = int(month_key[:4])
            sums.setdefault(year, []).append(value)
        return {
            year: sum(values) / len(values) for year, values in sorted(sums.items())
        }

    def total(self) -> int:
        return sum(self.by_month.values())

    def shape_checks(self) -> Dict[str, bool]:
        """Figure 3's qualitative shape: rise to 2016, flat-ish middle,
        steep 2021 rise, 2022 higher still."""
        yearly = self.yearly_average()
        required = {2014, 2016, 2019, 2020, 2021, 2022}
        if not required <= set(yearly):
            return {"window-covered": False}
        return {
            "window-covered": True,
            "rises-2014-to-2016": yearly[2016] > yearly[2014],
            "flat-2016-to-2020": yearly[2020] < 1.6 * yearly[2016],
            "steep-rise-2021": yearly[2021] > 1.35 * yearly[2020],
            "2022-exceeds-2021": yearly[2022] > 0.95 * yearly[2021],
        }

    def summary(self) -> str:
        yearly = self.yearly_average()
        rows = ", ".join(f"{year}: {avg:,.0f}/mo" for year, avg in yearly.items())
        return f"NXDomain responses ({self.total():,} total) — {rows}"


def monthly_response_series(nx_db: PassiveDnsDatabase) -> MonthlySeries:
    """Figure 3's series from the passive DNS store."""
    return MonthlySeries(nx_db.monthly_response_series())


# ---------------------------------------------------------------------------
# Figure 4
# ---------------------------------------------------------------------------


@dataclass
class TldDistribution:
    """Top TLDs by unique NXDomains, with their query volumes."""

    rows: List[Tuple[str, int, int]]  # (tld, domains, queries)

    def top(self, n: int = 20) -> List[Tuple[str, int, int]]:
        return self.rows[:n]

    def shape_checks(self) -> Dict[str, bool]:
        """Figure 4's headline: .com first; .net/.cn/.ru/.org in the
        top five; query ranking tracks domain ranking."""
        top5 = {tld for tld, _, _ in self.rows[:5]}
        by_queries = sorted(self.rows, key=lambda r: r[2], reverse=True)
        top5_by_queries = {tld for tld, _, _ in by_queries[:5]}
        return {
            "com-first": bool(self.rows) and self.rows[0][0] == "com",
            "top5-has-cctlds": len({"cn", "ru"} & top5) == 2,
            "net-org-in-top5": len({"net", "org"} & top5) >= 1,
            "query-rank-tracks-domain-rank": len(top5 & top5_by_queries) >= 3,
        }


def tld_distribution(nx_db: PassiveDnsDatabase, top_n: int = 20) -> TldDistribution:
    return TldDistribution(nx_db.top_tlds(top_n))


# ---------------------------------------------------------------------------
# Figure 5
# ---------------------------------------------------------------------------


@dataclass
class LifespanDistribution:
    """Domains and queries per day-in-NX-status (0..59)."""

    domains_per_day: np.ndarray
    queries_per_day: np.ndarray

    def shape_checks(self) -> Dict[str, bool]:
        """Figure 5: sharp decrease over the first ten days, slower
        after; the query series tracks the domain series."""
        d = self.domains_per_day.astype(float)
        if d[0] == 0:
            return {"nonempty": False}
        early_drop = (d[0] - d[10]) / d[0]
        late_drop = (d[10] - d[50]) / max(d[10], 1.0)
        return {
            "nonempty": True,
            "fast-early-decay": early_drop > 0.3,
            "slower-late-decay": (late_drop / 40) < (early_drop / 10),
            "queries-track-domains": bool(
                np.corrcoef(
                    self.domains_per_day, self.queries_per_day
                )[0, 1]
                > 0.5
            ),
        }


def lifespan_distribution(
    nx_db: PassiveDnsDatabase, max_days: int = 60
) -> LifespanDistribution:
    domains, queries = nx_db.lifespan_decay(max_days)
    return LifespanDistribution(domains, queries)


# ---------------------------------------------------------------------------
# §4.4's long-lived cohort
# ---------------------------------------------------------------------------


@dataclass
class LongLivedCohort:
    """NXDomains in NX status for years yet still receiving queries.

    §4.4: "We discover 1,018,964 NXDomains receiving a total of
    107,020,820 DNS queries as of 2022, while they have been in
    non-existent status for more than 5 years."
    """

    min_years: float
    domain_count: int
    total_queries: int
    population_domains: int

    @property
    def cohort_fraction(self) -> float:
        if self.population_domains == 0:
            return 0.0
        return self.domain_count / self.population_domains

    def shape_checks(self) -> Dict[str, bool]:
        """The cohort exists and is a small (sub-10%) minority — the
        heavy tail of Figure 5, not the bulk."""
        return {
            "cohort-nonempty": self.domain_count > 0,
            "cohort-minority": self.cohort_fraction < 0.10,
            "queries-nonzero": self.total_queries > 0,
        }


def long_lived_cohort(
    nx_db: PassiveDnsDatabase, min_years: float = 5.0
) -> LongLivedCohort:
    """Domains whose observed NX query span exceeds ``min_years``.

    Span is measured first-to-last observation in the NX store, the
    same proxy the paper has (it cannot see a deletion event either).
    Query volume counts the cohort's entire observed NX traffic.
    """
    threshold_days = min_years * 365
    domain_count = 0
    total_queries = 0
    population = 0
    for profile in nx_db.profiles():
        population += 1
        if profile.lifespan_days() > threshold_days:
            domain_count += 1
            total_queries += profile.total_queries
    return LongLivedCohort(
        min_years=min_years,
        domain_count=domain_count,
        total_queries=total_queries,
        population_domains=population,
    )


# ---------------------------------------------------------------------------
# Figure 6
# ---------------------------------------------------------------------------


@dataclass
class ExpiryTimeline:
    """Average daily queries around the became-NX pivot.

    Index 0 = 60 days before the pivot; index 60 = pivot;
    index 179 = 119 days after.
    """

    average_series: np.ndarray
    sampled_domains: int
    days_before: int = 60
    days_after: int = 120

    def at_offset(self, day_offset: int) -> float:
        """Average queries at ``day_offset`` relative to the pivot."""
        index = self.days_before + day_offset
        if not 0 <= index < len(self.average_series):
            raise RangeError(f"offset {day_offset} outside timeline")
        return float(self.average_series[index])

    def shape_checks(self) -> Dict[str, bool]:
        """Figure 6: a spike ~30 days after the pivot that exceeds the
        pre-expiry level, and lower overall post-expiry volume."""
        series = self.average_series
        pre = series[: self.days_before]
        post = series[self.days_before :]
        spike_window = post[25:36].mean()
        post_rest = np.concatenate([post[:20], post[45:]]).mean()
        return {
            "sampled": self.sampled_domains > 0,
            "spike-around-day-30": bool(spike_window > 1.5 * post_rest),
            "spike-exceeds-pre-expiry": bool(spike_window > pre.mean()),
            "post-volume-below-pre": bool(post_rest < pre.mean()),
        }


def expiry_timeline(
    trace: TraceResult,
    sample_size: int = 1_000,
    min_nx_days: int = 120,
    rng: Optional[np.random.Generator] = None,
) -> ExpiryTimeline:
    """Figure 6 over a sample of long-lived expired NXDomains.

    Combines the pre-expiry (NOERROR) store for the 60 days before the
    pivot with the NX store for the 120 days after, exactly the two
    sides of the paper's status-change axis.
    """
    candidates = [
        record
        for record in trace.expired_domains()
        if record.activity_days >= min_nx_days
    ]
    if rng is not None and len(candidates) > sample_size:
        indices = rng.choice(len(candidates), size=sample_size, replace=False)
        candidates = [candidates[int(i)] for i in indices]
    else:
        candidates = candidates[:sample_size]
    accumulator = np.zeros(180, dtype=np.int64)
    for record in candidates:
        pivot = record.became_nx_at
        accumulator[:60] += trace.pre_expiry_db.daily_series_for(
            record.domain, pivot - 60 * SECONDS_PER_DAY, pivot
        )
        accumulator[60:] += trace.nx_db.daily_series_for(
            record.domain, pivot, pivot + 120 * SECONDS_PER_DAY
        )
    count = max(len(candidates), 1)
    return ExpiryTimeline(
        accumulator.astype(float) / count, sampled_domains=len(candidates)
    )
