"""The end-to-end study orchestrator (Figure 2).

:class:`NxdomainStudy` wires the whole methodology together: generate
the passive DNS trace, run the scale analyses, run the origin analyses
(WHOIS join, DGA census, squatting census, blocklist cross-reference),
apply the §3.3 selection criteria, run the honeypot experiment, and
render every table and figure.

>>> study = NxdomainStudy(seed=7, config=StudyConfig(trace_domains=2_000))
>>> scale = study.run_scale_analysis()
>>> scale.monthly_series.shape_checks()["window-covered"]
True
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core import origin as origin_mod
from repro.core import reports
from repro.core import scale as scale_mod
from repro.core import security as security_mod
from repro.core import selection as selection_mod
from repro.dga.detector import DgaDetector
from repro.faults.plan import FaultPlan
from repro.passivedns.pipeline import PipelineStats
from repro.rand import SeedSequenceFactory
from repro.squatting.detector import SquattingDetector
from repro.workloads.trace import NxdomainTraceGenerator, TraceConfig, TraceResult


@dataclass
class StudyConfig:
    """Study-wide knobs (defaults match the benchmark harness)."""

    trace_domains: int = 20_000
    squat_count: int = 450
    honeypot_scale: float = 0.005
    blocklist_sample_ratio: float = 0.25
    expiry_timeline_sample: int = 1_000
    selection_min_monthly: float = 50.0
    dga_samples_per_family: int = 200
    #: Census operating point.  Production in-line detectors run at
    #: high precision; 0.9 lands the flagged share near the paper's 3%
    #: (see the threshold-sweep ablation bench).
    dga_threshold: float = 0.9
    #: When set, the generated trace is replayed through a faulted
    #: resilient ingestion pipeline before any analysis — the §4
    #: analyses then measure what a degraded collection would show.
    #: ``None`` (the default) leaves the pipeline untouched and the
    #: study byte-identical to a pre-fault-harness run.
    fault_plan: Optional[FaultPlan] = None
    #: When set, the NX store backing every analysis is the crash-safe
    #: on-disk segment store under this directory (committed as one
    #: manifest generation; reopened stores are fingerprint-verified).
    #: Every §4 aggregate stays byte-identical to the in-memory path —
    #: see ``docs/RESILIENCE.md``.
    spill_dir: Optional[str] = None

    def trace_config(self) -> TraceConfig:
        return TraceConfig(
            total_domains=self.trace_domains, squat_count=self.squat_count
        )


@dataclass
class ScaleAnalysis:
    """The §4 bundle."""

    monthly_series: scale_mod.MonthlySeries
    tld_distribution: scale_mod.TldDistribution
    lifespan: scale_mod.LifespanDistribution
    expiry_timeline: scale_mod.ExpiryTimeline
    long_lived: scale_mod.LongLivedCohort
    total_responses: int
    unique_domains: int

    def shape_checks(self) -> Dict[str, Dict[str, bool]]:
        return {
            "figure3": self.monthly_series.shape_checks(),
            "figure4": self.tld_distribution.shape_checks(),
            "figure5": self.lifespan.shape_checks(),
            "figure6": self.expiry_timeline.shape_checks(),
            "s44-long-lived": self.long_lived.shape_checks(),
        }


@dataclass
class OriginAnalysis:
    """The §5 bundle."""

    whois_join: origin_mod.WhoisJoinResult
    dga_census: origin_mod.DgaCensus
    dga_registration: origin_mod.DgaRegistrationRate
    squatting_census: origin_mod.SquattingCensus
    blocklist_census: origin_mod.BlocklistCensus

    def shape_checks(self) -> Dict[str, Dict[str, bool]]:
        return {
            "whois-join": self.whois_join.shape_checks(),
            "dga": self.dga_census.shape_checks(),
            "dga-registration": self.dga_registration.shape_checks(),
            "figure7": self.squatting_census.shape_checks(),
            "figure8": self.blocklist_census.shape_checks(),
        }


class NxdomainStudy:
    """One seeded, reproducible run of the full measurement study."""

    def __init__(
        self,
        seed: int = 0,
        config: Optional[StudyConfig] = None,
        trace: Optional[TraceResult] = None,
    ) -> None:
        self.seed = seed
        self.config = config if config is not None else StudyConfig()
        self._seeds = SeedSequenceFactory(seed)
        #: A pre-built trace to analyze instead of generating one —
        #: how the fault sweep reuses one generated trace across many
        #: degradation levels without paying generation per level.
        self._base_trace = trace
        self._trace: Optional[TraceResult] = None
        self._detector: Optional[DgaDetector] = None
        self._security: Optional[security_mod.SecurityRunResult] = None
        #: Ingestion counters from the fault replay (None until the
        #: trace is built, and still None when no fault plan is set).
        self.fault_stats: Optional[PipelineStats] = None

    # -- shared artifacts (built lazily, cached) ---------------------------

    @property
    def trace(self) -> TraceResult:
        """The 8-year passive DNS trace (generated once per study)."""
        if self._trace is None:
            if self._base_trace is not None:
                base = self._base_trace
            else:
                generator = NxdomainTraceGenerator(
                    seed=self._seeds.child_seed("trace"),
                    config=self.config.trace_config(),
                )
                base = generator.generate()
            if self.config.fault_plan is not None:
                base, self.fault_stats = base.degraded(
                    self.config.fault_plan,
                    seed=self._seeds.child_seed("fault-injection"),
                )
            if self.config.spill_dir is not None:
                base = base.spilled(self.config.spill_dir)
            self._trace = base
        return self._trace

    @property
    def dga_detector(self) -> DgaDetector:
        if self._detector is None:
            self._detector = DgaDetector.train_default(
                seed=self._seeds.child_seed("dga-detector"),
                samples_per_family=self.config.dga_samples_per_family,
                threshold=self.config.dga_threshold,
            )
        return self._detector

    # -- §4 ------------------------------------------------------------------

    def run_scale_analysis(self) -> ScaleAnalysis:
        trace = self.trace
        return ScaleAnalysis(
            monthly_series=scale_mod.monthly_response_series(trace.nx_db),
            tld_distribution=scale_mod.tld_distribution(trace.nx_db),
            lifespan=scale_mod.lifespan_distribution(trace.nx_db),
            expiry_timeline=scale_mod.expiry_timeline(
                trace,
                sample_size=self.config.expiry_timeline_sample,
                rng=self._seeds.rng("expiry-sample"),
            ),
            long_lived=scale_mod.long_lived_cohort(trace.nx_db, min_years=2.0),
            total_responses=trace.nx_db.total_responses(),
            unique_domains=trace.nx_db.unique_domains(),
        )

    # -- §5 ------------------------------------------------------------------

    def run_origin_analysis(self) -> OriginAnalysis:
        trace = self.trace
        domains = [record.domain for record in trace.population]
        return OriginAnalysis(
            whois_join=origin_mod.whois_join(domains, trace.whois),
            dga_census=origin_mod.dga_census(trace, self.dga_detector),
            dga_registration=origin_mod.dga_registration_rate(trace),
            squatting_census=origin_mod.squatting_census(
                trace, SquattingDetector()
            ),
            blocklist_census=origin_mod.blocklist_census(
                trace,
                sample_ratio=self.config.blocklist_sample_ratio,
                rng=self._seeds.rng("blocklist-sample"),
            ),
        )

    # -- §3.3 ------------------------------------------------------------------

    def run_selection(self) -> List[selection_mod.SelectedDomain]:
        criteria = selection_mod.SelectionCriteria(
            min_monthly_queries=self.config.selection_min_monthly,
            require_expired=True,
        )
        candidates = selection_mod.select_candidates(self.trace, criteria)
        return selection_mod.pick_study_set(candidates)

    # -- §6 ------------------------------------------------------------------

    def run_security_analysis(self) -> security_mod.SecurityRunResult:
        if self._security is None:
            self._security = security_mod.run_security_experiment(
                self._seeds.rng("honeypot"),
                scale=self.config.honeypot_scale,
            )
        return self._security

    # -- reporting ----------------------------------------------------------------

    def full_report(self) -> str:
        """Every table and figure, rendered."""
        scale = self.run_scale_analysis()
        origin = self.run_origin_analysis()
        security = self.run_security_analysis()
        ports = security_mod.port_distribution(security)
        inapp = security_mod.inapp_browser_distribution(security)
        sections = [
            f"NXDomain study (seed={self.seed}) — "
            f"{scale.total_responses:,} responses over "
            f"{scale.unique_domains:,} NXDomains",
            reports.render_figure3(scale.monthly_series),
            reports.render_figure4(scale.tld_distribution),
            reports.render_figure5(scale.lifespan),
            reports.render_figure6(scale.expiry_timeline),
            reports.render_long_lived(scale.long_lived),
            reports.render_whois_join(origin.whois_join),
            reports.render_dga_census(origin.dga_census),
            reports.render_dga_registration(origin.dga_registration),
            reports.render_figure7(origin.squatting_census),
            reports.render_figure8(origin.blocklist_census),
            reports.render_table1(security),
            reports.render_figure10(ports),
            reports.render_figure13(
                inapp, security_mod.inapp_shape_checks(inapp)
            ),
            reports.render_figure14(
                security_mod.botnet_country_distribution(security)
            ),
            reports.render_figure15(
                security_mod.botnet_hostname_distribution(security)
            ),
        ]
        return "\n\n".join(sections)
