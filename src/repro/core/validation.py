"""Cross-seed robustness validation of the reproduction.

A reproduction that only holds at one seed is a coincidence.  This
module re-runs the scale and origin shape checks across many seeds and
reports per-check pass rates, giving a quantitative answer to "does
the qualitative shape of every figure survive sampling noise at this
population size?".  The bench harness runs it at the population size
it ships with; the CLI exposes it as ``repro-nxd validate``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.study import NxdomainStudy, StudyConfig
from repro.errors import ConfigError
from repro.faults.plan import FaultPlan
from repro.passivedns.pipeline import PipelineStats
from repro.rand import derive_seed


@dataclass
class CheckOutcome:
    """Pass/fail tally for one named shape check."""

    passes: int = 0
    failures: int = 0
    failing_seeds: List[int] = field(default_factory=list)

    @property
    def runs(self) -> int:
        return self.passes + self.failures

    @property
    def pass_rate(self) -> float:
        return self.passes / self.runs if self.runs else 0.0


@dataclass
class ValidationReport:
    """Pass rates for every shape check across the seed sweep."""

    seeds: List[int]
    outcomes: Dict[str, CheckOutcome]

    def worst(self) -> List[tuple]:
        """(check, pass_rate) rows, least robust first."""
        rows = [
            (name, outcome.pass_rate, outcome.failing_seeds)
            for name, outcome in self.outcomes.items()
        ]
        rows.sort(key=lambda row: row[1])
        return rows

    def overall_pass_rate(self) -> float:
        total = sum(o.runs for o in self.outcomes.values())
        if total == 0:
            return 0.0
        return sum(o.passes for o in self.outcomes.values()) / total

    def robust(self, threshold: float = 0.8) -> bool:
        """True when every check passes at least ``threshold`` of runs."""
        return all(o.pass_rate >= threshold for o in self.outcomes.values())


def validate_shapes(
    seeds: Sequence[int],
    config: StudyConfig,
    include_origin: bool = True,
) -> ValidationReport:
    """Run the §4 (and optionally §5) shape checks per seed."""
    if not seeds:
        raise ConfigError("need at least one seed")
    outcomes: Dict[str, CheckOutcome] = {}

    def record(section: str, checks: Dict[str, bool], seed: int) -> None:
        for name, passed in checks.items():
            outcome = outcomes.setdefault(f"{section}.{name}", CheckOutcome())
            if passed:
                outcome.passes += 1
            else:
                outcome.failures += 1
                outcome.failing_seeds.append(seed)

    for seed in seeds:
        study = NxdomainStudy(seed=seed, config=config)
        scale = study.run_scale_analysis()
        for section, checks in scale.shape_checks().items():
            record(section, checks, seed)
        if include_origin:
            origin = study.run_origin_analysis()
            for section, checks in origin.shape_checks().items():
                record(section, checks, seed)
    return ValidationReport(seeds=list(seeds), outcomes=outcomes)


# ---------------------------------------------------------------------------
# fault sweep: shape-check survival under degraded collection
# ---------------------------------------------------------------------------


@dataclass
class SweepPoint:
    """Shape-check survival at one fault rate, aggregated over seeds."""

    rate: float
    report: ValidationReport
    #: Mean surviving fraction of NXDomain responses vs the clean trace.
    delivered_fraction: float
    dropped: int = 0
    duplicates_suppressed: int = 0
    store_failures: int = 0
    replay_recovered: int = 0

    @property
    def pass_rate(self) -> float:
        """Overall shape-check pass rate at this fault level."""
        return self.report.overall_pass_rate()


@dataclass
class FaultSweepReport:
    """The degradation curve: shape-check pass rate vs fault rate."""

    seeds: List[int]
    points: List[SweepPoint]

    def baseline(self) -> SweepPoint:
        """The lowest-rate point (the clean-collection reference)."""
        return min(self.points, key=lambda point: point.rate)

    def regressions(self, gate: float) -> List[Tuple[float, str, List[int]]]:
        """(rate, check, seeds) that fail under faults but not cleanly.

        A small population can fail a shape check at 0% faults from
        sampling noise alone; what the fault harness must guarantee is
        that injecting faults up to ``gate`` does not *add* failures.
        """
        base = self.baseline()
        base_failures = {
            name: set(outcome.failing_seeds)
            for name, outcome in base.report.outcomes.items()
        }
        found: List[Tuple[float, str, List[int]]] = []
        for point in self.points:
            if point is base or point.rate > gate:
                continue
            for name, outcome in point.report.outcomes.items():
                fresh = set(outcome.failing_seeds) - base_failures.get(
                    name, set()
                )
                if fresh:
                    found.append((point.rate, name, sorted(fresh)))
        return found

    def rows(self) -> List[Tuple[str, str, str, str, str]]:
        """Render-ready degradation-curve rows (one per fault rate)."""
        rows = []
        for point in self.points:
            rows.append(
                (
                    f"{point.rate:.1%}",
                    f"{point.delivered_fraction:.4f}",
                    f"{point.pass_rate:.3f}",
                    f"{point.store_failures}/{point.replay_recovered}",
                    f"{point.duplicates_suppressed}",
                )
            )
        return rows


def fault_sweep(
    seeds: Sequence[int],
    config: StudyConfig,
    rates: Sequence[float] = (0.0, 0.01, 0.05, 0.10),
    include_origin: bool = False,
    spill_dir: Optional[Union[str, Path]] = None,
) -> FaultSweepReport:
    """Re-run the shape checks against fault-degraded collections.

    Each seed's trace is generated once (clean) and replayed through a
    :meth:`~repro.faults.plan.FaultPlan.loss` pipeline per rate, so the
    sweep isolates the effect of collection faults from trace sampling
    noise.  The fault schedule's seed is derived from the study seed,
    keeping the whole sweep bit-reproducible.  With ``spill_dir`` each
    degraded replay runs against a crash-safe on-disk spill store under
    ``<spill_dir>/rate-<rate>/seed-<seed>`` (results are identical; the
    sweep then also exercises the durable path end to end).
    """
    if not seeds:
        raise ConfigError("need at least one seed")
    if any(not 0 <= rate < 1 for rate in rates):
        raise ConfigError("fault rates must lie in [0, 1)")
    clean = {
        seed: NxdomainStudy(seed=seed, config=config).trace for seed in seeds
    }
    points: List[SweepPoint] = []
    for rate in rates:
        outcomes: Dict[str, CheckOutcome] = {}
        fractions: List[float] = []
        totals = PipelineStats()
        for seed in seeds:
            base = clean[seed]
            if rate > 0:
                replay_spill = (
                    Path(spill_dir) / f"rate-{rate:.4f}" / f"seed-{seed}"
                    if spill_dir is not None
                    else None
                )
                degraded, stats = base.degraded(
                    FaultPlan.loss(rate),
                    seed=derive_seed(seed, "fault-sweep"),
                    spill_dir=replay_spill,
                )
                totals.dropped += stats.dropped
                totals.store_failures += stats.store_failures
                totals.replay_recovered += stats.replay_recovered
                totals.duplicates_suppressed += stats.duplicates_suppressed
            else:
                degraded = base
            base_total = base.nx_db.total_responses()
            fractions.append(
                degraded.nx_db.total_responses() / base_total
                if base_total
                else 0.0
            )
            study = NxdomainStudy(seed=seed, config=config, trace=degraded)
            scale = study.run_scale_analysis()
            sections = dict(scale.shape_checks())
            if include_origin:
                sections.update(study.run_origin_analysis().shape_checks())
            for section, checks in sections.items():
                for name, passed in checks.items():
                    outcome = outcomes.setdefault(
                        f"{section}.{name}", CheckOutcome()
                    )
                    if passed:
                        outcome.passes += 1
                    else:
                        outcome.failures += 1
                        outcome.failing_seeds.append(seed)
        points.append(
            SweepPoint(
                rate=rate,
                report=ValidationReport(seeds=list(seeds), outcomes=outcomes),
                delivered_fraction=sum(fractions) / len(fractions),
                dropped=totals.dropped,
                duplicates_suppressed=totals.duplicates_suppressed,
                store_failures=totals.store_failures,
                replay_recovered=totals.replay_recovered,
            )
        )
    return FaultSweepReport(seeds=list(seeds), points=points)
