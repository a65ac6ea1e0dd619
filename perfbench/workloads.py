"""The three benchmark workloads: study, ingest and serve.

Each workload is built from its seed in :meth:`setup` and then runs
whole units of work until ``seconds`` have passed (and at least a
workload-specific minimum of units):

- ``study`` — one unit is a cold ``NxdomainStudy.full_report()`` from
  trace generation to the rendered report, then the same report
  rendered again warm (trace, detector and honeypot run cached); every
  run makes whole passes over the same pinned study seeds;
- ``ingest`` — one unit is a faulted, spill-backed ingest of the whole
  generated stream (``ingest_many`` + ``checkpoint`` per chunk, then
  ``finish``), followed by warm reopens that read the §4 aggregates;
- ``serve`` — one unit is one ``QueryServer.serve([request])`` call in
  a closed loop with one client; every ``WAVE_EVERY`` requests a writer
  wave lands a fresh day of rows and commits it.

Every workload reports the same end-to-end metric names (see
``layer_map.json`` for what each one means per workload), plus the
issue-level names (``study_s``, ``serve_p99_ms``, …) that the traced
run republishes as per-layer metrics.  Only the program's own calls
are timed; benchmark bookkeeping (input generation, identity checks)
runs outside the timed regions.
"""

from __future__ import annotations

import gc
import hashlib
import json
import shutil
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

import inputs
from repro.clock import SECONDS_PER_DAY, SimClock
from repro.core.study import NxdomainStudy, StudyConfig
from repro.faults.plan import FaultPlan
from repro.passivedns.database import PassiveDnsDatabase
from repro.passivedns.pipeline import ResilientIngestPipeline
from repro.rand import derive_seed, make_rng
from repro.serving.admission import QueryRequest
from repro.serving.queries import (
    ActivityWindowQuery,
    DailySeriesQuery,
    TimelineQuery,
    TopDomainsQuery,
)
from repro.serving.server import ANSWERED, Disposition, QueryServer
from repro.serving.sweep import verify_identity
from tracing import Tracer

PINS_PATH = Path(__file__).resolve().parent / "pinned_reports.json"

# -- sizes -----------------------------------------------------------------

STUDY_DOMAINS = 800
#: Warm re-renders timed after each cold study.
STUDY_WARM_RUNS = 2

INGEST_DOMAINS = 8000
INGEST_DAYS = 25
INGEST_ROWS_PER_DAY = 8000
INGEST_CHUNK = 25_000
INGEST_COMPACT_THRESHOLD = 4
INGEST_REOPENS = 3
#: Whole passes over the stream per run, at least.
INGEST_MIN_PASSES = 2
INGEST_FAULTS = FaultPlan(
    drop_rate=0.05,
    duplicate_rate=0.10,
    reorder_rate=0.20,
    reorder_depth=4,
    store_failure_rate=0.10,
)

SERVE_DOMAINS = 8000
#: 480k rows over 240 days: a writer wave's fresh day adds under 0.5%
#: to the store, so the store (and every per-request cost) stays near
#: its starting size however many waves a run fits in.
SERVE_DAYS = 240
SERVE_ROWS_PER_DAY = 2000
SERVE_COMPACT_THRESHOLD = 8
WAVE_EVERY = 150
#: Simulated seconds between request arrivals (keeps every tenant far
#: below its token-bucket limit, so no request is refused).
ARRIVAL_STEP = 30
VERIFY_PER_WAVE = 5
TENANTS = 5


def study_config() -> StudyConfig:
    return StudyConfig(
        trace_domains=STUDY_DOMAINS,
        squat_count=max(STUDY_DOMAINS // 25, 50),
        honeypot_scale=0.005,
    )


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def paused(tracer: Optional[Tracer]):
    """Benchmark bookkeeping inside a traced run records no spans."""
    return tracer.paused() if tracer is not None else nullcontext()


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(np.ceil(q / 100.0 * len(ordered))) - 1))
    return ordered[rank]


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    #: The generic end-to-end metrics (without setup_s / peak_rss_mb).
    primary_p50_ms: float
    throughput_per_s: float
    side_p50_ms: float
    #: Issue-level named metrics (study_s, serve_p99_ms, …).
    named: Dict[str, float]
    #: Seconds per unit of work of the headline time (the tracing
    #: overhead is given as a share of it).
    headline_s: float
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)
    #: Units of work the per-layer numbers are divided by.
    units: float = 1.0
    #: Per-layer values that do not come from spans.
    layer: Dict[str, float] = field(default_factory=dict)
    #: Identity hashes a traced run must reproduce.
    hashes: Dict[str, str] = field(default_factory=dict)


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Build the inputs (timed as part of ``setup_s``)."""

    def run(self, seconds: float, tracer: Optional[Tracer]) -> Outcome:
        raise NotImplementedError


# -- study -------------------------------------------------------------------


def report_sha256(report: str) -> str:
    return hashlib.sha256(report.encode("utf-8")).hexdigest()


def load_pins() -> Dict[str, str]:
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))["sha256"]


class StudyWorkload(Workload):
    """Cold seeded studies, each followed by a warm re-render.

    Every run does the same work: whole passes over the pinned study
    seeds, each checked against its pinned report hash.  ``--seed``
    only rotates the order in which a pass visits them.
    """

    name = "study"

    def setup(self) -> None:
        self.pins = load_pins()
        pinned = sorted(int(seed) for seed in self.pins)
        turn = self.seed % len(pinned)
        self.order = pinned[turn:] + pinned[:turn]

    def run(self, seconds: float, tracer: Optional[Tracer]) -> Outcome:
        cold: List[float] = []
        warm: List[float] = []
        hashes: Dict[str, str] = {}
        problems: List[str] = []
        failed = 0
        start = time.perf_counter()
        while not cold or time.perf_counter() - start < seconds:
            for seed in self.order:
                # The previous study's garbage is not this study's cost.
                gc.collect()
                study = NxdomainStudy(seed, study_config())
                root = tracer.span("study.full_report") if tracer else nullcontext()
                with root:
                    t0 = time.perf_counter()
                    report = study.full_report()
                    cold.append(time.perf_counter() - t0)
                # Per-layer numbers describe the cold study only.
                with paused(tracer):
                    for _ in range(STUDY_WARM_RUNS):
                        t0 = time.perf_counter()
                        again = study.full_report()
                        warm.append(time.perf_counter() - t0)
                digest = report_sha256(report)
                hashes[str(seed)] = digest
                bad = False
                if again != report:
                    problems.append(f"study seed {seed}: warm report differs from cold")
                    bad = True
                pinned = self.pins[str(seed)]
                if pinned != digest:
                    problems.append(
                        f"study seed {seed}: report sha256 {digest} != pinned {pinned}"
                    )
                    bad = True
                failed += int(bad)
        study_s = statistics.median(cold)
        return Outcome(
            primary_p50_ms=study_s * 1000.0,
            throughput_per_s=len(cold) / sum(cold),
            side_p50_ms=statistics.median(warm) * 1000.0,
            named={"study_s": study_s, "failed_frac": float(failed > 0)},
            headline_s=study_s,
            attempted=len(cold),
            failed=failed,
            problems=problems,
            units=float(len(cold)),
            hashes=hashes,
        )


# -- ingest ------------------------------------------------------------------


def section4_aggregates(db: PassiveDnsDatabase) -> List[Any]:
    """The §4 aggregate set read from a store."""
    return [
        db.monthly_response_series(),
        db.tld_histogram(),
        db.lifespan_decay(),
        db.fingerprint(),
    ]


def _same(left: List[Any], right: List[Any]) -> bool:
    for a, b in zip(left, right):
        if isinstance(a, tuple):
            if not all(np.array_equal(x, y) for x, y in zip(a, b)):
                return False
        elif a != b:
            return False
    return len(left) == len(right)


class IngestWorkload(Workload):
    """Faulted, spill-backed ingest of a generated stream, then reopen."""

    name = "ingest"

    def setup(self) -> None:
        population = inputs.make_population(self.seed, INGEST_DOMAINS)
        rows = inputs.make_rows(
            self.seed, population, 0, INGEST_DAYS, INGEST_ROWS_PER_DAY
        )
        self.stream = inputs.observations(population, rows)
        self.fault_seed = derive_seed(self.seed, "perfbench-ingest-faults")

    def run(self, seconds: float, tracer: Optional[Tracer]) -> Outcome:
        chunk_ms: List[float] = []
        reopen_s: List[float] = []
        ingest_wall = 0.0
        offered = 0
        unrecovered = 0
        problems: List[str] = []
        layer_totals: Dict[str, float] = {}
        fingerprints = set()
        passes = 0
        start = time.perf_counter()
        while (
            passes < INGEST_MIN_PASSES or time.perf_counter() - start < seconds
        ):
            directory = self.workdir / f"ingest-{passes}"
            gc.collect()
            pipeline = ResilientIngestPipeline(
                schedule=INGEST_FAULTS.schedule(self.fault_seed),
                spill_dir=directory,
                spill_compact_threshold=INGEST_COMPACT_THRESHOLD,
            )
            t_first = time.perf_counter()
            for lo in range(0, len(self.stream), INGEST_CHUNK):
                t0 = time.perf_counter()
                pipeline.ingest_many(self.stream[lo : lo + INGEST_CHUNK])
                pipeline.checkpoint()
                chunk_ms.append((time.perf_counter() - t0) * 1000.0)
            stats = pipeline.finish()
            ingest_wall += time.perf_counter() - t_first
            offered += stats.offered
            unrecovered += stats.store_failures - stats.replay_recovered
            finished = pipeline.database
            with paused(tracer):
                expected = section4_aggregates(finished)
            fingerprints.add(expected[-1])
            if stats.delivered != (
                stats.offered - stats.dropped + stats.duplicates_delivered
            ):
                problems.append(
                    f"pass {passes}: delivered {stats.delivered} != offered "
                    f"{stats.offered} - dropped {stats.dropped} + duplicates "
                    f"{stats.duplicates_delivered}"
                )
            for _ in range(INGEST_REOPENS):
                t0 = time.perf_counter()
                reopened = PassiveDnsDatabase(spill_dir=directory)
                got = section4_aggregates(reopened)
                reopen_s.append(time.perf_counter() - t0)
                report = reopened.spill.last_recovery
                if not _same(got, expected):
                    problems.append(f"pass {passes}: reopened aggregates differ")
                if report.quarantined or not report.clean():
                    problems.append(f"pass {passes}: reopen was not clean")
            for key, value in {
                "pipeline.checkpoints": stats.checkpoints,
                "pipeline.dropped": stats.dropped,
                "pipeline.duplicates_delivered": stats.duplicates_delivered,
                "pipeline.store_retries": stats.store_retries,
                "pipeline.store_failures": stats.store_failures,
                "pipeline.replay_recovered": stats.replay_recovered,
                "database.landed_ratio": finished.row_count() / stats.delivered,
                "spill.segments_crc_streamed": report.segments_crc_streamed,
                "spill.cache_hits": report.cache_hits,
            }.items():
                layer_totals[key] = layer_totals.get(key, 0.0) + value
            del pipeline, finished, reopened
            shutil.rmtree(directory)
            passes += 1
        if len(fingerprints) != 1:
            problems.append("passes over the same stream finished differently")
        failed = max(unrecovered, 0) + len(problems)
        rows_per_s = offered / ingest_wall
        reopen_median = statistics.median(reopen_s)
        return Outcome(
            primary_p50_ms=statistics.median(chunk_ms),
            throughput_per_s=rows_per_s,
            side_p50_ms=reopen_median * 1000.0,
            named={
                "ingest_rows_per_s": rows_per_s,
                "reopen_query_s": reopen_median,
                "failed_frac": max(unrecovered, 0) / offered + float(bool(problems)),
            },
            headline_s=ingest_wall / passes,
            attempted=offered,
            failed=failed,
            problems=problems,
            units=float(passes),
            layer={key: value / passes for key, value in layer_totals.items()},
            hashes={"fingerprint": sorted(fingerprints)[0]},
        )


# -- serve -------------------------------------------------------------------


class ServeWorkload(Workload):
    """Closed-loop serving over a spill-backed store with writer waves."""

    name = "serve"

    def setup(self) -> None:
        self.population = inputs.make_population(self.seed, SERVE_DOMAINS)
        rows = inputs.make_rows(
            self.seed, self.population, 0, SERVE_DAYS, SERVE_ROWS_PER_DAY
        )
        directory = self.workdir / "serve"
        if directory.exists():
            shutil.rmtree(directory)
        self.db = PassiveDnsDatabase(
            spill_dir=directory, spill_compact_threshold=SERVE_COMPACT_THRESHOLD
        )
        self._land(rows)
        self.db.spill_commit({"source": "perfbench"})
        self.window_start = inputs.START_EPOCH
        self.window_end = inputs.START_EPOCH + SERVE_DAYS * SECONDS_PER_DAY
        self.next_day = SERVE_DAYS
        self.rng = make_rng(derive_seed(self.seed, "perfbench-serve-requests"))
        self.clock = SimClock(now=self.window_end + SECONDS_PER_DAY)
        self.server = QueryServer(self.db, self.clock)

    def _land(self, rows: inputs.DayRows) -> None:
        keep = rows.nxdomain
        names = [self.population.names[i] for i in rows.domain_index[keep].tolist()]
        ids = self.db.intern_many(names)
        self.db.add_batch(ids, rows.timestamps[keep], rows.counts[keep])

    def _request(self) -> QueryRequest:
        rng = self.rng
        roll = float(rng.random())
        index = int(rng.choice(len(self.population.names), p=self.population.weights))
        domain = str(self.population.names[index])
        if roll < 0.25:
            query: Any = TopDomainsQuery(n=int(5 * (1 + rng.integers(0, 3))))
            budget = 90
        elif roll < 0.55:
            days = int(rng.integers(30, 181))
            lo = int(rng.integers(self.window_start, self.window_end))
            query = DailySeriesQuery(
                domain=domain, start=lo, end=lo + days * SECONDS_PER_DAY
            )
            budget = 60
        elif roll < 0.80:
            pivot = int(rng.integers(self.window_start, self.window_end))
            query = TimelineQuery(domain=domain, pivot=pivot)
            budget = 60
        else:
            query = ActivityWindowQuery(domain=domain)
            budget = 150
        priority = int(rng.choice(3, p=(0.25, 0.65, 0.10)))
        return QueryRequest(
            query=query,
            tenant=f"tenant-{int(rng.integers(0, TENANTS))}",
            priority=priority,
            budget=budget,
            at=self.clock.now + ARRIVAL_STEP,
        )

    def run(self, seconds: float, tracer: Optional[Tracer]) -> Outcome:
        latencies: List[float] = []
        writes: List[float] = []
        problems: List[str] = []
        mismatches = 0
        untimed = 0.0
        since_wave: List[Any] = []
        compacted = False
        start = time.perf_counter()
        # Whole compaction cycles only: the run ends on the first wave
        # that compacts after ``seconds``, so every run pays the same
        # share of compaction.
        while not compacted or time.perf_counter() - start < seconds:
            compacted = False
            t0 = time.perf_counter()
            request = self._request()
            untimed += time.perf_counter() - t0
            t0 = time.perf_counter()
            records = self.server.serve([request])
            latencies.append((time.perf_counter() - t0) * 1000.0)
            if len(records) != 1:
                problems.append(f"request {len(latencies)}: {len(records)} outcomes")
            since_wave.extend(records)
            if len(latencies) % WAVE_EVERY == 0:
                t0 = time.perf_counter()
                with paused(tracer):
                    mismatches += verify_identity(
                        self.db, since_wave, limit=VERIFY_PER_WAVE
                    )
                since_wave = []
                rows = inputs.make_rows(
                    self.seed, self.population, self.next_day, 1, SERVE_ROWS_PER_DAY
                )
                self.next_day += 1
                untimed += time.perf_counter() - t0
                t0 = time.perf_counter()
                self._land(rows)
                self.db.spill_commit({"source": "perfbench-wave"})
                writes.append((time.perf_counter() - t0) * 1000.0)
                compacted = len(self.db.spill.segments()) == 1
        loop_s = time.perf_counter() - start - untimed
        with paused(tracer):
            mismatches += verify_identity(
                self.db, since_wave, limit=VERIFY_PER_WAVE
            )
        submitted = len(latencies)
        stats = self.server.stats
        if stats.total() != submitted:
            problems.append(f"{stats.total()} outcomes for {submitted} requests")
        if mismatches:
            problems.append(f"{mismatches} served results differ from the store")
        answered = sum(stats.count(d) for d in ANSWERED)
        refused = submitted - answered
        qps = submitted / loop_s
        units = submitted / 1000.0
        layer = {f"serve.{d.value}": stats.count(d) / units for d in Disposition}
        layer["serve.cache_hit_ratio"] = stats.count(Disposition.CACHED) / max(
            answered, 1
        )
        return Outcome(
            primary_p50_ms=percentile(latencies, 50),
            throughput_per_s=qps,
            side_p50_ms=percentile(writes, 50),
            named={
                "serve_qps": qps,
                "serve_p50_ms": percentile(latencies, 50),
                "serve_p99_ms": percentile(latencies, 99),
                "write_p50_ms": percentile(writes, 50),
                "failed_frac": refused / submitted + float(bool(problems)),
            },
            headline_s=loop_s / units,
            attempted=submitted,
            failed=refused + mismatches,
            problems=problems,
            units=units,
            layer=layer,
        )


WORKLOADS = {
    cls.name: cls for cls in (StudyWorkload, IngestWorkload, ServeWorkload)
}
