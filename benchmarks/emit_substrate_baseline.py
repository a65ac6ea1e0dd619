"""Emit ``BENCH_substrate.json`` — the substrate performance snapshot.

Runs the columnar-store contracts from ``bench_trace_scale.py`` on a
canonical seeded workload and writes a machine-readable summary:

- a ``contracts`` section that is **deterministic** (store
  fingerprints of the canonical workloads, equality of batch ingest
  with the row-by-row ``ScalarDatabase`` oracle, indexed-vs-scanned
  series equality, and identity of the columnar ingest pipeline with
  the record-at-a-time reference model, both oracles in
  ``tests/passivedns/reference.py``, on clean and degraded streams) —
  diffs here mean ingest, generation, or aggregation *semantics*
  changed, and the committed copy at the repo root is the regression
  anchor;
- a ``timings`` section that is informational (speedup ratios measured
  on whatever host ran the script) — CI uploads it as an artifact so
  trends are visible, but it is not diffed or gated.

Usage::

    PYTHONPATH=src python benchmarks/emit_substrate_baseline.py [OUT]

``OUT`` defaults to ``BENCH_substrate.json`` in the repository root.
``time.perf_counter`` is a monotonic interval timer, not a wall-clock
read, so it is (deliberately) outside REP001's ban list.
"""

import json
import sys
import time
from pathlib import Path

import numpy as np

# The reference models live with the tests, importable from the root.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from repro.clock import STUDY_START, date_to_epoch
from repro.dns.message import RCode
from repro.dns.name import DomainName
from repro.faults import FaultPlan
from repro.passivedns.database import PassiveDnsDatabase
from repro.passivedns.pipeline import ResilientIngestPipeline
from repro.passivedns.record import DnsObservation
from repro.passivedns.spill import atomic_write_bytes
from repro.rand import make_rng
from repro.workloads.trace import NxdomainTraceGenerator, TraceConfig
from tests.passivedns.reference import (
    ReferencePipeline,
    ScalarDatabase,
    daily_series_scan,
)

VERSION = 5
N_ROWS = 60_000
N_DOMAINS = 600
TRACE_CONFIG = TraceConfig(total_domains=1_500, squat_count=60)
PIPE_ROWS = 30_000
#: The degraded columnar contract replays this plan at seed 7.
DEGRADED_PLAN = FaultPlan(
    drop_rate=0.05,
    duplicate_rate=0.1,
    reorder_rate=0.2,
    reorder_depth=4,
    store_failure_rate=0.1,
)


def _timed(fn, rounds=3):
    """Best-of-N wall time; best-of filters scheduler noise."""
    best = None
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def _workload():
    rng = make_rng(0)
    domains = [DomainName(f"scale-{i}.com") for i in range(N_DOMAINS)]
    picks = rng.integers(0, N_DOMAINS, size=N_ROWS)
    times = rng.integers(0, 500, size=N_ROWS).astype(np.int64) * 86_400
    counts = rng.integers(1, 6, size=N_ROWS).astype(np.int64)
    return domains, picks, times, counts


def _scalar_ingest(workload):
    domains, picks, times, counts = workload
    db = ScalarDatabase()
    for pick, timestamp, count in zip(
        picks.tolist(), times.tolist(), counts.tolist()
    ):
        db.add(domains[pick], timestamp, count)
    return db


def _batch_ingest(workload):
    domains, picks, times, counts = workload
    db = PassiveDnsDatabase()
    ids = db.intern_many(domains)
    db.add_batch(ids[picks], times, counts)
    return db


def _aggregate_bundle(db):
    """Every generation-keyed aggregate, as one comparable value."""
    domains_series, queries_series = db.lifespan_decay(60)
    return (
        db.monthly_response_series(),
        db.tld_histogram(),
        domains_series.tobytes(),
        queries_series.tobytes(),
        db.fingerprint(),
    )


def _aggregate_rebuild_time(db):
    """Rebuild time of every aggregate (cache cleared per round,
    columns stay primed)."""
    _aggregate_bundle(db)

    def rebuild():
        db._agg_cache.clear()  # noqa: SLF001
        return _aggregate_bundle(db)

    elapsed, _ = _timed(rebuild)
    return elapsed


def _pipeline_observations():
    t0 = date_to_epoch(STUDY_START)
    return [
        DnsObservation(
            qname=DomainName(f"host{i % 800}.example{i % 13}.com"),
            rcode=RCode.NXDOMAIN,
            timestamp=t0 + i * 60,
            sensor_id="s1",
        )
        for i in range(PIPE_ROWS)
    ]


def _run_pipeline(cls, observations, plan=None):
    pipeline = cls(schedule=plan.schedule(7) if plan is not None else None)
    pipeline.ingest_many(observations)
    pipeline.finish()
    return pipeline


def _observables(pipeline):
    """What the columnar pipeline must share with the reference model."""
    schedule = pipeline.schedule
    return (
        pipeline.database.fingerprint(),
        pipeline.database.all_domains(),
        pipeline.stats,
        schedule.fingerprint() if schedule is not None else None,
        schedule.counters() if schedule is not None else None,
    )


def _columnar(observations):
    """Columnar ≡ reference (clean + degraded) and clean-path timings."""
    columnar_time, columnar = _timed(
        lambda: _run_pipeline(ResilientIngestPipeline, observations)
    )
    reference_time, reference = _timed(
        lambda: _run_pipeline(ReferencePipeline, observations)
    )
    clean_match = _observables(columnar) == _observables(reference)
    degraded_match = _observables(
        _run_pipeline(ResilientIngestPipeline, observations, DEGRADED_PLAN)
    ) == _observables(
        _run_pipeline(ReferencePipeline, observations, DEGRADED_PLAN)
    )
    return clean_match, degraded_match, columnar_time, reference_time, columnar


def build_snapshot():
    """Measure the canonical workloads and return the summary dict."""
    workload = _workload()
    scalar_time, scalar_db = _timed(lambda: _scalar_ingest(workload))
    batch_time, batch_db = _timed(lambda: _batch_ingest(workload))
    aggregate_time = _aggregate_rebuild_time(_batch_ingest(workload))
    observations = _pipeline_observations()
    clean_match, degraded_match, columnar_time, reference_time, columnar = (
        _columnar(observations)
    )

    target = workload[0][11]
    window = (0, 500 * 86_400)
    batch_db.daily_series_for(target, *window)  # prime the CSR index
    indexed_time, indexed = _timed(
        lambda: batch_db.daily_series_for(target, *window)
    )
    scan_time, scanned = _timed(
        lambda: daily_series_scan(batch_db, target, *window)
    )

    generate_time, trace = _timed(
        lambda: NxdomainTraceGenerator(seed=0, config=TRACE_CONFIG).generate()
    )

    return {
        "version": VERSION,
        "workload": {
            "ingest_rows": N_ROWS,
            "ingest_domains": N_DOMAINS,
            "trace_domains": TRACE_CONFIG.total_domains,
            "pipeline_rows": PIPE_ROWS,
        },
        "contracts": {
            "ingest_fingerprint": batch_db.fingerprint(),
            "batch_matches_scalar": (
                batch_db.fingerprint() == scalar_db.fingerprint()
            ),
            "indexed_series_matches_scan": bool(
                np.array_equal(indexed, scanned)
            ),
            "trace_nx_fingerprint": trace.nx_db.fingerprint(),
            "trace_pre_expiry_fingerprint": (
                trace.pre_expiry_db.fingerprint()
            ),
            "pipeline_fingerprint": columnar.database.fingerprint(),
            "columnar_matches_reference": clean_match,
            "columnar_matches_reference_degraded": degraded_match,
        },
        "timings": {
            "scalar_ingest_ms": round(scalar_time * 1e3, 2),
            "batch_ingest_ms": round(batch_time * 1e3, 2),
            "batch_speedup": round(scalar_time / batch_time, 1),
            "series_scan_us": round(scan_time * 1e6, 1),
            "series_indexed_us": round(indexed_time * 1e6, 1),
            "index_speedup": round(scan_time / indexed_time, 1),
            "serial_generate_ms": round(generate_time * 1e3, 1),
            "aggregate_serial_ms": round(aggregate_time * 1e3, 1),
            "reference_model_ms": round(reference_time * 1e3, 1),
            "columnar_ms": round(columnar_time * 1e3, 1),
            "columnar_speedup": round(reference_time / columnar_time, 2),
            "columnar_rows_per_sec": round(PIPE_ROWS / columnar_time),
        },
    }


def main(argv):
    """CLI entry point: write the snapshot and fail on broken contracts."""
    default_out = Path(__file__).resolve().parents[1] / "BENCH_substrate.json"
    out = Path(argv[1]) if len(argv) > 1 else default_out
    snapshot = build_snapshot()
    # The committed copy is the regression anchor; never leave it torn.
    atomic_write_bytes(
        out, (json.dumps(snapshot, indent=2) + "\n").encode("utf-8")
    )
    print(f"wrote {out}")
    for name, value in snapshot["contracts"].items():
        if value is False:
            raise SystemExit(f"substrate contract broken: {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
