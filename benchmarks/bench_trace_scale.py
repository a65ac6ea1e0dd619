"""Trace-generation and columnar-ingest scale benchmarks.

Checks the performance contracts of this repo's ingest→aggregate
vectorization:

- **batch vs scalar ingest** — :meth:`PassiveDnsDatabase.add_batch`
  must land the same store as the row-by-row oracle
  ``ScalarDatabase.add`` in ``tests/passivedns/reference.py``
  (fingerprint equality, the hard gate everywhere) and be >= 5x faster
  (asserted only off-CI, where wall time is meaningful);
- **indexed vs scanned per-domain series** — the (domain, time)
  indexed :meth:`daily_series_for` must match the reference masked scan
  exactly and be >= 10x faster on a store where the target domain
  owns a small fraction of the rows;
- **generation and aggregate rebuild** — wall time of one trace
  generation and of rebuilding every generation-keyed aggregate
  (monthly series, TLD histogram, lifespan decay, digest,
  fingerprint) from primed columns, printed for the record; the
  rebuild must reproduce the cached values exactly.
- **columnar vs record-at-a-time ingest** — the columnar pipeline must
  land the same store as the record-at-a-time reference model in
  ``tests/passivedns/reference.py`` (fingerprint, intern order and
  stats: the hard gate) and beat it by more than 1.5x, as the median
  ratio of seven alternating reference/columnar pairs.

``time.perf_counter`` is a monotonic interval timer, not a wall-clock
read, so it is (deliberately) outside REP001's ban list.
"""

import os
import statistics
import time

import numpy as np
import pytest

from repro.clock import STUDY_START, date_to_epoch
from repro.dns.message import RCode
from repro.dns.name import DomainName
from repro.passivedns.database import PassiveDnsDatabase
from repro.passivedns.pipeline import ResilientIngestPipeline
from repro.passivedns.record import DnsObservation
from repro.rand import make_rng
from repro.workloads.trace import NxdomainTraceGenerator, TraceConfig
from tests.passivedns.reference import (
    ReferencePipeline,
    ScalarDatabase,
    daily_series_scan,
)

#: Batch ingest must beat scalar ingest by this factor (off-CI only).
BATCH_MIN_SPEEDUP = 5.0
#: Indexed per-domain series must beat the masked scan by this factor.
INDEX_MIN_SPEEDUP = 10.0
#: The columnar pipeline must beat the record-at-a-time reference
#: model by this factor on a clean stream (off-CI only).  Every row
#: here carries a fresh ``DomainName``, so per-row name hashing
#: bounds the win (measured ~2.2x on one core; 3.6x on the perfbench
#: ingest stream, whose rows share name objects).
COLUMNAR_MIN_SPEEDUP = 1.5
ROUNDS = 3
#: Alternating reference/columnar runs behind the pipeline speedup:
#: the median per-pair ratio, so one loaded moment moves one pair.
PIPELINE_PAIRS = 7
#: Timing ratios are informational on CI; structural contracts
#: (fingerprint equality, identical series) are the hard gates
#: everywhere.
IN_CI = bool(os.environ.get("CI"))

N_ROWS = 60_000
N_DOMAINS = 600
#: The series bench runs over a bigger store (built via batch ingest,
#: so it costs little) — the index's edge grows with rows-per-store /
#: rows-per-domain, and a small store understates it.
SERIES_ROWS = 400_000
SERIES_DOMAINS = 2_000
TRACE_CONFIG = TraceConfig(total_domains=1_500, squat_count=60)


def _timed(fn):
    """Best-of-N wall time; best-of filters scheduler noise."""
    best = None
    result = None
    for _ in range(ROUNDS):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


@pytest.fixture(scope="module")
def workload():
    """One synthetic row set shared by the ingest and series benches."""
    rng = make_rng(0)
    domains = [DomainName(f"scale-{i}.com") for i in range(N_DOMAINS)]
    picks = rng.integers(0, N_DOMAINS, size=N_ROWS)
    times = rng.integers(0, 500, size=N_ROWS).astype(np.int64) * 86_400
    counts = rng.integers(1, 6, size=N_ROWS).astype(np.int64)
    return domains, picks, times, counts


def test_batch_ingest_beats_scalar(workload):
    domains, picks, times, counts = workload

    def scalar():
        db = ScalarDatabase()
        for pick, timestamp, count in zip(
            picks.tolist(), times.tolist(), counts.tolist()
        ):
            db.add(domains[pick], timestamp, count)
        return db

    def batch():
        db = PassiveDnsDatabase()
        ids = db.intern_many(domains)
        db.add_batch(ids[picks], times, counts)
        return db

    scalar_time, scalar_db = _timed(scalar)
    batch_time, batch_db = _timed(batch)
    speedup = scalar_time / batch_time
    print()
    print(
        f"scalar ingest: {scalar_time * 1e3:8.1f} ms   "
        f"batch ingest: {batch_time * 1e3:8.1f} ms   "
        f"({speedup:.1f}x, {N_ROWS} rows)"
    )
    # Hard gate: the batch path is a pure optimization — same store.
    assert batch_db.fingerprint() == scalar_db.fingerprint()
    assert batch_db.total_responses() == scalar_db.total_responses()
    if not IN_CI:
        assert speedup > BATCH_MIN_SPEEDUP, (
            f"batch ingest speedup {speedup:.1f}x; "
            f"contract is > {BATCH_MIN_SPEEDUP}x"
        )


def test_indexed_series_beats_scan():
    rng = make_rng(1)
    domains = [DomainName(f"series-{i}.com") for i in range(SERIES_DOMAINS)]
    db = PassiveDnsDatabase()
    ids = db.intern_many(domains)
    db.add_batch(
        ids[rng.integers(0, SERIES_DOMAINS, size=SERIES_ROWS)],
        rng.integers(0, 500, size=SERIES_ROWS).astype(np.int64) * 86_400,
        rng.integers(1, 6, size=SERIES_ROWS).astype(np.int64),
    )
    target = domains[11]
    window = (0, 500 * 86_400)
    # Prime the part indexes so the bench measures the query, not the
    # one-off index build.
    db.daily_series_for(target, *window)

    indexed_time, indexed = _timed(
        lambda: db.daily_series_for(target, *window)
    )
    scan_time, scanned = _timed(
        lambda: daily_series_scan(db, target, *window)
    )
    speedup = scan_time / indexed_time
    print()
    print(
        f"masked scan: {scan_time * 1e6:8.1f} us   "
        f"indexed: {indexed_time * 1e6:8.1f} us   ({speedup:.1f}x)"
    )
    np.testing.assert_array_equal(indexed, scanned)
    assert indexed.sum() == db.profile(target).total_queries
    if not IN_CI:
        assert speedup > INDEX_MIN_SPEEDUP, (
            f"indexed series speedup {speedup:.1f}x; "
            f"contract is > {INDEX_MIN_SPEEDUP}x"
        )


def test_generation_timing():
    generate_time, trace = _timed(
        lambda: NxdomainTraceGenerator(seed=0, config=TRACE_CONFIG).generate()
    )
    print()
    print(
        f"generate: {generate_time * 1e3:8.1f} ms   "
        f"({TRACE_CONFIG.total_domains} domains)"
    )
    assert len(trace.population) == TRACE_CONFIG.total_domains


# -- aggregate rebuild -------------------------------------------------------

AGG_ROWS = 200_000
AGG_DOMAINS = 2_000


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


def test_aggregate_rebuild_timing():
    rng = make_rng(2)
    domains = [DomainName(f"agg-{i}.com") for i in range(AGG_DOMAINS)]
    db = PassiveDnsDatabase()
    ids = db.intern_many(domains)
    db.add_batch(
        ids[rng.integers(0, AGG_DOMAINS, size=AGG_ROWS)],
        rng.integers(0, 500, size=AGG_ROWS).astype(np.int64) * 86_400,
        rng.integers(1, 6, size=AGG_ROWS).astype(np.int64),
    )
    first = _aggregate_bundle(db)

    def rebuild_aggregates():
        # The caches are generation-keyed; dropping them makes each
        # round rebuild from the (already primed) columns.
        db._agg_cache.clear()  # noqa: SLF001
        return _aggregate_bundle(db)

    rebuild_time, rebuilt = _timed(rebuild_aggregates)
    print()
    print(
        f"aggregate rebuild: {rebuild_time * 1e3:8.1f} ms   "
        f"({AGG_ROWS} rows)"
    )
    assert rebuilt == first


# -- columnar ingest ---------------------------------------------------------

PIPE_ROWS = 30_000


def test_columnar_beats_reference_model():
    t0 = date_to_epoch(STUDY_START)
    observations = [
        DnsObservation(
            qname=DomainName(f"host{i % 800}.example{i % 13}.com"),
            rcode=RCode.NXDOMAIN,
            timestamp=t0 + i * 60,
            sensor_id="s1",
        )
        for i in range(PIPE_ROWS)
    ]

    def run(cls):
        pipeline = cls()
        pipeline.ingest_many(observations)
        pipeline.finish()
        return pipeline

    reference_times, columnar_times = [], []
    for _ in range(PIPELINE_PAIRS):
        start = time.perf_counter()
        reference = run(ReferencePipeline)
        reference_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        columnar = run(ResilientIngestPipeline)
        columnar_times.append(time.perf_counter() - start)
    speedup = statistics.median(
        ref / col for ref, col in zip(reference_times, columnar_times)
    )
    reference_time = statistics.median(reference_times)
    columnar_time = statistics.median(columnar_times)
    print()
    print(
        f"reference model: {reference_time * 1e3:8.1f} ms "
        f"({PIPE_ROWS / reference_time:,.0f} rows/s)   "
        f"columnar: {columnar_time * 1e3:8.1f} ms "
        f"({PIPE_ROWS / columnar_time:,.0f} rows/s)   ({speedup:.2f}x)"
    )
    # Hard gate: the columnar path is a pure optimization — same store.
    assert columnar.database.fingerprint() == reference.database.fingerprint()
    assert columnar.database.all_domains() == reference.database.all_domains()
    assert columnar.stats == reference.stats
    if not IN_CI:
        assert speedup > COLUMNAR_MIN_SPEEDUP, (
            f"columnar speedup {speedup:.2f}x; "
            f"contract is > {COLUMNAR_MIN_SPEEDUP}x"
        )
