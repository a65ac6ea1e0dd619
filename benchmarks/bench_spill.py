"""Spill-store benchmarks: durable must not mean different (or slow).

Contracts of ``spill_dir=`` mode (see ``docs/RESILIENCE.md``):

- **byte-identity** — a spill-backed store answers ``fingerprint()``,
  the TLD histogram, the monthly series, and ``daily_series_for``
  byte/value-identically to the in-memory store built from the same
  trace seed (hard gate everywhere, including CI);
- **query latency** — the mmap-backed indexed path stays within
  ``SPILL_MAX_SLOWDOWN`` of the in-memory per-domain query, and the
  mmap-backed fingerprint within ``FINGERPRINT_MAX_SLOWDOWN`` of the
  in-memory one (timing ratios printed everywhere, asserted only
  off-CI per the bench_trace_scale convention);
- **recovery cost** — a clean reopen of a committed store must report
  ``RecoveryReport.clean()`` (hard gate: silent quarantine-on-reopen
  is a regression, not noise), a *warm* reopen must perform **zero**
  segment CRC streams (the manifest stat-facts structural gate), and a
  ``paranoid=True`` reopen must stream every segment; warm and
  paranoid times are printed so ``docs/PERFORMANCE.md`` can record the
  before/after, but only the structural counters are asserted — wall
  clock on shared runners is noise.

``time.perf_counter`` is a monotonic interval timer, not a wall-clock
read, so it is (deliberately) outside REP001's ban list.
"""

import os
import time

import numpy as np

from repro.passivedns.database import PassiveDnsDatabase
from repro.workloads.trace import NxdomainTraceGenerator, TraceConfig

IN_CI = bool(os.environ.get("CI"))

TRACE_CONFIG = TraceConfig(total_domains=1_500, squat_count=60)
TRACE_SEED = 0
ROUNDS = 3
#: Per-domain series window: 120 days from the domain's first query.
SERIES_SPAN = 120 * 86_400
#: Off-CI gates: mmap-backed queries may pay page-cache and
#: per-part overhead, but never an order of magnitude.
SPILL_MAX_SLOWDOWN = 8.0
FINGERPRINT_MAX_SLOWDOWN = 8.0


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


def test_spill_store_is_byte_identical_and_fast_enough(tmp_path):
    trace = NxdomainTraceGenerator(
        seed=TRACE_SEED, config=TRACE_CONFIG
    ).generate()
    memory = trace.nx_db
    disk = trace.spilled(tmp_path / "spill").nx_db

    # -- hard gates: byte/value identity everywhere -----------------------
    assert disk.fingerprint() == memory.fingerprint()
    assert disk.tld_histogram() == memory.tld_histogram()
    assert disk.monthly_response_series() == memory.monthly_response_series()
    probe_domains = memory.all_domains()[:50]
    for domain in probe_domains:
        start = memory.profile(domain).first_seen
        expected = memory.daily_series_for(domain, start, start + SERIES_SPAN)
        assert expected.sum() > 0
        assert np.array_equal(
            expected, disk.daily_series_for(domain, start, start + SERIES_SPAN)
        )

    # -- timing ratios (printed everywhere, asserted off-CI) --------------
    target = probe_domains[11]
    start = memory.profile(target).first_seen
    window = (start, start + SERIES_SPAN)
    memory.daily_series_for(target, *window)  # prime both stores' indexes
    disk.daily_series_for(target, *window)
    memory_series_time, _ = _timed(
        lambda: memory.daily_series_for(target, *window)
    )
    disk_series_time, _ = _timed(
        lambda: disk.daily_series_for(target, *window)
    )

    def fingerprint_uncached(db):
        # Drop the generation cache and the per-part digests, so
        # the public fingerprint() rehashes every row (mmap'd or not).
        db._agg_cache = {}  # noqa: SLF001 - bench measures the rebuild
        db._part_digest_cache = {}  # noqa: SLF001
        return db.fingerprint()

    memory_fpr_time, _ = _timed(lambda: fingerprint_uncached(memory))
    disk_fpr_time, _ = _timed(lambda: fingerprint_uncached(disk))

    warm_time, reopened = _timed(
        lambda: PassiveDnsDatabase(spill_dir=tmp_path / "spill")
    )
    # Identity gate + clean-recovery gate: a clean reopen that rejects
    # a generation or quarantines anything must fail the bench loudly.
    assert reopened.fingerprint() == memory.fingerprint()
    warm_report = reopened.spill.last_recovery
    assert warm_report.clean(), warm_report.summary()
    # Structural reopen-cost gate: a warm (unchanged) reopen performs
    # ZERO segment CRC streams — every verification is a hit on the
    # stat facts its manifest recorded — while a paranoid reopen
    # streams every segment.
    assert warm_report.segments_crc_streamed == 0
    assert warm_report.cache_hits >= len(reopened.spill.segments())

    paranoid_time, paranoid = _timed(
        lambda: PassiveDnsDatabase(
            spill_dir=tmp_path / "spill", spill_paranoid=True
        )
    )
    paranoid_report = paranoid.spill.last_recovery
    assert paranoid_report.clean(), paranoid_report.summary()
    assert paranoid_report.segments_crc_streamed == len(
        paranoid.spill.segments()
    )
    assert paranoid.fingerprint() == memory.fingerprint()

    series_ratio = disk_series_time / memory_series_time
    fpr_ratio = disk_fpr_time / memory_fpr_time
    print()
    print(
        f"daily_series_for   memory: {memory_series_time * 1e6:8.1f} us   "
        f"spill: {disk_series_time * 1e6:8.1f} us   ({series_ratio:.2f}x)"
    )
    print(
        f"fingerprint        memory: {memory_fpr_time * 1e3:8.1f} ms   "
        f"spill: {disk_fpr_time * 1e3:8.1f} ms   ({fpr_ratio:.2f}x)"
    )
    print(
        f"reopen  warm (0 streams): {warm_time * 1e3:8.1f} ms   "
        f"paranoid (full scan): {paranoid_time * 1e3:8.1f} ms   "
        f"({reopened.row_count():,} rows, "
        f"{len(reopened.spill.segments())} segment(s))"
    )
    if not IN_CI:
        assert series_ratio < SPILL_MAX_SLOWDOWN, (
            f"spill-backed daily_series_for is {series_ratio:.1f}x the "
            f"in-memory path; contract is < {SPILL_MAX_SLOWDOWN}x"
        )
        assert fpr_ratio < FINGERPRINT_MAX_SLOWDOWN, (
            f"spill-backed fingerprint is {fpr_ratio:.1f}x the in-memory "
            f"path; contract is < {FINGERPRINT_MAX_SLOWDOWN}x"
        )
