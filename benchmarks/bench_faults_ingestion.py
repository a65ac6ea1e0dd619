"""Resilient-pipeline ingestion throughput under fault load.

Replays the session trace's passive DNS rows through the
:class:`~repro.passivedns.pipeline.ResilientIngestPipeline` at 0%,
1%, and 10% composite fault rates (``FaultPlan.loss``) and reports the
absorption ledger: how many observations were dropped, duplicated,
retried, dead-lettered, and recovered.  The 0% point doubles as a
correctness gate — with faults disabled the pipeline's store must be
byte-identical to the trace's own database.
"""

import pytest

from repro.core.reports import render_table
from repro.faults import FaultPlan
from repro.passivedns.pipeline import ResilientIngestPipeline

FAULT_RATES = [0.0, 0.01, 0.10]
PIPELINE_SEED = 202


def _replay(trace, rate):
    schedule = None if rate == 0 else FaultPlan.loss(rate).schedule(PIPELINE_SEED)
    pipeline = ResilientIngestPipeline(schedule=schedule)
    pipeline.ingest_many(trace.nx_db.iter_observations())
    stats = pipeline.finish()
    return pipeline, stats


@pytest.mark.parametrize("rate", FAULT_RATES)
def test_faulted_ingestion_throughput(benchmark, trace, rate):
    pipeline, stats = benchmark.pedantic(
        _replay, args=(trace, rate), rounds=1, iterations=1
    )
    survived = pipeline.database.total_responses()
    baseline = trace.nx_db.total_responses()
    print()
    print(
        f"fault rate {rate:.0%}: {stats.offered:,} offered, "
        f"{survived / baseline:.4f} of responses survived"
    )
    print(
        render_table(
            ["counter", "value"],
            [
                ("dropped", f"{stats.dropped:,}"),
                ("duplicates delivered", f"{stats.duplicates_delivered:,}"),
                ("duplicates suppressed", f"{stats.duplicates_suppressed:,}"),
                ("store retries", f"{stats.store_retries:,}"),
                ("store failures", f"{stats.store_failures:,}"),
                ("replay recovered", f"{stats.replay_recovered:,}"),
            ],
        )
    )
    assert stats.offered == trace.nx_db.row_count()
    if rate == 0:
        # Faults disabled: the resilient path is an identity transform.
        assert pipeline.database.fingerprint() == trace.nx_db.fingerprint()
        assert stats.dropped == 0 and stats.store_retries == 0
    else:
        # Loss is bounded by the drop rate; everything the drop
        # injector did not claim must have been stored (retries plus
        # dead-letter replay recover every transient store failure).
        assert stats.dropped > 0
        assert survived < baseline
        # Every row the drop injector did not claim is stored exactly
        # once: duplicates and replays are dedup-suppressed.
        assert pipeline.database.row_count() == stats.offered - stats.dropped
        assert 1 - rate - 0.02 <= survived / baseline <= 1 - rate + 0.02
