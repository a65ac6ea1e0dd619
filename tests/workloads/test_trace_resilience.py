"""Degraded traces and checkpointed faulted replay."""

import pytest

from repro.errors import WorkloadError
from repro.faults import FaultPlan
from repro.passivedns.database import PassiveDnsDatabase
from repro.passivedns.pipeline import ResilientIngestPipeline
from repro.workloads.persistence import replay_with_checkpoints
from repro.workloads.trace import NxdomainTraceGenerator, TraceConfig

PLAN = FaultPlan.loss(0.08)


@pytest.fixture(scope="module")
def trace():
    config = TraceConfig(total_domains=1_500, squat_count=60)
    return NxdomainTraceGenerator(seed=9, config=config).generate()


def test_degraded_returns_a_new_trace_with_losses(trace):
    degraded, stats = trace.degraded(PLAN, seed=5)
    assert degraded is not trace
    assert degraded.nx_db is not trace.nx_db
    assert stats.dropped > 0
    assert degraded.nx_db.total_responses() < trace.nx_db.total_responses()
    # The population itself is untouched; only the collection degrades.
    assert degraded.population is trace.population


def test_degraded_is_deterministic(trace):
    first, _ = trace.degraded(PLAN, seed=5)
    second, _ = trace.degraded(PLAN, seed=5)
    assert first.nx_db.fingerprint() == second.nx_db.fingerprint()
    other, _ = trace.degraded(PLAN, seed=6)
    assert other.nx_db.fingerprint() != first.nx_db.fingerprint()


def test_interrupted_replay_resumes_to_the_same_result(trace, tmp_path):
    direct, _ = trace.degraded(PLAN, seed=5)

    interrupted, stats = replay_with_checkpoints(
        trace, PLAN, seed=5, directory=tmp_path, every=500, stop_after=2_000
    )
    assert interrupted is None
    assert stats.checkpoints > 0

    resumed, final = replay_with_checkpoints(
        trace, PLAN, seed=5, directory=tmp_path, every=500
    )
    assert resumed is not None
    assert resumed.nx_db.fingerprint() == direct.nx_db.fingerprint()
    assert final.offered == trace.nx_db.row_count()


def test_resume_refuses_a_committed_store_without_checkpoint(trace, tmp_path):
    """Resuming on top of a store that carries no checkpoint would
    re-ingest every row it holds and double-count it."""
    root = tmp_path / "nx"
    trace.spilled(root)
    pipeline = ResilientIngestPipeline(spill_dir=root, checkpoint_every=100)
    with pytest.raises(WorkloadError, match="without a checkpoint"):
        pipeline.resume()
    with pytest.raises(WorkloadError, match="without a checkpoint"):
        replay_with_checkpoints(trace, PLAN, seed=5, directory=root, every=500)
    reopened = PassiveDnsDatabase(spill_dir=root, spill_read_only=True)
    assert reopened.row_count() == trace.nx_db.row_count()
    assert reopened.fingerprint() == trace.nx_db.fingerprint()
