"""Part-by-part aggregates ≡ single-part aggregates, byte for byte.

Every generation-keyed aggregate the store builds (monthly series,
TLD histogram, lifespan decay, multiset row digest, canonical
fingerprint) streams over the row parts one at a time and merges the
partial results.  The same rows must therefore give *bit-identical*
aggregates whether they land as one part or as ``parts`` batches, over
both the in-memory chunk list and the spill-backed segment store.
Each case builds fresh stores — the caches are generation-keyed, so
reusing one store would just serve the first build back.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.dns.name import DomainName
from repro.passivedns.database import PassiveDnsDatabase

_DOMAINS = [
    DomainName(f"host{i}.zone{i % 7}.tld{i % 5}.com") for i in range(48)
]


def _fill(db, seed, rows, parts, commit_each=False):
    """Append ``rows`` seeded rows as ``parts`` contiguous batches (one
    sealed chunk boundary per batch in memory; one segment per batch
    when ``commit_each`` spills every batch)."""
    rng = np.random.default_rng(seed)
    ids = db.intern_many(_DOMAINS)
    picks = rng.integers(0, len(_DOMAINS), rows)
    times = np.sort(rng.integers(0, 300 * 86_400, rows)).astype(np.int64)
    counts = rng.integers(1, 6, rows).astype(np.int64)
    bounds = np.linspace(0, rows, parts + 1).astype(int)
    for lo, hi in zip(bounds, bounds[1:]):
        db.add_batch(ids[picks[lo:hi]], times[lo:hi], counts[lo:hi])
        if commit_each:
            db.spill_commit({"source": "part-aggregate-test"})
    return db


def _aggregates(db):
    domains_series, queries_series = db.lifespan_decay(45)
    return (
        db.monthly_response_series(),
        db.tld_histogram(),
        domains_series.tobytes(),
        queries_series.tobytes(),
        db.digest(),
        db.fingerprint(),
    )


def _build(seed, rows, jobs, spill_dir=None):
    """A store holding the seeded rows in ``jobs`` parts."""
    db = PassiveDnsDatabase(spill_dir=spill_dir)
    _fill(db, seed, rows, jobs, commit_each=spill_dir is not None)
    return db


# -- property: many parts ≡ one part -----------------------------------------


@settings(deadline=None, max_examples=8)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    jobs=st.sampled_from([2, 3, 4]),
    rows=st.integers(min_value=0, max_value=400),
)
def test_parallel_aggregates_match_serial_in_memory(seed, jobs, rows):
    serial = _aggregates(_build(seed, rows, jobs=1))
    parallel = _aggregates(_build(seed, rows, jobs=jobs))
    assert parallel == serial


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("jobs", [2, 4])
def test_parallel_aggregates_match_serial_spilled(tmp_path, seed, jobs):
    serial_db = _build(seed, 350, jobs=1, spill_dir=tmp_path / "s")
    parallel_db = _build(seed, 350, jobs=jobs, spill_dir=tmp_path / f"p{jobs}")
    assert len(serial_db.spill.segments()) == 1
    assert len(parallel_db.spill.segments()) == jobs
    assert _aggregates(parallel_db) == _aggregates(serial_db)


def test_spill_and_memory_backends_agree_under_parallelism(tmp_path):
    in_memory = _aggregates(_build(3, 300, jobs=4))
    spilled = _aggregates(_build(3, 300, jobs=4, spill_dir=tmp_path / "d"))
    assert spilled == in_memory


def test_reopened_spill_store_serves_identical_parallel_aggregates(tmp_path):
    committed = _build(11, 300, jobs=4, spill_dir=tmp_path / "d")
    expected = _aggregates(committed)
    reopened = PassiveDnsDatabase(
        spill_dir=tmp_path / "d", spill_read_only=True
    )
    assert len(reopened.spill.segments()) == 4
    assert _aggregates(reopened) == expected
    assert _aggregates(_build(11, 300, jobs=1)) == expected


# -- edges -------------------------------------------------------------------


def test_overshard_more_jobs_than_rows():
    """More batches than rows leaves some batches empty; the empty
    parts add nothing and the aggregates stay identical."""
    serial = _aggregates(_build(5, 7, jobs=1))
    assert _aggregates(_build(5, 7, jobs=16)) == serial
