"""No torn reads: served results always reflect a committed generation.

The substrate contract behind the serving tier (satellite of the
read-transaction work in :mod:`repro.passivedns.database`): while a
writer commits batches — including tail seals — every read that
happens inside ``read_transaction()`` observes the store exactly as
some single commit left it, never a half-applied batch.

The writer script is precomputed: commit ``k`` appends ``k+1`` rows
for a known target domain, so the expected aggregate state *at every
generation* is known in advance and any interleaved reader can check
the state it saw against the generation it was told it read.
"""

import tempfile
import threading

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.clock import SECONDS_PER_DAY, STUDY_START, SimClock, date_to_epoch
from repro.dns.name import DomainName
from repro.serving import DailySeriesQuery, QueryRequest, QueryServer
from repro.serving.sweep import synthetic_store

T0 = date_to_epoch(STUDY_START)
TARGET = "torn-read-probe.com"
WINDOW_DAYS = 64


def _build(seed, commits, spill_dir=None):
    """Store + per-generation expected (rows, target-series-sum)."""
    db = synthetic_store(seed, domains=40, spill_dir=spill_dir)
    target = DomainName(TARGET)
    db.add_rows(target, [T0], [1])
    expected = {db.generation: (db.row_count(), 1)}
    plans = []
    total = 1
    rows = db.row_count()
    for commit in range(commits):
        batch = commit + 1
        ids = db.intern_many([target] * batch)
        times = np.asarray(
            [T0 + ((commit + index) % WINDOW_DAYS) * SECONDS_PER_DAY
             for index in range(batch)],
            dtype=np.int64,
        )
        counts = np.ones(batch, dtype=np.int64)
        plans.append((ids, times, counts))
        total += batch
        rows += batch
        # intern_many of known domains does not bump the generation;
        # each add_batch commit bumps it exactly once.
        expected[db.generation + commit + 1] = (rows, total)
    return db, plans, expected


@settings(deadline=None, max_examples=8)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    commits=st.integers(min_value=1, max_value=6),
)
def test_raw_read_transactions_see_only_committed_states(seed, commits):
    db, plans, expected = _build(seed, commits)
    failures = []
    start = threading.Barrier(3)

    def writer():
        start.wait()
        for ids, times, counts in plans:
            db.add_batch(ids, times, counts)

    def reader():
        start.wait()
        name = DomainName(TARGET)
        for _ in range(40):
            with db.read_transaction() as generation:
                rows = db.row_count()
                series = db.daily_series_for(
                    name, T0, T0 + WINDOW_DAYS * SECONDS_PER_DAY
                )
            want = expected.get(generation)
            if want is None or want != (rows, int(series.sum())):
                failures.append((generation, rows, int(series.sum()), want))

    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader) for _ in range(2)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert failures == []
    assert db.generation == max(expected)


@settings(deadline=None, max_examples=4)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    commits=st.integers(min_value=1, max_value=4),
)
def test_reads_stay_committed_across_interleaved_spill_commits(seed, commits):
    """Same property with the writer also sealing to the spill store.

    ``spill_commit`` seals the tail into an on-disk segment and swaps
    the resident rows to memory maps; the row *content* and the
    mutation generation are unchanged, so readers must see exactly the
    same committed states as the in-memory run.
    """
    with tempfile.TemporaryDirectory() as spill_dir:
        db, plans, expected = _build(seed, commits, spill_dir=spill_dir)
        failures = []
        start = threading.Barrier(2)

        def writer():
            start.wait()
            for ids, times, counts in plans:
                db.add_batch(ids, times, counts)
                db.spill_commit()

        def reader():
            start.wait()
            name = DomainName(TARGET)
            for _ in range(40):
                with db.read_transaction() as generation:
                    rows = db.row_count()
                    series = db.daily_series_for(
                        name, T0, T0 + WINDOW_DAYS * SECONDS_PER_DAY
                    )
                want = expected.get(generation)
                if want is None or want != (rows, int(series.sum())):
                    failures.append(
                        (generation, rows, int(series.sum()), want)
                    )

        threads = [
            threading.Thread(target=writer),
            threading.Thread(target=reader),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []
        assert db.generation == max(expected)


@settings(deadline=None, max_examples=6)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    commits=st.integers(min_value=1, max_value=5),
)
def test_served_results_through_the_tier_are_never_torn(seed, commits):
    db, plans, expected = _build(seed, commits)
    server = QueryServer(db, SimClock(T0))
    # Distinct windows defeat the result cache so every query really
    # re-reads the store mid-write; the final full-window query is the
    # one whose expectation table we precomputed.
    requests = [
        QueryRequest(
            query=DailySeriesQuery(
                domain=TARGET,
                start=T0,
                end=T0 + WINDOW_DAYS * SECONDS_PER_DAY,
            )
        )
        for _ in range(24)
    ]
    start = threading.Barrier(2)
    records = []

    def writer():
        start.wait()
        for ids, times, counts in plans:
            db.add_batch(ids, times, counts)

    def readers():
        start.wait()
        records.extend(server.serve_threaded(requests, threads=3))

    threads = [threading.Thread(target=writer), threading.Thread(target=readers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert server.stats.unhandled == 0
    for record in records:
        assert record.answered
        want = expected.get(record.generation)
        assert want is not None, (
            f"result tagged uncommitted generation {record.generation}"
        )
        assert int(record.value.sum()) == want[1]
