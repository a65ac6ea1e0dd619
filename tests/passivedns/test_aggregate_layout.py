"""Store aggregates are independent of the row layout.

Every generation-keyed aggregate the store builds (monthly series,
TLD histogram, lifespan decay, multiset row digest, canonical
fingerprint) streams over the row parts one at a time, so each reduce
must be associative across part boundaries.  The property: the same
rows, cut into batches at arbitrary points, give byte-identical
aggregates whether they sit in memory, in one spill segment per
batch, in one compacted segment, or in a store reopened read-only.
"""

import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from repro.dns.name import DomainName
from repro.passivedns.database import PassiveDnsDatabase, _domain_index
from tests.passivedns.reference import (
    daily_series_scan,
    lifespan_decay_scan,
    monthly_series_scan,
)

_DOMAINS = [
    DomainName(f"host{i}.zone{i % 7}.tld{i % 5}.com") for i in range(48)
]


def _rows(seed, n, span_days=40):
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, len(_DOMAINS), n)
    # A 40-day span keeps (day, domain) pairs recurring across batches,
    # so per-part reduces that are not associative show up.
    times = rng.integers(0, span_days * 86_400, n).astype(np.int64)
    counts = rng.integers(1, 6, n).astype(np.int64)
    return picks, times, counts


def _fill(db, rows, cuts, commit_each=False):
    """Land ``rows`` as one ``add_batch`` per ``cuts`` slice."""
    picks, times, counts = rows
    ids = db.intern_many(_DOMAINS)
    bounds = [0, *cuts, len(picks)]
    for lo, hi in zip(bounds, bounds[1:]):
        db.add_batch(ids[picks[lo:hi]], times[lo:hi], counts[lo:hi])
        if commit_each:
            db.spill_commit({"source": "layout-test"})
    return db


def _aggregates(db):
    domains_series, queries_series = db.lifespan_decay(45)
    return (
        db.monthly_response_series(),
        db.tld_histogram(),
        domains_series.tobytes(),
        queries_series.tobytes(),
        db.fingerprint(),
    )


def _stores(root: Path, rows, cuts):
    """The same rows under each of the four layouts."""
    in_memory = _fill(PassiveDnsDatabase(), rows, cuts)
    segmented = _fill(
        PassiveDnsDatabase(spill_dir=root / "segmented"),
        rows,
        cuts,
        commit_each=True,
    )
    compacted = _fill(
        PassiveDnsDatabase(spill_dir=root / "compacted"),
        rows,
        cuts,
        commit_each=True,
    )
    compacted.spill_compact()
    reopened = PassiveDnsDatabase(
        spill_dir=root / "segmented", spill_read_only=True
    )
    return {
        "in-memory": in_memory,
        "segmented": segmented,
        "compacted": compacted,
        "reopened": reopened,
    }


@st.composite
def _row_sets(draw):
    n = draw(st.integers(min_value=1, max_value=300))
    cuts = draw(
        st.lists(
            st.integers(min_value=1, max_value=n), max_size=5, unique=True
        )
    )
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return _rows(seed, n), sorted(cut for cut in cuts if cut < n)


@settings(deadline=None, max_examples=12)
@given(case=_row_sets())
def test_aggregates_are_layout_invariant(case):
    rows, cuts = case
    with tempfile.TemporaryDirectory() as tmp:
        stores = _stores(Path(tmp), rows, cuts)
        results = {layout: _aggregates(db) for layout, db in stores.items()}
        # The layouts really differ: one segment per batch vs one.
        assert len(stores["segmented"].spill.segments()) == len(cuts) + 1
        assert len(stores["compacted"].spill.segments()) == 1
    expected = results.pop("in-memory")
    for layout, aggregates in results.items():
        assert aggregates == expected, layout


def test_empty_store_aggregates(tmp_path):
    empty = PassiveDnsDatabase()
    spilled = PassiveDnsDatabase(spill_dir=tmp_path / "s")
    spilled.spill_commit({"source": "layout-test"})
    reopened = PassiveDnsDatabase(
        spill_dir=tmp_path / "s", spill_read_only=True
    )
    expected = _aggregates(empty)
    assert _aggregates(spilled) == expected
    assert _aggregates(reopened) == expected
    assert expected[0] == {} and expected[1] == {}
    for db in (empty, spilled, reopened):
        _check_against_scans(db, _MAX_DAYS)


# -- the §4 reads against their scan oracles --------------------------------

#: Window lengths around the 64-day mark, one day, and Figure 5's
#: daily window (130 days).
_MAX_DAYS = [1, 63, 64, 65, 130]


def _check_against_scans(db, max_days_list):
    """Monthly series and lifespan decay equal the full-column scans."""
    assert db.monthly_response_series() == monthly_series_scan(db)
    for max_days in max_days_list:
        domains_series, queries_series = db.lifespan_decay(max_days)
        want_domains, want_queries = lifespan_decay_scan(db, max_days)
        assert domains_series.dtype == queries_series.dtype == np.int64
        assert np.array_equal(domains_series, want_domains), max_days
        assert np.array_equal(queries_series, want_queries), max_days


@st.composite
def _scan_cases(draw):
    n = draw(st.integers(min_value=0, max_value=300))
    cuts = draw(
        st.lists(
            st.integers(min_value=1, max_value=max(n, 1)), max_size=5, unique=True
        )
    )
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    # Spans past 130 days put rows outside every window.
    span_days = draw(st.sampled_from([1, 40, 200]))
    max_days = draw(
        st.lists(
            st.one_of(
                st.sampled_from(_MAX_DAYS), st.integers(min_value=1, max_value=220)
            ),
            min_size=1,
            max_size=3,
        )
    )
    return _rows(seed, n, span_days), sorted(c for c in cuts if c < n), max_days


@settings(deadline=None, max_examples=15)
@given(case=_scan_cases(), block=st.sampled_from([7, 64, 1 << 16]))
@example(case=(_rows(5, 0), [], _MAX_DAYS), block=7)
@example(case=(_rows(5, 250, 200), [40, 130], _MAX_DAYS), block=64)
def test_section4_reads_equal_scans_under_every_layout(case, block):
    """Sort-based, block-streamed reads ≡ ``np.unique`` scans.

    The same random rows, cut into random batches, under the four
    layouts, read ``block`` rows at a time (so blocks also cut inside
    a part); ``max_days`` from one day to past the longest span, and
    rows both inside and outside the window.
    """
    rows, cuts, max_days = case
    with tempfile.TemporaryDirectory() as tmp:
        for db in _stores(Path(tmp), rows, cuts).values():
            db._CHUNK = block
            _check_against_scans(db, max_days)


def test_section4_reads_call_no_unique(tmp_path, monkeypatch):
    """Neither build reaches ``np.unique`` (numpy 2's hash path)."""
    db = _fill(
        PassiveDnsDatabase(spill_dir=tmp_path / "s"),
        _rows(9, 400, 200),
        [100, 250],
        commit_each=True,
    )
    db.add_batch(db.intern_many(_DOMAINS)[:3], [5, 6, 7], [1, 2, 3])
    assert len(db._parts()) == 4

    def refuse(*args, **kwargs):
        raise AssertionError("np.unique called")

    monkeypatch.setattr(np, "unique", refuse)
    db._build_monthly_series()
    for max_days in _MAX_DAYS:
        db._build_lifespan_decay(max_days)


def test_lifespan_decay_of_a_large_part_holds_a_few_blocks():
    """A 1M-row part's lifespan decay peaks at a few ``_CHUNK`` blocks.

    48 domains over 90 days hold at most 4,320 distinct (offset,
    domain) pairs per block, so the pooled codes stay small too; a
    part-sized reduce held several row-length arrays (25 MB here).
    """
    db = PassiveDnsDatabase()
    ids = db.intern_many(_DOMAINS)
    n = 1_000_000
    rng = np.random.default_rng(3)
    db._CHUNK = n
    db.add_batch(
        ids[rng.integers(0, len(_DOMAINS), n)],
        rng.integers(0, 90 * 86_400, n),
        rng.integers(1, 9, n),
    )
    del db._CHUNK
    assert len(db._parts()) == 1 and len(db._parts()[0][0]) == n
    tracemalloc.start()
    try:
        db._build_lifespan_decay(130)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    gate = 8 * db._CHUNK * 8
    assert gate < n * 8
    assert peak < gate, peak


# -- per-domain reads -------------------------------------------------------

_DAY = 86_400
_SPAN = 40 * _DAY
#: Interned in batches as the operations run, so later batches bring
#: domains whose ids lie past every part indexed before them.
_POOL = [DomainName(f"n{i}.{('com', 'net', 'org')[i % 3]}") for i in range(40)]
#: Bin edges fall on ``k * _DAY`` or ``k * _DAY + _EDGE``; a share of
#: every batch's rows is drawn onto those edges (see ``_batch``).
_EDGE = 3_600
_WINDOWS = [
    # Ends after every row.
    (0, _SPAN + _DAY),
    # A trailing partial day, which has no bin.
    (10 * _DAY + _EDGE, 25 * _DAY),
    # Starts before every row.
    (-3 * _DAY + _EDGE, 12 * _DAY),
    # Zero whole days, and an end before the start.
    (7 * _DAY, 7 * _DAY + _EDGE),
    (9 * _DAY, 2 * _DAY),
]
_PIVOTS = [(20 * _DAY + 500, 7, 9), (2 * _DAY, 5, 3), (5 * _DAY, 0, 0)]


def _reference_rows(db, domain):
    """One domain's (times, counts), brute force over ``_columns()``."""
    ids, times, counts = db._columns()
    domain_id = db._id_of.get(domain)
    mask = ids == domain_id
    return times[mask], counts[mask]


def _batch(interned, n, seed):
    """One add's (picks, times, counts).

    A quarter of the rows sit exactly on a bin edge of ``_WINDOWS``,
    pinning the half-open ``[start, end)`` bins.  Those times come from
    an 80-value grid, so they recur across batches: equal timestamps
    of one domain end up split across parts.
    """
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, interned, n)
    times = rng.integers(0, _SPAN, n).astype(np.int64)
    on_edge = rng.random(n) < 0.25
    grid = rng.integers(0, 40, n) * _DAY + rng.integers(0, 2, n) * _EDGE
    times[on_edge] = grid[on_edge]
    counts = rng.integers(1, 6, n).astype(np.int64)
    return picks, times, counts


def _check_per_domain_reads(db):
    """Every per-domain read equals the reference scan."""
    from repro.serving.queries import ActivityWindowQuery

    for domain in db.all_domains():
        times, counts = _reference_rows(db, domain)
        windows = list(_WINDOWS)
        if len(times):
            # Starts before the domain's first row and ends after its
            # last, on unaligned seconds.
            windows.append((int(times.min()) - 2 * _DAY + 1, int(times.max()) + _DAY))
        for start, end in windows:
            assert np.array_equal(
                db.daily_series_for(domain, start, end),
                daily_series_scan(db, domain, start, end),
            ), (str(domain), start, end)
        for pivot, before, after in _PIVOTS:
            assert np.array_equal(
                db.timeline_around(domain, pivot, before, after),
                daily_series_scan(
                    db, domain, pivot - before * _DAY, pivot + after * _DAY
                ),
            ), (str(domain), pivot)
        if not len(times):
            continue
        first = int(times.min())
        origin = (first // _DAY) * _DAY
        assert ActivityWindowQuery(domain=str(domain)).execute(db) == {
            "domain": str(domain),
            "first_seen": first,
            "last_seen": int(times.max()),
            "total_queries": int(counts.sum()),
            "lifespan_days": (int(times.max()) - first) // _DAY + 1,
            "active_days": len(np.unique((times - origin) // _DAY)),
        }, str(domain)


_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            st.integers(min_value=0, max_value=6),  # fresh domains
            st.integers(min_value=1, max_value=120),  # rows
            st.integers(min_value=0, max_value=2**31 - 1),  # seed
        ),
        st.tuples(st.sampled_from(["commit", "compact", "reopen"])),
    ),
    min_size=1,
    max_size=10,
)


def _reopen(root, chunk):
    db = PassiveDnsDatabase(spill_dir=root)
    db._CHUNK = chunk
    return db


@settings(deadline=None, max_examples=25)
@given(ops=_OPS, chunk=st.sampled_from([48, 1 << 16]))
# Tail rows read before any commit, then domains interned after the
# first segment was indexed.
@example(ops=[("add", 3, 40, 1), ("commit",), ("add", 4, 40, 2)], chunk=1 << 16)
# Indexed segments retired by a compaction, then a reopen.
@example(
    ops=[
        ("add", 3, 50, 1),
        ("commit",),
        ("add", 2, 50, 2),
        ("compact",),
        ("add", 1, 10, 3),
        ("reopen",),
    ],
    chunk=48,
)
def test_per_domain_reads_are_layout_invariant(ops, chunk):
    """Per-domain reads ≡ brute force, whatever the part layout.

    Random add/commit/compact/reopen sequences run on an in-memory and
    a spill-backed store side by side (a small ``_CHUNK`` seals parts
    mid-batch), and every domain is checked after every operation: so
    queries land between ``add_batch`` and commit (tail rows), after
    seals and compactions (indexes of parts that come and go), and on
    domains interned after older parts were indexed.  The windows start
    before and end after the rows, hold zero days, and have rows on
    their bin edges.
    """
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "s"
        memory = PassiveDnsDatabase()
        memory._CHUNK = chunk
        spilled = _reopen(root, chunk)
        interned = 0
        for op in ops:
            if op[0] == "add":
                _, fresh, n, seed = op
                interned = min(interned + fresh, len(_POOL))
                if not interned:
                    continue
                picks, times, counts = _batch(interned, n, seed)
                for db in (memory, spilled):
                    ids = db.intern_many(_POOL[:interned])
                    db.add_batch(ids[picks], times, counts)
            elif op[0] == "commit":
                spilled.spill_commit({"source": "layout-test"})
            elif op[0] == "compact":
                spilled.spill_commit({"source": "layout-test"})
                spilled.spill_compact()
            else:
                spilled.spill_commit({"source": "layout-test"})
                _check_per_domain_reads(
                    PassiveDnsDatabase(spill_dir=root, spill_read_only=True)
                )
                spilled = _reopen(root, chunk)
            for db in (memory, spilled):
                _check_per_domain_reads(db)
        assert spilled.fingerprint() == memory.fingerprint()


def _listing(root):
    """Every file under ``root`` with its size and mtime."""
    return sorted(
        (str(path.relative_to(root)), path.stat().st_size, path.stat().st_mtime_ns)
        for path in root.rglob("*")
    )


def test_per_domain_reads_persist_nothing(tmp_path):
    """The per-part indexes live in memory only: reads write no file."""
    from repro.serving.queries import ActivityWindowQuery

    root = tmp_path / "s"
    db = PassiveDnsDatabase(spill_dir=root)
    db._CHUNK = 48
    picks, times, counts = _batch(len(_POOL), 300, 7)
    ids = db.intern_many(_POOL)
    db.add_batch(ids[picks[:200]], times[:200], counts[:200])
    db.spill_commit({"source": "layout-test"})
    db.spill_compact()
    db.add_batch(ids[picks[200:]], times[200:], counts[200:])
    db.spill_commit({"source": "layout-test"})
    before = _listing(root)
    reopened = PassiveDnsDatabase(spill_dir=root, spill_read_only=True)
    for store in (db, reopened):
        for domain in _POOL:
            store.daily_series_for(domain, 0, _SPAN)
            store.timeline_around(domain, 20 * _DAY, 7, 9)
            ActivityWindowQuery(domain=str(domain)).execute(store)
        assert store._part_index_cache
    assert _listing(root) == before


# -- the per-part index and the row digest -----------------------------------


def _check_index(ids, times, counts):
    """:func:`_domain_index` against a brute-force (domain, time) sum."""
    starts, sorted_times, running = _domain_index(ids, times, counts)
    assert running[0] == 0 and len(running) == len(ids) + 1
    for domain in range(len(starts) - 1):
        lo, hi = int(starts[domain]), int(starts[domain + 1])
        mine = ids == domain
        assert np.array_equal(sorted_times[lo:hi], np.sort(times[mine]))
        for t in np.unique(times[mine]).tolist():
            first = lo + int(np.searchsorted(sorted_times[lo:hi], t, "left"))
            last = lo + int(np.searchsorted(sorted_times[lo:hi], t, "right"))
            assert running[last] - running[first] == counts[mine & (times == t)].sum()


@settings(deadline=None, max_examples=40)
@given(
    rows=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=2**40, max_value=2**62),
            st.integers(min_value=1, max_value=9),
        ),
        max_size=40,
    ),
)
@example(rows=[(5, 2**40, 1), (0, 2**62, 2), (5, 2**40, 3), (0, 2**40, 4)])
@example(rows=[])
def test_domain_index_is_exact_past_int64(rows):
    """Sorted times and running sums match brute force at any key width."""
    columns = [np.array(column, dtype=np.int64) for column in zip(*rows)]
    if not columns:
        columns = [np.empty(0, dtype=np.int64)] * 3
    _check_index(*columns)


def test_domain_index_falls_back_to_lexsort(monkeypatch):
    """A combined key past int64 sorts by ``lexsort``; one that fits does not."""
    calls = []
    lexsort = np.lexsort

    def spy(keys):
        calls.append(len(keys[0]))
        return lexsort(keys)

    monkeypatch.setattr(np, "lexsort", spy)
    # The times span 2**62 + 1 seconds: a largest id of 3 overflows
    # the key, a largest id of 0 does not.
    times = 2**40 + np.array([2**62, 0, 0, 2**62, 0], dtype=np.int64)
    counts = np.array([1, 2, 3, 4, 5], dtype=np.int64)
    _check_index(np.array([3, 0, 3, 2, 0], dtype=np.int64), times, counts)
    assert calls == [5]
    _check_index(np.zeros(5, dtype=np.int64), times, counts)
    assert calls == [5]


_BLOCK = 7


@settings(deadline=None, max_examples=30)
@given(
    n=st.sampled_from([0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 1]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_blockwise_digest_equals_one_shot(n, seed):
    """Hashing ``_CHUNK`` rows at a time gives the one-shot digest."""
    picks, times, counts = _rows(seed, n)
    digests = set()
    for block in (_BLOCK, max(n, 1)):
        db = PassiveDnsDatabase()
        db._CHUNK = block
        ids = db.intern_many(_DOMAINS)[picks]
        digests.add(db._rows_digest(ids, times, counts))
    assert len(digests) == 1
    assert n or digests == {0}


def test_digest_of_a_large_part_holds_a_few_blocks():
    """A 1M-row digest peaks at a few ``_CHUNK`` blocks, not the rows."""
    db = PassiveDnsDatabase()
    ids = db.intern_many(_DOMAINS)
    n = 1_000_000
    rng = np.random.default_rng(3)
    rows = (
        ids[rng.integers(0, len(_DOMAINS), n)],
        rng.integers(0, 2**40, n),
        rng.integers(1, 9, n),
    )
    tracemalloc.start()
    try:
        db._rows_digest(*rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Eight blocks of uint64 stay below one row-length column; hashing
    # all rows at once peaked at four of them (32 MB here).
    gate = 8 * db._CHUNK * 8
    assert gate < n * 8
    assert peak < gate, peak
