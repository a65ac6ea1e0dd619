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
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from repro.dns.name import DomainName
from repro.passivedns.database import PassiveDnsDatabase

_DOMAINS = [
    DomainName(f"host{i}.zone{i % 7}.tld{i % 5}.com") for i in range(48)
]


def _rows(seed, n):
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, len(_DOMAINS), n)
    # A 40-day span keeps (day, domain) pairs recurring across batches,
    # so per-part reduces that are not associative show up.
    times = rng.integers(0, 40 * 86_400, n).astype(np.int64)
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


def _layouts(root: Path, rows, cuts):
    """Aggregates of the same rows under each of the four layouts."""
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
        "in-memory": _aggregates(in_memory),
        "segmented": _aggregates(segmented),
        "compacted": _aggregates(compacted),
        "reopened": _aggregates(reopened),
    }, segmented, compacted


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
        results, segmented, compacted = _layouts(Path(tmp), rows, cuts)
        # The layouts really differ: one segment per batch vs one.
        assert len(segmented.spill.segments()) == len(cuts) + 1
        assert len(compacted.spill.segments()) == 1
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


# -- per-domain reads -------------------------------------------------------

_DAY = 86_400
_SPAN = 40 * _DAY
#: Interned in batches as the operations run, so later batches bring
#: domains whose ids lie past every part indexed before them.
_POOL = [DomainName(f"n{i}.{('com', 'net', 'org')[i % 3]}") for i in range(40)]
_WINDOWS = [(0, _SPAN + _DAY), (10 * _DAY + 3_600, 25 * _DAY)]
_PIVOTS = [(20 * _DAY + 500, 7, 9), (2 * _DAY, 5, 3)]


def _reference_rows(db, domain):
    """One domain's (times, counts), brute force over ``_columns()``."""
    ids, times, counts = db._columns()
    domain_id = db._id_of.get(domain)
    mask = ids == domain_id
    return times[mask], counts[mask]


def _reference_series(times, counts, start, end):
    days = max((end - start) // _DAY, 0)
    series = np.zeros(days, dtype=np.int64)
    keep = (times >= start) & (times < start + days * _DAY)
    np.add.at(series, (times[keep] - start) // _DAY, counts[keep])
    return series


def _check_per_domain_reads(db):
    """Every per-domain read equals the brute-force reference."""
    from repro.serving.queries import ActivityWindowQuery

    for domain in db.all_domains():
        times, counts = _reference_rows(db, domain)
        for start, end in _WINDOWS:
            assert np.array_equal(
                db.daily_series_for(domain, start, end),
                _reference_series(times, counts, start, end),
            ), (str(domain), start, end)
        for pivot, before, after in _PIVOTS:
            assert np.array_equal(
                db.timeline_around(domain, pivot, before, after),
                _reference_series(
                    times, counts, pivot - before * _DAY, pivot + after * _DAY
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
    domains interned after older parts were indexed.
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
                rng = np.random.default_rng(seed)
                picks = rng.integers(0, interned, n)
                times = rng.integers(0, _SPAN, n).astype(np.int64)
                counts = rng.integers(1, 6, n).astype(np.int64)
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
