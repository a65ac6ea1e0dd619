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
from hypothesis import given, settings, strategies as st

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
        db.digest(),
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
