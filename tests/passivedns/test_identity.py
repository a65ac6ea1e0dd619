"""The store's identity digest: :meth:`PassiveDnsDatabase.fingerprint`.

- the numpy digest equals a per-row pure-Python reference of the same
  definition (wrapping arithmetic spelled out with explicit masks);
- hypothesis properties: any single-row perturbation (time ±1,
  count ±1, a name swap between two rows, a duplicated or removed
  row) changes the fingerprint, and any permutation of the rows
  leaves it unchanged;
- a spill-backed store fingerprints like the in-memory one after
  every commit, after compaction, and after plain and paranoid
  reopens;
- a forged segment whose bytes and manifest CRC agree but whose rows
  differ from the recorded digest is caught by the paranoid open and
  by the post-compaction digest check.
"""

import hashlib
import json
import zlib

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.dns.name import DomainName
from repro.errors import CorruptArchiveError
from repro.passivedns.database import PassiveDnsDatabase

_NAMES = [DomainName(f"n{i}.example.com") for i in range(6)]

_rows = st.lists(
    st.tuples(
        st.integers(0, len(_NAMES) - 1),
        st.integers(1_400_000_000, 1_400_000_000 + 40 * 86_400),
        st.integers(1, 9),
    ),
    min_size=2,
    max_size=40,
)


def _store(rows, db=None):
    """A store holding ``rows`` (name index, time, count), interned in
    order of first appearance."""
    db = PassiveDnsDatabase() if db is None else db
    names = list(dict.fromkeys(name for name, _, _ in rows))
    ids = dict(zip(names, db.intern_many([_NAMES[n] for n in names]).tolist()))
    db.add_batch(
        np.asarray([ids[name] for name, _, _ in rows], dtype=np.int64),
        np.asarray([time for _, time, _ in rows], dtype=np.int64),
        np.asarray([count for _, _, count in rows], dtype=np.int64),
    )
    return db


def _fingerprint(rows):
    return _store(rows).fingerprint()


_M64 = (1 << 64) - 1


def _mix_reference(x):
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _M64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def _fingerprint_reference(rows):
    """The digest's definition, one row at a time in Python ints."""
    total = 0
    for name, time, count in rows:
        text = str(_NAMES[name]).encode("utf-8")
        key = int.from_bytes(
            hashlib.blake2b(text, digest_size=8).digest(), "little"
        )
        lanes = []
        for seed in (0x9E3779B97F4A7C15, 0xD1B54A32D192ED03):
            lane = _mix_reference(key ^ seed)
            lane = _mix_reference((lane + (time & _M64)) & _M64)
            lanes.append(_mix_reference((lane + count) & _M64))
        total += (lanes[0] << 64) | lanes[1]
    return f"{total % (1 << 128):032x}"


@settings(deadline=None, max_examples=60)
@given(
    rows=st.lists(
        st.tuples(
            st.integers(0, len(_NAMES) - 1),
            st.integers(-(2**62), 2**62),
            st.integers(1, 2**62),
        ),
        max_size=40,
    )
)
def test_fingerprint_matches_the_python_reference(rows):
    assert _fingerprint(rows) == _fingerprint_reference(rows)


@settings(deadline=None, max_examples=60)
@given(rows=_rows, data=st.data())
def test_single_row_perturbations_change_the_fingerprint(rows, data):
    base = _fingerprint(rows)
    assert len(base) == 32 and int(base, 16) >= 0
    i = data.draw(st.integers(0, len(rows) - 1), label="row")
    name, time, count = rows[i]
    perturbed = [(name, time + 1, count), (name, time - 1, count)]
    perturbed.append((name, time, count + 1))
    if count > 1:
        perturbed.append((name, time, count - 1))
    for row in perturbed:
        assert _fingerprint(rows[:i] + [row] + rows[i + 1 :]) != base
    assert _fingerprint(rows + [rows[i]]) != base
    assert _fingerprint(rows[:i] + rows[i + 1 :]) != base


@settings(deadline=None, max_examples=60)
@given(rows=_rows, data=st.data())
def test_a_name_swap_between_two_rows_changes_the_fingerprint(rows, data):
    i, j = data.draw(
        st.lists(
            st.integers(0, len(rows) - 1), min_size=2, max_size=2, unique=True
        ),
        label="pair",
    )
    (name_i, time_i, count_i), (name_j, time_j, count_j) = rows[i], rows[j]
    # Otherwise the swap leaves the same multiset of rows.
    assume(name_i != name_j and (time_i, count_i) != (time_j, count_j))
    swapped = list(rows)
    swapped[i] = (name_j, time_i, count_i)
    swapped[j] = (name_i, time_j, count_j)
    assert _fingerprint(swapped) != _fingerprint(rows)


@settings(deadline=None, max_examples=60)
@given(rows=_rows, seed=st.integers(0, 2**32 - 1))
def test_any_permutation_leaves_the_fingerprint_unchanged(rows, seed):
    order = np.random.default_rng(seed).permutation(len(rows))
    assert _fingerprint([rows[k] for k in order]) == _fingerprint(rows)


def _batches(seed=11, batches=4, rows=300):
    rng = np.random.default_rng(seed)
    return [
        list(
            zip(
                rng.integers(0, len(_NAMES), rows).tolist(),
                rng.integers(1_400_000_000, 1_500_000_000, rows).tolist(),
                rng.integers(1, 6, rows).tolist(),
            )
        )
        for _ in range(batches)
    ]


def test_spill_matches_in_memory_through_commit_compact_and_reopen(tmp_path):
    memory = PassiveDnsDatabase()
    disk = PassiveDnsDatabase(spill_dir=tmp_path / "s")
    for batch in _batches():
        _store(batch, memory)
        _store(batch, disk)
        assert disk.fingerprint() == memory.fingerprint()
        disk.spill_commit()
        assert disk.fingerprint() == memory.fingerprint()
    expected = memory.fingerprint()
    assert disk.spill.meta["store_digest"] == expected
    assert disk.spill_compact() is not None
    assert len(disk.spill.segments()) == 1
    assert disk.fingerprint() == expected
    for paranoid in (False, True):
        reopened = PassiveDnsDatabase(
            spill_dir=tmp_path / "s", spill_paranoid=paranoid
        )
        assert reopened.spill.last_recovery.clean()
        assert reopened.fingerprint() == expected


def _forge_segment(root, column=1):
    """Change one row of the newest segment and re-sign it.

    ``column`` 0 moves the row to another interned name (only the name
    hashes tell the two apart), 1 shifts its time by a second.

    The segment's bytes and every manifest's CRC for it agree again
    afterwards (manifest checksums recomputed; the rewrite changes the
    file's stat, so a plain open streams it and the CRC passes), so
    only the row digest recorded in the manifest can tell the rows
    are not the ones committed.
    """
    victim = sorted((root / "segments").glob("seg-*.npy"))[-1]
    stacked = np.load(victim)
    if column == 0:
        stacked[0, 0] = (stacked[0, 0] + 1) % len(_NAMES)
    else:
        stacked[1, 0] += 1
    np.save(victim, stacked)
    crc = zlib.crc32(victim.read_bytes()) & 0xFFFFFFFF
    for manifest in root.glob("manifest-*.json"):
        document = json.loads(manifest.read_text())
        payload = document["payload"]
        for segment in payload["segments"]:
            if segment[0] == victim.name:
                segment[2] = crc
        encoded = json.dumps(payload, sort_keys=True).encode("utf-8")
        document["checksum"] = zlib.crc32(encoded) & 0xFFFFFFFF
        manifest.write_text(json.dumps(document, sort_keys=True, indent=1))


def _committed(root):
    """Two committed batches over every name, the writer closed."""
    db = PassiveDnsDatabase(spill_dir=root)
    for batch in _batches(batches=2):
        _store(batch, db)
        db.spill_commit()
    assert db.unique_domains() == len(_NAMES)


def test_forged_segment_is_caught_by_paranoid_open_and_compaction(tmp_path):
    root = tmp_path / "s"
    _committed(root)
    _forge_segment(root)
    with pytest.raises(CorruptArchiveError, match="row digest"):
        PassiveDnsDatabase(spill_dir=root, spill_paranoid=True)
    # A plain open trusts the manifest's per-segment digests (the CRC
    # scan passes: the bytes match their forged CRC)...
    trusting = PassiveDnsDatabase(spill_dir=root)
    assert trusting.spill.last_recovery.clean()
    # ...but compaction recomputes the merged segment's digest from its
    # rows and refuses the sum of the recorded ones.
    with pytest.raises(CorruptArchiveError, match="combined digest"):
        trusting.spill_compact()


def test_row_moved_to_another_name_is_caught_by_paranoid_open(tmp_path):
    """Only the name hashes tell the forged row from the committed one.

    The reopened store hashes no name until a digest needs one, so the
    paranoid open must fill the hashes before it digests the segment.
    """
    root = tmp_path / "s"
    _committed(root)
    _forge_segment(root, column=0)
    with pytest.raises(CorruptArchiveError, match="row digest"):
        PassiveDnsDatabase(spill_dir=root, spill_paranoid=True)
