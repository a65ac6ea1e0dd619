"""Tests for database / WHOIS / trace persistence."""

import json

import pytest

from repro.dns.name import DomainName
from repro.errors import ConfigError
from repro.passivedns.database import PassiveDnsDatabase
from repro.passivedns.io import load_database, save_database
from repro.whois.history import WhoisHistoryDatabase
from repro.whois.io import load_history, save_history
from repro.whois.record import WhoisRecord
from repro.workloads.persistence import load_trace, save_trace
from repro.workloads.trace import NxdomainTraceGenerator, TraceConfig

D1 = DomainName("alpha.com")
D2 = DomainName("beta.net")


class TestDatabaseIo:
    def test_roundtrip(self, tmp_path):
        db = PassiveDnsDatabase()
        db.add(D1, timestamp=0, count=10)
        db.add(D2, timestamp=86_400, count=3)
        path = tmp_path / "store.npz"
        save_database(db, path)
        loaded = load_database(path)
        assert loaded.total_responses() == 13
        assert loaded.unique_domains() == 2
        assert loaded.profile(D1).total_queries == 10
        assert loaded.monthly_response_series() == db.monthly_response_series()

    def test_roundtrip_empty(self, tmp_path):
        path = tmp_path / "empty.npz"
        save_database(PassiveDnsDatabase(), path)
        assert load_database(path).total_responses() == 0

    def test_loaded_database_accepts_new_rows(self, tmp_path):
        db = PassiveDnsDatabase()
        db.add(D1, 0, 1)
        path = tmp_path / "s.npz"
        save_database(db, path)
        loaded = load_database(path)
        loaded.add(D1, 86_400, 2)
        loaded.add(D2, 0, 5)
        assert loaded.total_responses() == 8
        assert loaded.unique_domains() == 2

    def test_version_check(self, tmp_path):
        import numpy as np

        path = tmp_path / "bad.npz"
        np.savez_compressed(
            path,
            version=np.int64(99),
            domains=np.asarray([], dtype=object),
            first_seen=np.asarray([], dtype=np.int64),
            last_seen=np.asarray([], dtype=np.int64),
            totals=np.asarray([], dtype=np.int64),
            row_domain=np.asarray([], dtype=np.int64),
            row_time=np.asarray([], dtype=np.int64),
            row_count=np.asarray([], dtype=np.int64),
        )
        with pytest.raises(ValueError, match="version"):
            load_database(path)


class TestCorruptArchives:
    """Torn/damaged persistence artifacts surface as typed errors."""

    def test_truncated_npz_raises_typed_error(self, tmp_path):
        from repro.errors import CorruptArchiveError

        db = PassiveDnsDatabase()
        db.add(D1, timestamp=0, count=2)
        path = tmp_path / "store.npz"
        save_database(db, path)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(CorruptArchiveError) as excinfo:
            load_database(path)
        assert str(path) in excinfo.value.path

    def test_garbage_file_raises_typed_error(self, tmp_path):
        from repro.errors import CorruptArchiveError

        path = tmp_path / "junk.npz"
        path.write_bytes(b"this is not a zip archive at all")
        with pytest.raises(CorruptArchiveError):
            load_database(path)

    def test_missing_file_still_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_database(tmp_path / "absent.npz")

    def test_save_database_is_atomic(self, tmp_path):
        db = PassiveDnsDatabase()
        db.add(D1, timestamp=0, count=1)
        path = tmp_path / "store.npz"
        save_database(db, path)
        save_database(db, path)  # overwrite goes through the temp file
        assert list(tmp_path.glob("*.tmp")) == []
        assert load_database(path).total_responses() == 1

    def test_corrupt_checkpoint_manifest_raises_typed_error(self, tmp_path):
        from repro.errors import CorruptArchiveError
        from repro.passivedns.io import load_checkpoint, save_checkpoint

        db = PassiveDnsDatabase()
        db.add(D1, timestamp=0, count=1)
        save_checkpoint(db, tmp_path, cursor=1)
        (tmp_path / "checkpoint.json").write_text("{ torn json")
        with pytest.raises(CorruptArchiveError):
            load_checkpoint(tmp_path)

    def test_checkpoint_fingerprint_mismatch_raises_typed_error(
        self, tmp_path
    ):
        from repro.errors import CorruptArchiveError
        from repro.passivedns.io import load_checkpoint, save_checkpoint

        db = PassiveDnsDatabase()
        db.add(D1, timestamp=0, count=1)
        save_checkpoint(db, tmp_path, cursor=1)
        other = PassiveDnsDatabase()
        other.add(D2, timestamp=0, count=5)
        save_database(other, tmp_path / "checkpoint.npz")
        with pytest.raises(CorruptArchiveError):
            load_checkpoint(tmp_path)


    def test_old_checkpoint_version_is_refused_not_corrupt(self, tmp_path):
        from repro.passivedns.io import (
            CHECKPOINT_VERSION,
            load_checkpoint,
            save_checkpoint,
        )

        db = PassiveDnsDatabase()
        db.add(D1, timestamp=0, count=1)
        save_checkpoint(db, tmp_path, cursor=1)
        manifest_path = tmp_path / "checkpoint.json"
        manifest = json.loads(manifest_path.read_text())
        # An older build's manifest: its version and its (SHA-256)
        # fingerprint both predate this build.
        manifest["version"] = CHECKPOINT_VERSION - 1
        manifest["fingerprint"] = "0" * 64
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ConfigError, match="checkpoint version"):
            load_checkpoint(tmp_path)

    def test_pickled_domain_table_is_refused_unloaded(self, tmp_path):
        import numpy as np

        from repro.errors import CorruptArchiveError
        from repro.passivedns.io import FORMAT_VERSION

        path = tmp_path / "pickled.npz"
        empty = np.asarray([], dtype=np.int64)
        np.savez_compressed(
            path,
            version=np.int64(FORMAT_VERSION),
            domains=np.asarray(["alpha.com"], dtype=object),
            first_seen=empty,
            last_seen=empty,
            totals=empty,
            row_domain=empty,
            row_time=empty,
            row_count=empty,
        )
        with pytest.raises(CorruptArchiveError, match="pickle"):
            load_database(path)


class TestWhoisIo:
    def test_roundtrip(self, tmp_path):
        history = WhoisHistoryDatabase()
        history.append(
            WhoisRecord(
                domain=D1,
                registrar="generic",
                registrant_handle="h-1",
                status="registered",
                created_at=0,
                expires_at=365 * 86_400,
                captured_at=0,
                nameservers=("ns1.alpha.com",),
            )
        )
        path = tmp_path / "whois.jsonl"
        assert save_history(history, path) == 1
        loaded = load_history(path)
        assert loaded.has_history(D1)
        record = loaded.latest(D1)
        assert record.registrar == "generic"
        assert record.nameservers == ("ns1.alpha.com",)

    def test_bad_line_reports_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"domain": "x.com"}\n')
        with pytest.raises(ValueError, match="bad.jsonl:1"):
            load_history(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "sparse.jsonl"
        path.write_text("\n\n")
        assert load_history(path).domain_count() == 0


class TestTraceIo:
    @pytest.fixture(scope="class")
    def trace(self):
        config = TraceConfig(total_domains=600, squat_count=25)
        return NxdomainTraceGenerator(seed=8, config=config).generate()

    def test_roundtrip(self, tmp_path, trace):
        root = save_trace(trace, tmp_path / "trace")
        loaded = load_trace(root)
        assert loaded.nx_db.total_responses() == trace.nx_db.total_responses()
        assert len(loaded.population) == len(trace.population)
        assert loaded.config == trace.config
        assert len(loaded.blocklist) == len(trace.blocklist)
        assert loaded.whois.domain_count() == trace.whois.domain_count()

    def test_ground_truth_survives(self, tmp_path, trace):
        root = save_trace(trace, tmp_path / "trace2")
        loaded = load_trace(root)
        for original, reloaded in zip(trace.population[:50], loaded.population[:50]):
            assert original.domain == reloaded.domain
            assert original.kind == reloaded.kind
            assert original.squat_type == reloaded.squat_type
            assert original.became_nx_at == reloaded.became_nx_at

    def test_analyses_agree_on_reload(self, tmp_path, trace):
        from repro.core.scale import monthly_response_series

        root = save_trace(trace, tmp_path / "trace3")
        loaded = load_trace(root)
        assert (
            monthly_response_series(loaded.nx_db).by_month
            == monthly_response_series(trace.nx_db).by_month
        )

    def test_manifest_mismatch_detected(self, tmp_path, trace):
        root = save_trace(trace, tmp_path / "trace4")
        manifest = json.loads((root / "manifest.json").read_text())
        manifest["domains"] += 1
        (root / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="population count"):
            load_trace(root)

    def test_version_mismatch_detected(self, tmp_path, trace):
        root = save_trace(trace, tmp_path / "trace5")
        manifest = json.loads((root / "manifest.json").read_text())
        manifest["version"] = 42
        (root / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="version"):
            load_trace(root)
