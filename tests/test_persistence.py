"""Tests for checkpoint / WHOIS / trace persistence."""

import json
import shutil

import pytest

from repro.dns.name import DomainName
from repro.errors import ConfigError, CorruptArchiveError, WorkloadError
from repro.passivedns.database import PassiveDnsDatabase
from repro.passivedns.io import (
    CHECKPOINT_VERSION,
    _checkpoint_payload,
    load_checkpoint,
)
from repro.whois.history import WhoisHistoryDatabase
from repro.whois.io import load_history, save_history
from repro.whois.record import WhoisRecord
from repro.workloads.persistence import load_trace, save_trace
from repro.workloads.trace import NxdomainTraceGenerator, TraceConfig

D1 = DomainName("alpha.com")
D2 = DomainName("beta.net")




@pytest.fixture(scope="module")
def trace():
    config = TraceConfig(total_domains=600, squat_count=25)
    return NxdomainTraceGenerator(seed=8, config=config).generate()


def _listing(root):
    """Every file under ``root`` with its size and mtime."""
    return {
        path: (path.stat().st_size, path.stat().st_mtime_ns)
        for path in sorted(root.rglob("*"))
    }


def _commit_checkpoint(root, **overrides):
    """A spill store whose committed checkpoint payload is overridden."""
    db = PassiveDnsDatabase(spill_dir=root)
    db.add_rows(D1, [0], [1])
    payload = _checkpoint_payload(db, 1, None, None)
    payload.update(overrides)
    db.spill_commit({"checkpoint": payload})


class TestCorruptArchives:
    """Damaged persistence artifacts surface as typed errors."""

    def test_garbage_file_raises_typed_error(self, tmp_path, trace):
        root = save_trace(trace, tmp_path / "trace")
        shutil.rmtree(root / "pre_expiry")
        (root / "pre_expiry").write_bytes(b"this is not a spill directory")
        with pytest.raises(CorruptArchiveError) as excinfo:
            load_trace(root)
        assert excinfo.value.path == str(root / "pre_expiry")

    def test_missing_file_still_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_trace(tmp_path / "absent")

    def test_checkpoint_fingerprint_mismatch_raises_typed_error(
        self, tmp_path
    ):
        _commit_checkpoint(tmp_path, fingerprint="0" * 32)
        with pytest.raises(CorruptArchiveError, match="fingerprint"):
            load_checkpoint(PassiveDnsDatabase(spill_dir=tmp_path))

    def test_old_checkpoint_version_is_refused_not_corrupt(self, tmp_path):
        # An older build's payload: its version and its (SHA-256)
        # fingerprint both predate this build.
        _commit_checkpoint(
            tmp_path, version=CHECKPOINT_VERSION - 1, fingerprint="0" * 64
        )
        with pytest.raises(ConfigError, match="checkpoint version"):
            load_checkpoint(PassiveDnsDatabase(spill_dir=tmp_path))


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

    def test_roundtrip_keeps_store_identity(self, tmp_path, trace):
        loaded = load_trace(save_trace(trace, tmp_path / "trace6"))
        for field in ("nx_db", "pre_expiry_db"):
            original, reloaded = getattr(trace, field), getattr(loaded, field)
            assert reloaded.fingerprint() == original.fingerprint()
            assert reloaded.all_domains() == original.all_domains()

    def test_stores_are_spill_directories_opened_read_only(
        self, tmp_path, trace
    ):
        root = save_trace(trace, tmp_path / "trace7")
        assert not list(root.glob("*.npz"))
        before = _listing(root)
        loaded = load_trace(root)
        assert loaded.nx_db.spill.read_only
        with pytest.raises(ConfigError):
            loaded.nx_db.spill_commit()
        assert _listing(root) == before

    def test_truncated_segment_fails_load_naming_the_path(
        self, tmp_path, trace
    ):
        root = save_trace(trace, tmp_path / "trace8")
        victim = sorted((root / "nx" / "segments").glob("seg-*.npy"))[0]
        victim.write_bytes(victim.read_bytes()[: victim.stat().st_size // 2])
        with pytest.raises(CorruptArchiveError) as excinfo:
            load_trace(root)
        assert excinfo.value.path == str(root / "nx")
        assert f"segments/{victim.name}" in excinfo.value.detail

    def test_flipped_sidecar_byte_fails_load(self, tmp_path, trace):
        root = save_trace(trace, tmp_path / "trace9")
        (victim,) = (root / "pre_expiry").glob("domains-*.bin")
        raw = bytearray(victim.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        victim.write_bytes(bytes(raw))
        with pytest.raises(CorruptArchiveError) as excinfo:
            load_trace(root)
        assert excinfo.value.path == str(root / "pre_expiry")
        assert victim.name in excinfo.value.detail

    def test_save_into_existing_archive_writes_nothing(self, tmp_path, trace):
        root = save_trace(trace, tmp_path / "trace10")
        before = _listing(root)
        with pytest.raises(WorkloadError, match="already holds"):
            save_trace(trace, root)
        assert _listing(root) == before
        # A store left behind without its manifest is refused too.
        partial = tmp_path / "partial"
        PassiveDnsDatabase(spill_dir=partial / "nx").spill_commit()
        with pytest.raises(WorkloadError, match="already holds"):
            save_trace(trace, partial)
        assert not (partial / "pre_expiry").exists()

    def test_version_one_manifest_is_refused(self, tmp_path, trace):
        root = save_trace(trace, tmp_path / "trace11")
        manifest = json.loads((root / "manifest.json").read_text())
        manifest["version"] = 1
        (root / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ConfigError, match="version 1"):
            load_trace(root)
