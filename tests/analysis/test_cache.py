"""The incremental results cache and the parallel per-file pass.

Correctness bar: a warm, incremental, or parallel run must produce
byte-identical findings to a cold serial run, for any edit sequence.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import cache as cache_mod
from repro.analysis import AnalysisConfig, Analyzer
from tests.analysis.harness import default_rules


def _write(root, relpath, text):
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


@pytest.fixture
def project(tmp_path):
    """A small on-disk project with one laundered clock violation."""
    _write(
        tmp_path,
        "src/repro/util.py",
        "import time\n\n\n"
        "def _stamp():\n"
        '    """Doc."""\n'
        "    return time.time()  # repro: noqa[REP001] fixture\n",
    )
    _write(
        tmp_path,
        "src/repro/core/flow.py",
        '"""Doc."""\n'
        "from repro.util import _stamp\n\n\n"
        "def run(records):\n"
        '    """Doc."""\n'
        "    return _stamp(), records\n",
    )
    _write(
        tmp_path,
        "src/repro/clean.py",
        '"""Doc."""\n\n\n'
        "def add(a, b):\n"
        '    """Doc."""\n'
        "    return a + b\n",
    )
    return tmp_path


def _run(root, cache=None, jobs=1):
    config = AnalysisConfig()
    analyzer = Analyzer(config, default_rules())
    return analyzer.run(root, [root / "src/repro"], jobs=jobs, cache=cache)


def _signature():
    return cache_mod.ruleset_signature(
        AnalysisConfig(), [r.rule_id for r in default_rules()]
    )


def test_warm_run_hits_cache_and_matches_cold(project):
    cache = cache_mod.AnalysisCache(signature=_signature())
    cold = _run(project, cache=cache)
    assert cache.misses == 3 and cache.hits == 0
    assert any(f.rule_id == "REP101" for f in cold)

    warm = _run(project, cache=cache)
    assert cache.hits == cache.misses == 3
    assert [f.to_json() for f in warm] == [f.to_json() for f in cold]


def test_unchanged_tree_replays_without_building_a_model(
    project, monkeypatch
):
    cache = cache_mod.AnalysisCache(signature=_signature())
    cold = _run(project, cache=cache)

    def _no_model(*args, **kwargs):
        raise AssertionError("a warm run over an unchanged tree built a model")

    monkeypatch.setattr("repro.analysis.engine.ProjectModel", _no_model)
    warm = _run(project, cache=cache)
    assert [f.to_json() for f in warm] == [f.to_json() for f in cold]


def test_content_change_invalidates_only_that_file(project):
    cache = cache_mod.AnalysisCache(signature=_signature())
    _run(project, cache=cache)
    cache.hits = cache.misses = 0

    _write(
        project,
        "src/repro/clean.py",
        '"""Doc."""\n\n\n'
        "def add(a, b):\n"
        '    """Doc."""\n'
        "    return a + b + 0\n",
    )
    findings = _run(project, cache=cache)
    assert cache.misses == 1 and cache.hits == 2
    # the unrelated REP101 finding survives the incremental pass
    assert any(f.rule_id == "REP101" for f in findings)


def test_edit_in_imported_module_clears_importer_finding_warm(project):
    cache = cache_mod.AnalysisCache(signature=_signature())
    before = _run(project, cache=cache)
    assert any(f.rule_id == "REP101" for f in before)

    # remove the sink: the flagged caller lives in a *different* file,
    # which stays byte-identical — the recomputed program pass clears it
    _write(
        project,
        "src/repro/util.py",
        '"""Doc."""\n\n\n'
        "def _stamp():\n"
        '    """Doc."""\n'
        "    return 0\n",
    )
    after = _run(project, cache=cache)
    assert not any(f.rule_id == "REP101" for f in after)


def test_new_violation_in_touched_file_is_found_warm(project):
    cache = cache_mod.AnalysisCache(signature=_signature())
    _run(project, cache=cache)
    _write(
        project,
        "src/repro/clean.py",
        '"""Doc."""\n\n\n'
        "def add(a, b=[]):\n"
        '    """Doc."""\n'
        "    return a + b\n",
    )
    findings = _run(project, cache=cache)
    assert any(
        f.rule_id == "REP006" and f.path == "src/repro/clean.py"
        for f in findings
    )


def test_cache_round_trips_through_disk(project, tmp_path):
    cache = cache_mod.AnalysisCache(signature=_signature())
    cold = _run(project, cache=cache)
    cache_file = tmp_path / "cache.json"
    cache_mod.save_cache(cache_file, cache)

    reloaded = cache_mod.load_cache(cache_file, _signature())
    assert reloaded.program_findings is not None
    warm = _run(project, cache=reloaded)
    assert reloaded.misses == 0
    assert [f.to_json() for f in warm] == [f.to_json() for f in cold]


def test_signature_mismatch_discards_cache(project, tmp_path):
    cache = cache_mod.AnalysisCache(signature=_signature())
    _run(project, cache=cache)
    cache_file = tmp_path / "cache.json"
    cache_mod.save_cache(cache_file, cache)

    other = cache_mod.load_cache(cache_file, "different-signature")
    assert other.files == {} and other.program_findings is None


def test_corrupt_cache_degrades_to_cold_run(project, tmp_path):
    cache_file = tmp_path / "cache.json"
    cache_file.write_text("{not json", encoding="utf-8")
    cache = cache_mod.load_cache(cache_file, _signature())
    assert cache.files == {}
    # and a truncated-but-valid-json payload is equally non-fatal
    cache_file.write_text(
        json.dumps({"signature": _signature(), "files": {"x.py": {}}}),
        encoding="utf-8",
    )
    cache = cache_mod.load_cache(cache_file, _signature())
    assert cache.files == {}


def test_analyzer_version_bump_invalidates_cache(project, tmp_path, monkeypatch):
    # A cache written by analyzer vN must be discarded wholesale by
    # vN+1 — new fact schemas (e.g. the v4 concurrency facts) must
    # never be replayed from summaries that lack them.
    cache = cache_mod.AnalysisCache(signature=_signature())
    _run(project, cache=cache)
    cache_file = tmp_path / "cache.json"
    cache_mod.save_cache(cache_file, cache)

    monkeypatch.setattr(cache_mod, "ANALYZER_VERSION", "3.0.0")
    old_signature = _signature()
    assert old_signature != cache.signature
    stale = cache_mod.load_cache(cache_file, old_signature)
    assert stale.files == {} and stale.program_findings is None


def test_ruleset_signature_covers_concurrency_config():
    base = cache_mod.ruleset_signature(AnalysisConfig(), ["REP301"])

    with_locks = AnalysisConfig()
    with_locks.lock_attributes = ["_lock", "_cache_lock"]
    assert base != cache_mod.ruleset_signature(with_locks, ["REP301"])

    with_roots = AnalysisConfig()
    with_roots.concurrency_roots = ["repro.core"]
    assert base != cache_mod.ruleset_signature(with_roots, ["REP301"])


def test_ruleset_signature_covers_rules_and_severity():
    config = AnalysisConfig()
    base = cache_mod.ruleset_signature(config, ["REP001", "REP002"])
    assert base == cache_mod.ruleset_signature(config, ["REP002", "REP001"])
    assert base != cache_mod.ruleset_signature(config, ["REP001"])

    from repro.analysis.findings import Severity

    overridden = AnalysisConfig()
    overridden.severity_overrides["REP001"] = Severity.WARNING
    assert base != cache_mod.ruleset_signature(overridden, ["REP001", "REP002"])


def test_reference_entries_do_not_satisfy_lint_lookups():
    cache = cache_mod.AnalysisCache(signature="s")
    cache.store("a.py", "hash1", [], None, lint=False)
    assert cache.lookup("a.py", "hash1", lint=True) is None
    assert cache.lookup("a.py", "hash1", lint=False) is not None
    # upgrading to a lint entry satisfies both
    cache.store("a.py", "hash1", [], None, lint=True)
    assert cache.lookup("a.py", "hash1", lint=True) is not None
    assert cache.lookup("a.py", "hash1", lint=False) is not None


def test_deleting_sink_module_clears_importer_findings_warm(project):
    cache = cache_mod.AnalysisCache(signature=_signature())
    before = _run(project, cache=cache)
    assert any(f.rule_id == "REP101" for f in before)

    # delete the module *defining* the clock sink: every surviving
    # file is byte-identical, so nothing is (re)analyzed and only
    # the vanished-file check can stop the cached REP101 from replaying
    (project / "src/repro/util.py").unlink()
    warm = _run(project, cache=cache)
    cold = _run(project)
    assert [f.to_json() for f in warm] == [f.to_json() for f in cold]
    assert not any(f.rule_id == "REP101" for f in warm)


def test_deleting_only_referencer_surfaces_dead_export_warm(tmp_path):
    _write(
        tmp_path,
        "src/repro/api.py",
        '"""Doc."""\n\n'
        '__all__ = ["parse"]\n\n\n'
        "def parse(text):\n"
        '    """Doc."""\n'
        "    return text\n",
    )
    _write(
        tmp_path,
        "src/repro/use.py",
        '"""Doc."""\n'
        "from repro.api import parse\n\n\n"
        "def run(text):\n"
        '    """Doc."""\n'
        "    return parse(text)\n",
    )
    cache = cache_mod.AnalysisCache(signature=_signature())
    before = _run(tmp_path, cache=cache)
    assert not any(f.rule_id == "REP104" for f in before)

    # the deletion introduces a *new* finding in an unchanged file:
    # the export's sole referencer is gone, so REP104 must fire on the
    # warm run exactly as it does on a cold one
    (tmp_path / "src/repro/use.py").unlink()
    warm = _run(tmp_path, cache=cache)
    cold = _run(tmp_path)
    assert [f.to_json() for f in warm] == [f.to_json() for f in cold]
    assert any(f.rule_id == "REP104" for f in warm)


def test_deleting_sole_program_referencer_surfaces_test_only_api_warm(tmp_path):
    _write(
        tmp_path,
        "src/repro/api.py",
        '"""Doc."""\n\n\n'
        "def parse(text):\n"
        '    """Doc."""\n'
        "    return text\n",
    )
    _write(
        tmp_path,
        "src/repro/use.py",
        '"""Doc."""\n'
        "from repro.api import parse\n\n"
        'PARSED = parse("x")\n',
    )
    _write(tmp_path, "tests/test_api.py", "from repro.api import parse\n\nparse('y')\n")
    cache = cache_mod.AnalysisCache(signature=_signature())
    before = _run(tmp_path, cache=cache)
    assert not any(f.rule_id == "REP105" for f in before)

    # the program's only use goes away and the test's use remains:
    # REP105 must fire on the unchanged api.py on the warm run exactly
    # as it does on a cold one
    (tmp_path / "src/repro/use.py").unlink()
    warm = _run(tmp_path, cache=cache)
    cold = _run(tmp_path)
    assert [f.to_json() for f in warm] == [f.to_json() for f in cold]
    hits = [f for f in warm if f.rule_id == "REP105"]
    assert [(f.path, f.line) for f in hits] == [("src/repro/api.py", 4)]
    assert "used only by tests" in hits[0].message


def test_format_4_cache_is_refused(project, tmp_path, monkeypatch):
    # format-4 summaries count a definition's own name as a use, so
    # REP105 must never judge liveness from them
    monkeypatch.setattr(cache_mod, "CACHE_FORMAT_VERSION", 4)
    cache = cache_mod.AnalysisCache(signature=_signature())
    _run(project, cache=cache)
    cache_file = tmp_path / "cache.json"
    cache_mod.save_cache(cache_file, cache)
    monkeypatch.undo()

    assert cache_mod.CACHE_FORMAT_VERSION == 5
    stale = cache_mod.load_cache(cache_file, _signature())
    assert stale.files == {} and stale.program_findings is None


def test_undecodable_sink_module_clears_importer_findings_warm(project):
    cache = cache_mod.AnalysisCache(signature=_signature())
    before = _run(project, cache=cache)
    assert any(f.rule_id == "REP101" for f in before)
    sink = (project / "src/repro/util.py").read_bytes()

    # the sink module stops decoding: it is still scanned (and reported
    # as REP000) but contributes no facts, so the importer's REP101
    # must clear although no file was re-analyzed
    (project / "src/repro/util.py").write_bytes(b"\xff\xfe not utf-8\n")
    warm = _run(project, cache=cache)
    cold = _run(project)
    assert [f.to_json() for f in warm] == [f.to_json() for f in cold]
    assert not any(f.rule_id == "REP101" for f in warm)

    # restoring the original bytes makes every file hit again; the pass
    # that saw the unreadable file must not be replayed
    (project / "src/repro/util.py").write_bytes(sink)
    warm = _run(project, cache=cache)
    cold = _run(project)
    assert [f.to_json() for f in warm] == [f.to_json() for f in cold]
    assert any(f.rule_id == "REP101" for f in warm)


def test_rename_moves_findings_warm(project):
    cache = cache_mod.AnalysisCache(signature=_signature())
    before = _run(project, cache=cache)
    assert any(f.rule_id == "REP101" for f in before)

    # rename = delete + add under a new module name: findings move
    # from the old path to the new one
    flow = project / "src/repro/core/flow.py"
    moved = project / "src/repro/core/pipeline.py"
    moved.write_text(flow.read_text(encoding="utf-8"), encoding="utf-8")
    flow.unlink()
    warm = _run(project, cache=cache)
    cold = _run(project)
    assert [f.to_json() for f in warm] == [f.to_json() for f in cold]
    hits = [f for f in warm if f.rule_id == "REP101"]
    assert hits and all(
        f.path == "src/repro/core/pipeline.py" for f in hits
    )


def test_prune_drops_deleted_files(project):
    cache = cache_mod.AnalysisCache(signature=_signature())
    _run(project, cache=cache)
    assert "src/repro/clean.py" in cache.files
    (project / "src/repro/clean.py").unlink()
    _run(project, cache=cache)
    assert "src/repro/clean.py" not in cache.files


def test_parallel_run_matches_serial(project):
    serial = _run(project)
    parallel = _run(project, jobs=2)
    assert [f.to_json() for f in parallel] == [f.to_json() for f in serial]


def test_parallel_warm_cache_matches(project):
    cache = cache_mod.AnalysisCache(signature=_signature())
    cold = _run(project, cache=cache, jobs=2)
    warm = _run(project, cache=cache, jobs=2)
    assert [f.to_json() for f in warm] == [f.to_json() for f in cold]


def test_concurrent_lint_runs_never_tear_the_cache(project):
    """Two `--jobs 4` lint runs sharing one cache file, in parallel.

    The save is rename-atomic, so a reader polling the file while both
    runs execute must only ever observe a complete, valid JSON payload
    carrying the expected signature — never a half-written document.
    """
    import os
    import subprocess
    import sys
    import time

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    command = [
        sys.executable,
        "-m",
        "repro.analysis",
        "--root",
        str(project),
        "--jobs",
        "4",
        "--no-baseline",
    ]
    cache_file = project / ".repro-analysis-cache.json"
    runs = [
        subprocess.Popen(
            command,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        for _ in range(2)
    ]
    observed = 0
    try:
        while any(proc.poll() is None for proc in runs):
            try:
                data = json.loads(cache_file.read_text(encoding="utf-8"))
            except OSError:
                pass  # not written yet — fine
            else:
                # any readable state must be a complete document
                assert data.get("signature") == _signature()
                assert data.get("tool") == "repro.analysis"
                observed += 1
            time.sleep(0.01)
    finally:
        for proc in runs:
            proc.wait(timeout=120)
    # the project carries one deliberate REP101 violation: both runs
    # must report it (exit 1), proving neither saw a torn cache
    for proc in runs:
        assert proc.returncode == 1, proc.stderr.read().decode()
    final = cache_mod.load_cache(cache_file, _signature())
    assert final.files and final.program_findings is not None
    # a warm in-process run over the survivor matches a cold one
    warm = _run(project, cache=final)
    cold = _run(project)
    assert [f.to_json() for f in warm] == [f.to_json() for f in cold]
    assert final.misses == 0


def test_warm_run_on_unchanged_tree_leaves_cache_file_untouched(project, capsys):
    from repro.analysis.main import main

    argv = ["--root", str(project), "--no-baseline"]
    cache_file = project / ".repro-analysis-cache.json"
    assert main(argv) == 1  # the fixture's deliberate REP101
    cold = cache_file.read_bytes()
    before = cache_file.stat()
    assert main(argv) == 1
    after = cache_file.stat()
    assert cache_file.read_bytes() == cold
    assert (after.st_mtime_ns, after.st_ino) == (before.st_mtime_ns, before.st_ino)
    # an edit still writes the cache back
    _write(project, "src/repro/clean.py", '"""Doc."""\n')
    assert main(argv) == 1
    assert cache_file.read_bytes() != cold
    capsys.readouterr()


def test_program_valid_distinguishes_empty_from_unran(tmp_path):
    # a clean project caches "zero program findings" as a completed
    # pass (an empty list), distinct from "no pass yet" (None)
    _write(
        tmp_path,
        "src/repro/clean.py",
        '"""Doc."""\n\n\n'
        "def add(a, b):\n"
        '    """Doc."""\n'
        "    return a + b\n\n\n"
        "TOTAL = add(1, 2)\n",
    )
    cache = cache_mod.AnalysisCache(signature=_signature())
    assert cache.program_findings is None
    _run(tmp_path, cache=cache)
    assert cache.program_findings == []
    cache_file = tmp_path / "cache.json"
    cache_mod.save_cache(cache_file, cache)
    assert cache_mod.load_cache(cache_file, _signature()).program_findings == []


_SINK = (
    "import time\n\n\n"
    "def _stamp():\n"
    '    """Doc."""\n'
    "    return time.time()  # repro: noqa[REP001] fixture\n"
)
_NO_SINK = (
    '"""Doc."""\n\n\n'
    "def _stamp():\n"
    '    """Doc."""\n'
    "    return 0\n"
)
_EDITS = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "sink",
                "unsink",
                "mutable",
                "delete",
                "rename",
                "garble",
                "restore",
            ]
        ),
        st.integers(min_value=0, max_value=7),
    ),
    min_size=1,
    max_size=5,
)


@settings(max_examples=50, deadline=None)
@given(edits=_EDITS)
def test_warm_findings_equal_cold_after_every_edit(edits):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        _write(root, "src/repro/util.py", _SINK)
        _write(
            root,
            "src/repro/core/flow.py",
            '"""Doc."""\n'
            "from repro.util import _stamp\n\n\n"
            "def run(records):\n"
            '    """Doc."""\n'
            "    return _stamp(), records\n",
        )
        _write(
            root,
            "src/repro/clean.py",
            '"""Doc."""\n\n\n'
            "def add(a, b):\n"
            '    """Doc."""\n'
            "    return a + b\n",
        )
        cache_file = root / "cache.json"
        cache = cache_mod.AnalysisCache(signature=_signature())
        _run(root, cache=cache)
        # path -> bytes it held before it was garbled
        garbled = {}
        # the last step puts every garbled file back: all files hit the
        # cache again, and a pass that saw them garbled must not replay
        for step, (kind, pick) in enumerate(edits + [("restore-all", 0)]):
            modules = sorted((root / "src/repro").rglob("*.py"))
            target = modules[pick % len(modules)] if modules else None
            if kind in ("sink", "unsink"):
                # the module flow.py imports: its REP101 follows the sink
                _write(
                    root,
                    "src/repro/util.py",
                    _SINK if kind == "sink" else _NO_SINK,
                )
            elif kind == "restore":
                # put a garbled file's original bytes back, so every
                # file can hit the cache again
                if not garbled:
                    continue
                path = sorted(garbled)[pick % len(garbled)]
                path.write_bytes(garbled.pop(path))
            elif kind == "restore-all":
                for path, original in garbled.items():
                    path.write_bytes(original)
            elif target is None:
                continue
            elif kind == "garble":
                garbled.setdefault(target, target.read_bytes())
                target.write_bytes(b"\xff\xfe not utf-8\n")
            elif kind == "mutable":
                target.write_bytes(
                    target.read_bytes()
                    + f"\n\ndef grow{step}(items=[]):\n".encode()
                    + b'    """Doc."""\n'
                    + b"    return items\n"
                )
            elif kind == "delete":
                target.unlink()
            else:
                target.rename(target.with_name(f"moved{step}.py"))
            cache_mod.save_cache(cache_file, cache)
            cache = cache_mod.load_cache(cache_file, _signature())
            warm = _run(root, cache=cache)
            cold = _run(root)
            assert [f.to_json() for f in warm] == [f.to_json() for f in cold]
