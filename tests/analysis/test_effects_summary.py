"""Effect summaries: JSON round-trip and cache-version invalidation.

The incremental cache replays :class:`ModuleSummary` objects from
disk, so the effect facts REP201–REP204 consume must survive
``to_json``/``from_json`` bit-for-bit — and a cache written by an
older analyzer (whose summaries lack effect facts) must be discarded,
never replayed.
"""

import textwrap

import pytest

from repro.analysis import cache as cache_mod
from repro.analysis import AnalysisConfig, Analyzer, default_rules
from repro.analysis.project import ModuleSummary

_EFFECTFUL_SOURCE = '''
"""Doc."""

import os
import threading

_SHARED = {}


def save(path, data):
    """Doc."""
    tmp = str(path) + ".tmp"
    with open(tmp, "wb") as handle:
        handle.write(data)
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def ingest(batch):
    """Doc."""
    try:
        _SHARED.update(batch)
    except Exception:
        raise


def spawn(item):
    """Doc."""
    worker = threading.Thread(target=ingest, args=(item,))
    worker.start()


class Store:
    """Doc."""

    def __init__(self):
        """Doc."""
        self._rows = []
        self._generation = 0

    def append(self, row):
        """Doc."""
        self._rows.append(row)
        self._generation += 1
'''


def _summarize(source, relpath="src/repro/core/fx.py"):
    analyzer = Analyzer(AnalysisConfig(), default_rules())
    _, payload = analyzer.check_source_and_summary(
        textwrap.dedent(source), relpath, want_summary=True
    )
    return ModuleSummary.from_json(payload)


def test_effect_summary_survives_json_round_trip():
    summary = _summarize(_EFFECTFUL_SOURCE)
    restored = ModuleSummary.from_json(summary.to_json())
    assert restored.to_json() == summary.to_json()
    # the facts the REP20x rules consume are all present
    save = restored.effects["repro.core.fx.save"]
    assert save.fsyncs and save.replaces
    assert any(site.mode == "wb" for site in save.writes)
    ingest = restored.effects["repro.core.fx.ingest"]
    assert any(site.reraises for site in ingest.excepts)
    assert any(
        site.target == "_SHARED" for site in ingest.name_mutations
    )
    spawn = restored.effects["repro.core.fx.spawn"]
    assert any(site.kind == "thread" for site in spawn.spawns)
    append = restored.effects["repro.core.fx.Store.append"]
    assert any(
        site.target == "_generation" and site.kind == "assign"
        for site in append.attr_mutations
    )
    assert restored.classes["repro.core.fx.Store"] == []
    assert "_SHARED" in restored.mutable_globals


def test_empty_effects_are_omitted_from_json():
    summary = _summarize(
        '"""Doc."""\n\n\ndef add(a, b):\n    """Doc."""\n    return a + b\n'
    )
    payload = summary.to_json()
    assert payload.get("effects", {}) == {}


def _write(root, relpath, text):
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


@pytest.fixture
def project(tmp_path):
    _write(
        tmp_path,
        "src/repro/saver.py",
        '"""Doc."""\n\n\n'
        "def save(path, text):\n"
        '    """Doc."""\n'
        '    with open(path, "w") as handle:\n'
        "        handle.write(text)\n",
    )
    return tmp_path


def _run(root, cache):
    analyzer = Analyzer(AnalysisConfig(), default_rules())
    return analyzer.run(root, [root / "src/repro"], cache=cache)


def test_stale_analyzer_version_cache_is_discarded(project, monkeypatch):
    """A cache written under an older ANALYZER_VERSION must cold-start.

    Pre-3.0.0 caches carry summaries without effect facts; replaying
    one would silently disable the whole REP20x pass for warm runs.
    """
    rule_ids = [r.rule_id for r in default_rules()]
    cache_file = project / ".repro-analysis-cache.json"

    monkeypatch.setattr(cache_mod, "ANALYZER_VERSION", "2.0.1")
    old_signature = cache_mod.ruleset_signature(AnalysisConfig(), rule_ids)
    monkeypatch.undo()

    new_signature = cache_mod.ruleset_signature(AnalysisConfig(), rule_ids)
    assert old_signature != new_signature

    # Populate and persist a cache under the old version's signature.
    old_cache = cache_mod.AnalysisCache(signature=old_signature)
    findings = _run(project, old_cache)
    assert any(f.rule_id == "REP201" for f in findings)
    cache_mod.save_cache(cache_file, old_cache)

    # A current-version load rejects it wholesale: every file misses.
    reloaded = cache_mod.load_cache(cache_file, new_signature)
    assert reloaded.files == {} and reloaded.program_findings is None
    warm = _run(project, reloaded)
    assert reloaded.misses == 1 and reloaded.hits == 0
    assert [f.to_json() for f in warm] == [f.to_json() for f in findings]

    # Sanity: the same bytes under the matching signature do replay.
    replay = cache_mod.load_cache(cache_file, old_signature)
    assert set(replay.files) == {"src/repro/saver.py"}
