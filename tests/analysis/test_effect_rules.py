"""The effect-flow rules REP201–REP204.

Each scenario builds a small in-memory project and runs all three
passes through ``tests.analysis.harness.check_project_sources``,
exactly as a real lint run would: per-file summaries carry the effect facts, the
project model resolves reachability and class hierarchies, and the
REP20x rules judge the result.
"""

import textwrap

from repro.analysis import AnalysisConfig, Analyzer
from tests.analysis.harness import check_project_sources, default_rules


def _lint(files, config=None):
    analyzer = Analyzer(config or AnalysisConfig(), default_rules())
    return check_project_sources(
        analyzer,
        {path: textwrap.dedent(code) for path, code in files.items()}
    )


def _ids(findings, rule_id):
    return [f for f in findings if f.rule_id == rule_id]


# -- REP201: atomic-write discipline ------------------------------------


def test_rep201_flags_raw_open_write():
    findings = _lint({
        "src/repro/core/saver.py": (
            '"""Doc."""\n'
            "import json\n\n\n"
            "def save(path, payload):\n"
            '    """Doc."""\n'
            '    with open(path, "w") as handle:\n'
            "        handle.write(json.dumps(payload))\n"
        ),
    })
    hits = _ids(findings, "REP201")
    assert len(hits) == 1
    assert hits[0].path == "src/repro/core/saver.py"
    assert "save()" in hits[0].message
    assert "atomic" in hits[0].message


def test_rep201_flags_write_text_and_computed_receiver():
    findings = _lint({
        "src/repro/core/saver.py": (
            '"""Doc."""\n'
            "from pathlib import Path\n\n\n"
            "def save(root, text):\n"
            '    """Doc."""\n'
            '    (root / "out.json").write_text(text)\n'
        ),
    })
    hits = _ids(findings, "REP201")
    assert len(hits) == 1
    assert "write_text" in hits[0].message


def test_rep201_exempts_in_function_atomic_dance():
    findings = _lint({
        "src/repro/core/saver.py": (
            '"""Doc."""\n'
            "import os\n\n\n"
            "def save(path, data):\n"
            '    """Doc."""\n'
            '    tmp = str(path) + ".tmp"\n'
            '    with open(tmp, "wb") as handle:\n'
            "        handle.write(data)\n"
            "        os.fsync(handle.fileno())\n"
            "    os.replace(tmp, path)\n"
        ),
    })
    assert _ids(findings, "REP201") == []


def test_rep201_exempts_sanctioned_modules():
    findings = _lint({
        "src/repro/passivedns/spill.py": (
            '"""Doc."""\n\n\n'
            "def atomic_write_bytes(path, data):\n"
            '    """Doc."""\n'
            '    with open(path, "wb") as handle:\n'
            "        handle.write(data)\n"
        ),
    })
    assert _ids(findings, "REP201") == []


def test_rep201_ignores_memory_buffers_and_reads():
    findings = _lint({
        "src/repro/core/saver.py": (
            '"""Doc."""\n'
            "import io\n\n\n"
            "def render(path):\n"
            '    """Doc."""\n'
            "    buf = io.BytesIO()\n"
            '    buf.write(b"x")\n'
            '    with open(path, "r") as handle:\n'
            "        return handle.read(), buf.getvalue()\n"
        ),
    })
    assert _ids(findings, "REP201") == []


def test_rep201_respects_custom_sanction_config():
    config = AnalysisConfig()
    config.atomic_io_modules = ["repro.core.saver"]
    findings = _lint(
        {
            "src/repro/core/saver.py": (
                '"""Doc."""\n\n\n'
                "def save(path, text):\n"
                '    """Doc."""\n'
                '    with open(path, "w") as handle:\n'
                "        handle.write(text)\n"
            ),
        },
        config=config,
    )
    assert _ids(findings, "REP201") == []


# -- REP202: crash-signal swallowing ------------------------------------

_ERRORS_MODULE = (
    '"""Doc."""\n\n\n'
    "class ReproError(Exception):\n"
    '    """Doc."""\n\n\n'
    "class InjectedCrashError(ReproError):\n"
    '    """Doc."""\n\n\n'
    "class TransientError(ReproError):\n"
    '    """Doc."""\n'
)


def test_rep202_flags_broad_except_on_resilient_path():
    findings = _lint({
        "src/repro/errors.py": _ERRORS_MODULE,
        "src/repro/resilience/retry.py": (
            '"""Doc."""\n'
            "from repro.core.ingest import store_batch\n\n\n"
            "def retry(batch):\n"
            '    """Doc."""\n'
            "    return store_batch(batch)\n"
        ),
        "src/repro/core/ingest.py": (
            '"""Doc."""\n\n\n'
            "def store_batch(batch):\n"
            '    """Doc."""\n'
            "    try:\n"
            "        return len(batch)\n"
            "    except Exception:\n"
            "        return 0\n"
        ),
    })
    hits = _ids(findings, "REP202")
    assert len(hits) == 1
    assert hits[0].path == "src/repro/core/ingest.py"
    assert "can swallow crash signal" in hits[0].message
    # the witness chain names the resilient root
    assert "retry" in hits[0].message


def test_rep202_skips_reraising_and_narrow_handlers():
    findings = _lint({
        "src/repro/errors.py": _ERRORS_MODULE,
        "src/repro/resilience/retry.py": (
            '"""Doc."""\n'
            "from repro.errors import TransientError\n\n\n"
            "def retry(batch):\n"
            '    """Doc."""\n'
            "    try:\n"
            "        return len(batch)\n"
            "    except TransientError:\n"
            "        return 0\n"
            "    except Exception:\n"
            "        raise\n"
        ),
    })
    assert _ids(findings, "REP202") == []


def test_rep202_ignores_unreachable_handlers():
    findings = _lint({
        "src/repro/errors.py": _ERRORS_MODULE,
        "src/repro/core/report.py": (
            '"""Doc."""\n\n\n'
            "def render(rows):\n"
            '    """Doc."""\n'
            "    try:\n"
            "        return list(rows)\n"
            "    except Exception:\n"
            "        return []\n"
        ),
    })
    assert _ids(findings, "REP202") == []


# -- REP203: worker shared-state mutation -------------------------------


def test_rep203_flags_global_dict_mutation_in_pool_worker():
    findings = _lint({
        "src/repro/core/shard.py": (
            '"""Doc."""\n'
            "from concurrent.futures import ProcessPoolExecutor\n\n"
            "_RESULTS = {}\n\n\n"
            "def _shard(item):\n"
            '    """Doc."""\n'
            "    _RESULTS[item] = item * 2\n"
            "    return item\n\n\n"
            "def run(items):\n"
            '    """Doc."""\n'
            "    with ProcessPoolExecutor() as pool:\n"
            "        return list(pool.map(_shard, items))\n"
        ),
    })
    hits = _ids(findings, "REP203")
    assert len(hits) == 1
    assert "_RESULTS" in hits[0].message
    assert "_shard" in hits[0].message


def test_rep203_flags_thread_target_closure():
    findings = _lint({
        "src/repro/core/shard.py": (
            '"""Doc."""\n'
            "import threading\n\n"
            "_SEEN = set()\n\n\n"
            "def _collect(item):\n"
            '    """Doc."""\n'
            "    _SEEN.add(item)\n\n\n"
            "def run(item):\n"
            '    """Doc."""\n'
            "    worker = threading.Thread(target=_collect, args=(item,))\n"
            "    worker.start()\n"
        ),
    })
    hits = _ids(findings, "REP203")
    assert len(hits) == 1
    assert "_SEEN" in hits[0].message


def test_rep203_allows_local_accumulators_and_unspawned_mutators():
    findings = _lint({
        "src/repro/core/shard.py": (
            '"""Doc."""\n'
            "from concurrent.futures import ProcessPoolExecutor\n\n"
            "_REGISTRY = {}\n\n\n"
            "def _shard(item):\n"
            '    """Doc."""\n'
            "    out = {}\n"
            "    out[item] = item * 2\n"
            "    return out\n\n\n"
            "def register(name, value):\n"
            '    """Doc."""\n'
            "    _REGISTRY[name] = value\n\n\n"
            "def run(items):\n"
            '    """Doc."""\n'
            "    with ProcessPoolExecutor() as pool:\n"
            "        return list(pool.map(_shard, items))\n"
        ),
    })
    assert _ids(findings, "REP203") == []


# -- REP204: cache-generation hygiene -----------------------------------

_GENERATION_CLASS_HEADER = (
    '"""Doc."""\n\n\n'
    "class Store:\n"
    '    """Doc."""\n\n'
    "    def __init__(self):\n"
    '        """Doc."""\n'
    "        self._rows = []\n"
    "        self._generation = 0\n"
    "        self._agg_cache = {}\n\n"
    "    def _touch(self):\n"
    '        """Doc."""\n'
    "        self._generation += 1\n\n"
)


def test_rep204_flags_generationless_mutation():
    findings = _lint({
        "src/repro/core/store.py": (
            _GENERATION_CLASS_HEADER
            + "    def ingest(self, row):\n"
            + '        """Doc."""\n'
            + "        self._rows.append(row)\n"
        ),
    })
    hits = _ids(findings, "REP204")
    assert len(hits) == 1
    assert "ingest()" in hits[0].message
    assert "_rows" in hits[0].message


def test_rep204_accepts_bump_in_same_method_or_callee():
    findings = _lint({
        "src/repro/core/store.py": (
            _GENERATION_CLASS_HEADER
            + "    def ingest(self, row):\n"
            + '        """Doc."""\n'
            + "        self._rows.append(row)\n"
            + "        self._touch()\n\n"
            + "    def ingest_direct(self, row):\n"
            + '        """Doc."""\n'
            + "        self._rows.append(row)\n"
            + "        self._generation += 1\n"
        ),
    })
    assert _ids(findings, "REP204") == []


def test_rep204_exempts_constructors_and_cache_fields():
    findings = _lint({
        "src/repro/core/store.py": (
            _GENERATION_CLASS_HEADER
            + "    def warm(self, key, value):\n"
            + '        """Doc."""\n'
            + "        self._agg_cache[key] = value\n"
        ),
    })
    assert _ids(findings, "REP204") == []


def test_rep204_ignores_untracked_classes():
    findings = _lint({
        "src/repro/core/bag.py": (
            '"""Doc."""\n\n\n'
            "class Bag:\n"
            '    """Doc."""\n\n'
            "    def __init__(self):\n"
            '        """Doc."""\n'
            "        self._items = []\n\n"
            "    def add(self, item):\n"
            '        """Doc."""\n'
            "        self._items.append(item)\n"
        ),
    })
    assert _ids(findings, "REP204") == []


def test_rep204_noqa_suppresses_with_justification():
    findings = _lint({
        "src/repro/core/store.py": (
            _GENERATION_CLASS_HEADER
            + "    def reseat(self, rows):\n"
            + '        """Doc."""\n'
            + "        self._rows = rows  # repro: noqa[REP204] content-preserving\n"
        ),
    })
    assert _ids(findings, "REP204") == []
