"""The concurrency-safety rules REP301–REP305.

Each scenario builds a small in-memory project and runs all four
passes through ``tests.analysis.harness.check_project_sources``,
exactly as a real lint run would: per-file summaries carry the lock/resource
facts, the project model resolves spawn reachability, and the REP30x
rules judge the result.
"""

import textwrap

from repro.analysis import AnalysisConfig, Analyzer
from tests.analysis.harness import check_project_sources, default_rules


def _lint(files, roots=(), lock_attributes=None):
    config = AnalysisConfig()
    config.concurrency_roots = list(roots)
    if lock_attributes is not None:
        config.lock_attributes = list(lock_attributes)
    analyzer = Analyzer(config, default_rules())
    return check_project_sources(
        analyzer,
        {path: textwrap.dedent(code) for path, code in files.items()}
    )


def _ids(findings, rule_id):
    return [f for f in findings if f.rule_id == rule_id]


# -- REP301: inconsistent lockset ---------------------------------------

_STORE_HEADER = (
    '"""Doc."""\n'
    "import threading\n\n\n"
    "class Store:\n"
    '    """Doc."""\n\n'
    "    def __init__(self):\n"
    '        """Doc."""\n'
    "        self._lock = threading.Lock()\n"
    "        self._cache = {}\n\n"
)


def test_rep301_flags_unguarded_write_to_guarded_field():
    findings = _lint(
        {
            "src/repro/core/store.py": (
                _STORE_HEADER
                + "    def fill(self, key, value):\n"
                + '        """Doc."""\n'
                + "        with self._lock:\n"
                + "            self._cache[key] = value\n\n"
                + "    def evict(self):\n"
                + '        """Doc."""\n'
                + "        self._cache = {}\n"
            ),
        },
        roots=["repro.core.store"],
    )
    hits = _ids(findings, "REP301")
    assert len(hits) == 1
    assert "evict()" in hits[0].message
    assert "_cache" in hits[0].message
    assert "spawn-reachable" in hits[0].message


def test_rep301_quiet_when_every_write_is_guarded():
    findings = _lint(
        {
            "src/repro/core/store.py": (
                _STORE_HEADER
                + "    def fill(self, key, value):\n"
                + '        """Doc."""\n'
                + "        with self._lock:\n"
                + "            self._cache[key] = value\n\n"
                + "    def evict(self):\n"
                + '        """Doc."""\n'
                + "        with self._lock:\n"
                + "            self._cache = {}\n"
            ),
        },
        roots=["repro.core.store"],
    )
    assert _ids(findings, "REP301") == []


def test_rep301_quiet_without_spawn_reachability():
    # Same inconsistent lockset, but nothing ever runs concurrently:
    # no spawn sites and no concurrency-roots entry.
    findings = _lint({
        "src/repro/core/store.py": (
            _STORE_HEADER
            + "    def fill(self, key, value):\n"
            + '        """Doc."""\n'
            + "        with self._lock:\n"
            + "            self._cache[key] = value\n\n"
            + "    def evict(self):\n"
            + '        """Doc."""\n'
            + "        self._cache = {}\n"
        ),
    })
    assert _ids(findings, "REP301") == []


def test_rep301_exempts_constructors_and_never_guarded_fields():
    findings = _lint(
        {
            "src/repro/core/store.py": (
                _STORE_HEADER
                # _rows is never written under the lock anywhere, so no
                # lockset inconsistency exists; __init__ writes are
                # always pre-publication.
                + "    def add(self, row):\n"
                + '        """Doc."""\n'
                + "        self._rows = [row]\n"
            ),
        },
        roots=["repro.core.store"],
    )
    assert _ids(findings, "REP301") == []


def test_rep301_flags_thread_spawned_global_write():
    findings = _lint({
        "src/repro/core/shard.py": (
            '"""Doc."""\n'
            "import threading\n\n"
            "_LOCK = threading.Lock()\n"
            "_CACHE = {}\n\n\n"
            "def _fill(key, value):\n"
            '    """Doc."""\n'
            "    global _CACHE\n"
            "    with _LOCK:\n"
            "        _CACHE = {key: value}\n\n\n"
            "def _evict():\n"
            '    """Doc."""\n'
            "    global _CACHE\n"
            "    _CACHE = {}\n\n\n"
            "def run():\n"
            '    """Doc."""\n'
            "    worker = threading.Thread(target=_evict)\n"
            "    worker.start()\n"
        ),
    })
    hits = _ids(findings, "REP301")
    assert len(hits) == 1
    assert "_evict()" in hits[0].message
    assert "_CACHE" in hits[0].message


# -- REP302: lock-ordering cycles ---------------------------------------

_TWO_LOCKS = (
    '"""Doc."""\n'
    "import threading\n\n"
    "_A = threading.Lock()\n"
    "_B = threading.Lock()\n\n\n"
)


def test_rep302_flags_opposite_nested_order():
    findings = _lint({
        "src/repro/core/locks.py": (
            _TWO_LOCKS
            + "def push():\n"
            + '    """Doc."""\n'
            + "    with _A:\n"
            + "        with _B:\n"
            + "            pass\n\n\n"
            + "def drain():\n"
            + '    """Doc."""\n'
            + "    with _B:\n"
            + "        with _A:\n"
            + "            pass\n"
        ),
    })
    hits = _ids(findings, "REP302")
    assert len(hits) == 1
    assert "lock ordering cycle" in hits[0].message
    assert "_A -> _B -> _A" in hits[0].message
    # witnesses name both acquisition sites
    assert hits[0].message.count("src/repro/core/locks.py") == 2


def test_rep302_flags_cycle_through_a_call_under_lock():
    findings = _lint({
        "src/repro/core/locks.py": (
            _TWO_LOCKS
            + "def inner():\n"
            + '    """Doc."""\n'
            + "    with _B:\n"
            + "        pass\n\n\n"
            + "def push():\n"
            + '    """Doc."""\n'
            + "    with _A:\n"
            + "        inner()\n\n\n"
            + "def drain():\n"
            + '    """Doc."""\n'
            + "    with _B:\n"
            + "        with _A:\n"
            + "            pass\n"
        ),
    })
    hits = _ids(findings, "REP302")
    assert len(hits) == 1
    assert "_A -> _B -> _A" in hits[0].message


def test_rep302_quiet_for_consistent_order():
    findings = _lint({
        "src/repro/core/locks.py": (
            _TWO_LOCKS
            + "def push():\n"
            + '    """Doc."""\n'
            + "    with _A:\n"
            + "        with _B:\n"
            + "            pass\n\n\n"
            + "def drain():\n"
            + '    """Doc."""\n'
            + "    with _A:\n"
            + "        with _B:\n"
            + "            pass\n"
        ),
    })
    assert _ids(findings, "REP302") == []


# -- REP303: resource lifecycle -----------------------------------------


def test_rep303_flags_happy_path_close():
    findings = _lint({
        "src/repro/core/files.py": (
            '"""Doc."""\n'
            "import zlib\n\n\n"
            "def checksum(path):\n"
            '    """Doc."""\n'
            '    handle = open(path, "rb")\n'
            "    value = zlib.crc32(handle.read())\n"
            "    handle.close()\n"
            "    return value\n"
        ),
    })
    hits = _ids(findings, "REP303")
    assert len(hits) == 1
    assert "closed only on the happy path" in hits[0].message


def test_rep303_flags_never_closed_handle():
    findings = _lint({
        "src/repro/core/files.py": (
            '"""Doc."""\n'
            "import zlib\n\n\n"
            "def leak(path):\n"
            '    """Doc."""\n'
            '    handle = open(path, "rb")\n'
            "    return zlib.crc32(handle.read())\n"
        ),
    })
    hits = _ids(findings, "REP303")
    assert len(hits) == 1
    assert "never closed on any path" in hits[0].message


def test_rep303_accepts_with_finally_and_ownership_transfer():
    findings = _lint({
        "src/repro/core/files.py": (
            '"""Doc."""\n'
            "import zlib\n\n\n"
            "def good_with(path):\n"
            '    """Doc."""\n'
            '    with open(path, "rb") as handle:\n'
            "        return zlib.crc32(handle.read())\n\n\n"
            "def good_finally(path):\n"
            '    """Doc."""\n'
            '    handle = open(path, "rb")\n'
            "    try:\n"
            "        return zlib.crc32(handle.read())\n"
            "    finally:\n"
            "        handle.close()\n\n\n"
            "def good_transfer(path):\n"
            '    """Doc."""\n'
            '    return open(path, "rb")\n'
        ),
    })
    assert _ids(findings, "REP303") == []


def test_rep303_flags_mmap_mode_np_load():
    findings = _lint({
        "src/repro/core/segments.py": (
            '"""Doc."""\n'
            "import numpy as np\n\n\n"
            "def shape_of(path):\n"
            '    """Doc."""\n'
            '    stacked = np.load(path, mmap_mode="r")\n'
            "    return stacked.shape\n"
        ),
    })
    hits = _ids(findings, "REP303")
    assert len(hits) == 1
    assert "np.load" in hits[0].message


def test_rep303_ignores_plain_np_load():
    # Without mmap_mode there is no OS handle to leak after return.
    findings = _lint({
        "src/repro/core/segments.py": (
            '"""Doc."""\n'
            "import numpy as np\n\n\n"
            "def rows(path):\n"
            '    """Doc."""\n'
            "    return np.load(path)\n"
        ),
    })
    assert _ids(findings, "REP303") == []


# -- REP304: blocking call under lock -----------------------------------

_JOURNAL_HEADER = (
    '"""Doc."""\n'
    "import os\n"
    "import threading\n\n\n"
    "class Journal:\n"
    '    """Doc."""\n\n'
    "    def __init__(self, path):\n"
    '        """Doc."""\n'
    "        self._lock = threading.Lock()\n"
    "        self._path = path\n"
    "        self._generation = 0\n\n"
)


def test_rep304_flags_replace_under_lock():
    findings = _lint({
        "src/repro/core/journal.py": (
            _JOURNAL_HEADER
            + "    def commit(self, tmp):\n"
            + '        """Doc."""\n'
            + "        with self._lock:\n"
            + "            os.replace(tmp, self._path)\n"
            + "            self._generation += 1\n"
        ),
    })
    hits = _ids(findings, "REP304")
    assert len(hits) == 1
    assert "os.replace" in hits[0].message
    assert "self._lock" in hits[0].message


def test_rep304_flags_open_under_lock():
    findings = _lint({
        "src/repro/core/journal.py": (
            _JOURNAL_HEADER
            + "    def snapshot(self):\n"
            + '        """Doc."""\n'
            + "        with self._lock:\n"
            + '            with open(self._path, "rb") as handle:\n'
            + "                return handle.read()\n"
        ),
    })
    hits = _ids(findings, "REP304")
    assert len(hits) == 1
    assert "opens a file" in hits[0].message


def test_rep304_flags_blocking_reached_through_project_call():
    findings = _lint({
        "src/repro/core/journal.py": (
            _JOURNAL_HEADER
            + "    def commit(self, tmp):\n"
            + '        """Doc."""\n'
            + "        with self._lock:\n"
            + "            swap(tmp, self._path)\n\n\n"
            + "def swap(tmp, path):\n"
            + '    """Doc."""\n'
            + "    os.replace(tmp, path)\n"
        ),
    })
    hits = _ids(findings, "REP304")
    assert len(hits) == 1
    assert "swap" in hits[0].message


def test_rep304_accepts_io_outside_the_critical_section():
    findings = _lint({
        "src/repro/core/journal.py": (
            _JOURNAL_HEADER
            + "    def commit(self, tmp):\n"
            + '        """Doc."""\n'
            + "        os.replace(tmp, self._path)\n"
            + "        with self._lock:\n"
            + "            self._generation += 1\n"
        ),
    })
    assert _ids(findings, "REP304") == []


def test_rep304_ignores_unrecognized_guards():
    # A with-context that is not a known lock (a file, a suppressor)
    # imposes no blocking-IO discipline on its body.
    findings = _lint({
        "src/repro/core/journal.py": (
            '"""Doc."""\n'
            "import os\n\n\n"
            "def rotate(tmp, path):\n"
            '    """Doc."""\n'
            '    with open(tmp, "rb") as handle:\n'
            "        os.replace(tmp, path)\n"
            "        return handle\n"
        ),
    })
    assert _ids(findings, "REP304") == []


# -- REP305: unsynchronized lazy init -----------------------------------

_LAZY_HEADER = (
    '"""Doc."""\n'
    "import threading\n\n\n"
    "class Store:\n"
    '    """Doc."""\n\n'
    "    def __init__(self):\n"
    '        """Doc."""\n'
    "        self._lock = threading.Lock()\n"
    "        self._index = None\n\n"
)


def test_rep305_flags_unguarded_check_then_fill():
    findings = _lint(
        {
            "src/repro/core/store.py": (
                _LAZY_HEADER
                + "    def index(self):\n"
                + '        """Doc."""\n'
                + "        if self._index is None:\n"
                + "            self._index = object()\n"
                + "        return self._index\n"
            ),
        },
        roots=["repro.core.store"],
    )
    hits = _ids(findings, "REP305")
    assert len(hits) == 1
    assert "index()" in hits[0].message
    assert "_index" in hits[0].message


def test_rep305_accepts_fill_under_lock():
    findings = _lint(
        {
            "src/repro/core/store.py": (
                _LAZY_HEADER
                + "    def index(self):\n"
                + '        """Doc."""\n'
                + "        with self._lock:\n"
                + "            if self._index is None:\n"
                + "                self._index = object()\n"
                + "            return self._index\n"
            ),
        },
        roots=["repro.core.store"],
    )
    assert _ids(findings, "REP305") == []


def test_rep305_quiet_without_spawn_reachability():
    findings = _lint({
        "src/repro/core/store.py": (
            _LAZY_HEADER
            + "    def index(self):\n"
            + '        """Doc."""\n'
            + "        if self._index is None:\n"
            + "            self._index = object()\n"
            + "        return self._index\n"
        ),
    })
    assert _ids(findings, "REP305") == []


def test_rep305_noqa_suppresses_with_justification():
    findings = _lint(
        {
            "src/repro/core/store.py": (
                _LAZY_HEADER
                + "    def index(self):\n"
                + '        """Doc."""\n'
                + "        if self._index is None:  # repro: noqa[REP305]  # built before threads start\n"
                + "            self._index = object()  # repro: noqa[REP301]\n"
                + "        return self._index\n"
            ),
        },
        roots=["repro.core.store"],
    )
    assert _ids(findings, "REP305") == []
    assert _ids(findings, "REP301") == []
