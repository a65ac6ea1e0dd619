"""The flow-sensitive whole-program rules REP101–REP105.

Each scenario builds a small in-memory project and runs both passes
through ``tests.analysis.harness.check_project_sources``, so the tests
exercise the same summary -> model -> rule path as a real lint run.
"""

import textwrap

from repro.analysis import AnalysisConfig, Analyzer
from tests.analysis.harness import check_project_sources, default_rules


def _lint(files):
    analyzer = Analyzer(AnalysisConfig(), default_rules())
    return check_project_sources(
        analyzer,
        {path: textwrap.dedent(code) for path, code in files.items()}
    )


def _ids(findings, rule_id):
    return [f for f in findings if f.rule_id == rule_id]


# -- REP101: clock-purity propagation -----------------------------------


def test_rep101_flags_laundered_wall_clock():
    findings = _lint({
        "src/repro/util.py": (
            "import time\n\n\n"
            "def _stamp():\n"
            '    """Doc."""\n'
            "    return time.time()  # repro: noqa[REP001] test fixture\n"
        ),
        "src/repro/core/flow.py": (
            '"""Doc."""\n'
            "from repro.util import _stamp\n\n\n"
            "def run(records):\n"
            '    """Doc."""\n'
            "    return _stamp(), records\n"
        ),
    })
    hits = _ids(findings, "REP101")
    assert len(hits) == 1
    hit = hits[0]
    assert hit.path == "src/repro/core/flow.py"
    assert "run()" in hit.message
    # the witness chain names every hop to the sink
    assert "_stamp" in hit.message and "time.time" in hit.message


def test_rep101_skips_direct_readers_and_clock_module():
    findings = _lint({
        # a direct reader is REP001's finding, not REP101's
        "src/repro/direct.py": (
            "import time\n\n\n"
            "def now():\n"
            '    """Doc."""\n'
            "    return time.time()  # repro: noqa[REP001] test fixture\n"
        ),
        # flows through repro.clock are the sanctioned path
        "src/repro/core/timed.py": (
            '"""Doc."""\n'
            "from repro.clock import SimClock\n\n\n"
            "def run(clock):\n"
            '    """Doc."""\n'
            "    return clock.now()\n"
        ),
    })
    assert _ids(findings, "REP101") == []


def test_rep101_private_entry_points_not_flagged():
    findings = _lint({
        "src/repro/util.py": (
            "import time\n\n\n"
            "def _stamp():\n"
            '    """Doc."""\n'
            "    return time.time()  # repro: noqa[REP001] test fixture\n"
        ),
        "src/repro/core/flow.py": (
            '"""Doc."""\n'
            "from repro.util import _stamp\n\n\n"
            "def _run(records):\n"
            '    """Doc."""\n'
            "    return _stamp(), records\n"
        ),
    })
    assert _ids(findings, "REP101") == []


# -- REP102: seed provenance --------------------------------------------


def test_rep102_flags_module_global_rng_stash():
    findings = _lint({
        "src/repro/core/streams.py": (
            '"""Doc."""\n'
            "from repro import rand\n\n"
            "RNG = rand.make_rng(7)\n"
        ),
    })
    hits = _ids(findings, "REP102")
    assert any("module-global RNG stash" in f.message for f in hits)


def test_rep102_flags_literal_and_constant_derived_seeds():
    findings = _lint({
        "src/repro/core/streams.py": (
            '"""Doc."""\n'
            "from repro import rand\n\n"
            "SEED = 13\n\n\n"
            "def draw():\n"
            '    """Doc."""\n'
            "    a = rand.make_rng(42)\n"
            "    b = rand.make_rng(SEED)\n"
            "    return a, b\n"
        ),
    })
    messages = [f.message for f in _ids(findings, "REP102")]
    assert any("literal constant" in m for m in messages)
    assert any("module constant 'SEED'" in m for m in messages)


def test_rep102_parameter_threaded_seed_is_clean():
    findings = _lint({
        "src/repro/core/streams.py": (
            '"""Doc."""\n'
            "from repro import rand\n\n\n"
            "def draw(seed):\n"
            '    """Doc."""\n'
            "    return rand.make_rng(seed)\n"
        ),
    })
    assert _ids(findings, "REP102") == []


def test_rep102_factory_children_are_clean():
    findings = _lint({
        "src/repro/core/streams.py": (
            '"""Doc."""\n'
            "from repro.rand import SeedSequenceFactory\n\n\n"
            "def draw(factory):\n"
            '    """Doc."""\n'
            "    return factory.rng('queries')\n"
        ),
    })
    assert _ids(findings, "REP102") == []


# -- REP103: dynamic-import layering ------------------------------------


def test_rep103_flags_dynamic_upward_import():
    findings = _lint({
        "src/repro/dns/loader.py": (
            '"""Doc."""\n'
            "import importlib\n\n\n"
            "def load():\n"
            '    """Doc."""\n'
            "    return importlib.import_module('repro.core.pipeline')\n"
        ),
    })
    hits = _ids(findings, "REP103")
    assert len(hits) == 1
    assert "repro.core.pipeline" in hits[0].message


def test_rep103_flags_forwarded_dynamic_import():
    # the evasion: a helper takes the module name as a parameter
    findings = _lint({
        "src/repro/dns/loader.py": (
            '"""Doc."""\n'
            "import importlib\n\n\n"
            "def _load(name):\n"
            '    """Doc."""\n'
            "    return importlib.import_module(name)\n\n\n"
            "def boot():\n"
            '    """Doc."""\n'
            "    return _load('repro.cli')\n"
        ),
    })
    hits = _ids(findings, "REP103")
    assert any("repro.cli" in f.message for f in hits)


def test_rep103_flags_positional_only_forwarder():
    # regression: posonly params were appended *after* regular ones,
    # so 'name' was not seen as the first positional and the forwarded
    # upward import slipped through
    findings = _lint({
        "src/repro/dns/loader.py": (
            '"""Doc."""\n'
            "import importlib\n\n\n"
            "def _load(name, /, pkg=None):\n"
            '    """Doc."""\n'
            "    return importlib.import_module(name)\n\n\n"
            "def boot():\n"
            '    """Doc."""\n'
            "    return _load('repro.cli')\n"
        ),
    })
    hits = _ids(findings, "REP103")
    assert any("repro.cli" in f.message for f in hits)


def test_rep103_second_positional_flow_is_not_a_forwarder():
    # regression: with posonly misordered, 'name' (truly the *second*
    # positional) looked first, so boot's literal — which binds to
    # 'pkg', not 'name' — was misread as the import target
    findings = _lint({
        "src/repro/dns/loader.py": (
            '"""Doc."""\n'
            "import importlib\n\n\n"
            "def _load(pkg, /, name):\n"
            '    """Doc."""\n'
            "    return importlib.import_module(name)  # repro: noqa[REP103] fixture\n\n\n"
            "def boot():\n"
            '    """Doc."""\n'
            "    return _load('repro.core.study', 'x')\n"
        ),
    })
    assert _ids(findings, "REP103") == []


def test_rep103_flags_unverifiable_target():
    findings = _lint({
        "src/repro/dns/loader.py": (
            '"""Doc."""\n'
            "import importlib\n\n\n"
            "def load(name):\n"
            '    """Doc."""\n'
            "    return importlib.import_module(name)\n"
        ),
    })
    hits = _ids(findings, "REP103")
    assert any("cannot be verified statically" in f.message for f in hits)


def test_rep103_downward_dynamic_import_is_clean():
    findings = _lint({
        "src/repro/core/loader.py": (
            '"""Doc."""\n'
            "import importlib\n\n\n"
            "def load():\n"
            '    """Doc."""\n'
            "    return importlib.import_module('repro.dns.cache')\n"
        ),
    })
    assert _ids(findings, "REP103") == []


# -- REP104: dead public API --------------------------------------------


def test_rep104_flags_unreferenced_export():
    findings = _lint({
        "src/repro/pkg/__init__.py": (
            '"""Doc."""\n'
            '__all__ = ["used", "dead"]\n\n\n'
            "def used() -> int:\n"
            "    return 1\n\n\n"
            "def dead() -> int:\n"
            "    return 2\n"
        ),
        "tests/test_pkg.py": (
            "from repro.pkg import used\n\n"
            "used()\n"
        ),
    })
    hits = _ids(findings, "REP104")
    assert len(hits) == 1
    assert "'dead'" in hits[0].message
    assert hits[0].severity.value == "warning"


def test_rep104_reexport_alone_does_not_count_as_use():
    # pkg/__init__ re-exporting a name is plumbing, not a consumer
    findings = _lint({
        "src/repro/pkg/__init__.py": (
            '"""Doc."""\n'
            "from repro.pkg.impl import thing\n\n"
            '__all__ = ["thing"]\n'
        ),
        "src/repro/pkg/impl.py": (
            '"""Doc."""\n\n\n'
            "def thing() -> int:\n"
            "    return 1\n"
        ),
    })
    hits = _ids(findings, "REP104")
    assert len(hits) == 1
    assert "'thing'" in hits[0].message


def test_rep104_noqa_on_all_line_suppresses():
    findings = _lint({
        "src/repro/pkg/__init__.py": (
            '"""Doc."""\n'
            '__all__ = ["dead"]  # repro: noqa[REP104] annotation type\n\n\n'
            "def dead() -> int:\n"
            "    return 1\n"
        ),
    })
    assert _ids(findings, "REP104") == []


def test_program_findings_report_once_per_location():
    # running the same project twice yields identical findings
    files = {
        "src/repro/pkg/__init__.py": (
            '"""Doc."""\n'
            '__all__ = ["dead"]\n\n\n'
            "def dead() -> int:\n"
            "    return 1\n"
        ),
    }
    first = [f.to_json() for f in _lint(files)]
    second = [f.to_json() for f in _lint(files)]
    assert first == second


# -- REP105: public API only tests reach -----------------------------------


def _rep105(files):
    return {
        (f.path, f.line): f.message for f in _ids(_lint(files), "REP105")
    }


def test_rep105_flags_definitions_only_tests_use():
    hits = _rep105({
        "src/repro/api.py": (
            "def helper():\n"          # 1
            "    return 1\n\n\n"
            "def orphan():\n"          # 5
            "    return 2\n\n\n"
            "class Gadget:\n"          # 9
            "    pass\n\n\n"
            "class Thing:\n"           # 13
            "    def run(self):\n"     # 14
            "        return 3\n\n"
            "    @property\n"
            "    def size(self):\n"    # 18
            "        return 4\n"
        ),
        "src/repro/use.py": "from repro.api import Thing\n\nTHING = Thing()\n",
        "tests/test_api.py": (
            "from repro.api import Gadget, Thing, helper\n\n"
            "helper(), Gadget(), Thing().run(), Thing().size\n"
        ),
    })
    assert sorted(hits) == [
        ("src/repro/api.py", 1),
        ("src/repro/api.py", 5),
        ("src/repro/api.py", 9),
        ("src/repro/api.py", 14),
        ("src/repro/api.py", 18),
    ]
    assert "function 'helper'" in hits["src/repro/api.py", 1]
    assert "used only by tests" in hits["src/repro/api.py", 1]
    assert "never used" in hits["src/repro/api.py", 5]
    assert "class 'Gadget'" in hits["src/repro/api.py", 9]
    assert "method 'Thing.run'" in hits["src/repro/api.py", 14]
    assert "property 'Thing.size'" in hits["src/repro/api.py", 18]


def test_rep105_reexport_alone_does_not_count_as_use():
    hits = _rep105({
        "src/repro/pkg/__init__.py": (
            "from repro.pkg.impl import thing\n\n"
            '__all__ = ["thing"]\n'
        ),
        "src/repro/pkg/impl.py": "def thing():\n    return 1\n",
        "tests/test_pkg.py": "from repro.pkg import thing\n\nthing()\n",
    })
    assert list(hits) == [("src/repro/pkg/impl.py", 1)]


def test_rep105_program_uses_keep_definitions_live():
    hits = _rep105({
        "src/repro/api.py": (
            "def from_src():\n    return 1\n\n\n"
            "def from_example():\n    return 2\n\n\n"
            "def from_perfbench():\n    return 3\n\n\n"
            "def by_name():\n    return 4\n\n\n"
            "def in_module():\n    return 5\n\n\n"
            "RESULT = in_module()\n"
        ),
        "src/repro/use.py": "from repro.api import from_src\n\nfrom_src()\n",
        "examples/demo.py": "from repro.api import from_example\n\nfrom_example()\n",
        "perfbench/layers.py": (
            "from repro import api\n\n"
            'TABLE = ("from_perfbench",)\n'
            'HOOK = getattr(api, "by_name")\n'
        ),
    })
    assert hits == {}


def test_rep105_exempts_dunders_visitors_and_registered_classes():
    hits = _rep105({
        "src/repro/walk.py": (
            "import ast\n\n"
            "from repro.registry import register\n\n\n"
            "class Walker(ast.NodeVisitor):\n"
            "    def __init__(self):\n"
            "        self.seen = 0\n\n"
            "    def visit_Name(self, node):\n"
            "        self.seen += 1\n\n\n"
            "@register\n"
            "class Plugin:\n"
            "    pass\n\n\n"
            "WALKER = Walker()\n"
        ),
        "src/repro/registry.py": (
            "PLUGINS = []\n\n\n"
            "def register(cls):\n"
            "    PLUGINS.append(cls)\n"
            "    return cls\n\n\n"
            "register(object)\n"
        ),
    })
    assert hits == {}


def test_rep105_noqa_suppresses():
    hits = _rep105({
        "src/repro/api.py": (
            "def edge():  # repro: noqa[REP105] deliberate API edge\n"
            "    return 1\n"
        ),
        "tests/test_api.py": "from repro.api import edge\n\nedge()\n",
    })
    assert hits == {}
