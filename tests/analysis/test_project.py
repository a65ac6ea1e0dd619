"""The whole-program project model: name resolution, call graph and
taint propagation.

The edge cases here (cyclic imports, ``from x import *``, re-exports
through ``__init__``, decorated and nested functions) are exactly the
shapes that made per-file analysis blind; each gets a regression test
against the model builder.
"""

import textwrap

from repro.analysis.project import (
    MODULE_SCOPE,
    ModuleSummary,
    ProjectModel,
    model_from_sources,
)


def _model(files):
    """Build a model from ``{relpath: code}`` sources."""
    return model_from_sources(
        {path: textwrap.dedent(code) for path, code in files.items()}
    )


def test_function_params_keep_declaration_order():
    model = _model({
        "src/repro/a.py": (
            "def load(name, /, pkg, *args, flag=False, **extra):\n"
            "    pass\n"
        ),
    })
    info = model.modules["repro.a"].functions["repro.a.load"]
    # positional-only first, then regular — true call-site order
    assert info.params == ["name", "pkg"]
    # keyword-only params can never receive a positional argument
    assert info.kwonly == ["flag"]


def test_resolve_plain_import_alias():
    model = _model({
        "src/repro/a.py": "import repro.b as bee\n\ndef f():\n    bee.g()\n",
        "src/repro/b.py": "def g():\n    pass\n",
    })
    assert model.resolve("repro.a", "bee.g") == "repro.b.g"


def test_resolve_from_import():
    model = _model({
        "src/repro/a.py": "from repro.b import g\n\ndef f():\n    g()\n",
        "src/repro/b.py": "def g():\n    pass\n",
    })
    assert model.resolve("repro.a", "g") == "repro.b.g"


def test_resolve_relative_import():
    model = _model({
        "src/repro/pkg/__init__.py": "",
        "src/repro/pkg/a.py": "from . import b\n\ndef f():\n    b.g()\n",
        "src/repro/pkg/b.py": "def g():\n    pass\n",
    })
    assert model.resolve("repro.pkg.a", "b.g") == "repro.pkg.b.g"


def test_resolve_star_import():
    model = _model({
        "src/repro/a.py": "from repro.b import *\n\ndef f():\n    g()\n",
        "src/repro/b.py": "def g():\n    pass\n\ndef _hidden():\n    pass\n",
    })
    assert model.resolve("repro.a", "g") == "repro.b.g"
    # underscore names are not star-visible
    assert model.resolve("repro.a", "_hidden") is None


def test_resolve_star_import_respects_all():
    model = _model({
        "src/repro/a.py": "from repro.b import *\n\nexported()\nunlisted()\n",
        "src/repro/b.py": (
            '__all__ = ["exported"]\n\n'
            "def exported():\n    pass\n\n"
            "def unlisted():\n    pass\n"
        ),
    })
    assert model.resolve("repro.a", "exported") == "repro.b.exported"
    assert model.resolve("repro.a", "unlisted") is None


def test_resolve_reexport_through_init():
    # consumer imports from the package; the definition lives deeper
    model = _model({
        "src/repro/pkg/__init__.py": "from repro.pkg.impl import thing\n",
        "src/repro/pkg/impl.py": "def thing():\n    pass\n",
        "src/repro/use.py": "from repro.pkg import thing\n\nthing()\n",
    })
    assert model.resolve("repro.use", "thing") == "repro.pkg.impl.thing"


def test_cyclic_imports_terminate_and_resolve():
    # a <-> b cycle: resolution must not recurse forever, and both
    # directions must still resolve what they can.
    model = _model({
        "src/repro/a.py": "from repro.b import g\n\ndef f():\n    g()\n",
        "src/repro/b.py": "from repro.a import f\n\ndef g():\n    f()\n",
    })
    assert model.resolve("repro.a", "g") == "repro.b.g"
    assert model.resolve("repro.b", "f") == "repro.a.f"
    graph = model.call_graph()
    assert "repro.b.g" in graph["repro.a.f"]
    assert "repro.a.f" in graph["repro.b.g"]


def test_self_referential_reexport_cycle_terminates():
    # the chain never bottoms out in a definition: resolution must
    # terminate (cycle guard) and be deterministic, not hang
    model = _model({
        "src/repro/a.py": "from repro.b import name\n",
        "src/repro/b.py": "from repro.a import name\n",
    })
    first = model.resolve("repro.a", "name")
    assert first == model.resolve("repro.a", "name")
    assert first is None or first.startswith("repro.")


def test_call_graph_includes_module_level_calls():
    model = _model({
        "src/repro/a.py": "import time\n\nSTAMP = time.time()\n",
    })
    assert "time.time" in model.call_graph()["repro.a"]


def test_call_graph_resolves_self_method_calls():
    model = _model({
        "src/repro/a.py": (
            "class C:\n"
            "    def run(self):\n"
            "        return self.helper()\n\n"
            "    def helper(self):\n"
            "        return 1\n"
        ),
    })
    assert "repro.a.C.helper" in model.call_graph()["repro.a.C.run"]


def test_decorated_and_nested_functions_are_modeled():
    model = _model({
        "src/repro/a.py": (
            "import functools\n\n\n"
            "@functools.lru_cache\n"
            "def outer():\n"
            "    def inner():\n"
            "        return 1\n"
            "    return inner()\n"
        ),
    })
    summary = model.modules["repro.a"]
    outer = summary.functions["repro.a.outer"]
    inner = summary.functions["repro.a.outer.inner"]
    assert outer.decorated and not outer.nested
    assert inner.nested
    # outer's call to inner resolves through the enclosing scope chain
    assert "repro.a.outer.inner" in model.call_graph()["repro.a.outer"]


def test_taint_chain_is_deterministic_witness():
    model = _model({
        "src/repro/sinkmod.py": (
            "import time\n\n"
            "def read():\n"
            "    return time.time()\n"
        ),
        "src/repro/mid.py": (
            "from repro.sinkmod import read\n\n"
            "def relay():\n"
            "    return read()\n"
        ),
        "src/repro/top.py": (
            "from repro.mid import relay\n\n"
            "def entry():\n"
            "    return relay()\n"
        ),
    })
    chains = model.tainted_from(["time.time"])
    assert chains["repro.top.entry"] == [
        "repro.top.entry",
        "repro.mid.relay",
        "repro.sinkmod.read",
        "time.time",
    ]


def test_reference_index_spans_modules():
    model = _model({
        "src/repro/a.py": "def widget():\n    pass\n",
        "src/repro/b.py": "from repro.a import widget\n\nwidget()\n",
    })
    index = model.reference_index()
    assert index["widget"] == {"repro.a", "repro.b"}


def test_summary_round_trips_through_json():
    model = _model({
        "src/repro/a.py": (
            "from repro.b import g\n\n"
            "SEED = 7\n\n"
            '__all__ = ["f"]\n\n\n'
            "def f(x):\n"
            "    return g(x)\n"
        ),
    })
    summary = model.modules["repro.a"]
    rebuilt = ModuleSummary.from_json(summary.to_json())
    assert rebuilt.to_json() == summary.to_json()
    assert rebuilt.exports == ["f"]
    assert "SEED" in rebuilt.const_globals
    # a model built from round-tripped summaries behaves identically
    again = ProjectModel([rebuilt])
    assert again.resolve("repro.a", "g") == "repro.b.g"


def test_module_scope_marker_for_top_level_calls():
    model = _model({"src/repro/a.py": "print('x')\n"})
    calls = model.modules["repro.a"].calls
    assert calls and calls[0].caller == MODULE_SCOPE
