"""Per-request objects cross ``src/repro`` at two edges only.

§6 runs on :class:`~repro.honeypot.batch.RequestBatch` columns from the
generator to Table 1.  Objects are allowed at the honeypot's edges:

- in: a single ``HttpRequest`` through ``InteractiveHoneypot.interact``
  → ``NxdHoneypot.accept_request`` → ``TrafficRecorder.record_request``,
  and ``RequestBatch.from_requests``;
- out: ``RequestBatch.to_requests`` and ``PacketBatch.to_packets``.

These checks read the package source, so an object path added beside
a batch method fails here even before a test calls it.
"""

import ast
from pathlib import Path

import repro

#: Where ``HttpRequest(...)`` / ``PacketRecord(...)`` may be called.
CONSTRUCTORS = {
    "HttpRequest": "RequestBatch.to_requests",
    "PacketRecord": "PacketBatch.to_packets",
}

#: The only functions that take an ``HttpRequest`` parameter.
REQUEST_EDGES = {
    "InteractiveHoneypot.interact",
    "NxdHoneypot.accept_request",
    "TrafficRecorder.record_request",
    "RequestBatch.from_requests",
}


def _nodes():
    """(module, dotted enclosing class/function, node) for all of ``repro``."""
    root = Path(repro.__file__).parent

    def walk(module, node, scope):
        for child in ast.iter_child_nodes(node):
            yield module, scope, child
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef))
            yield from walk(module, child, f"{scope}.{child.name}" if named else scope)

    for path in sorted(root.rglob("*.py")):
        module = path.relative_to(root).as_posix()
        yield from walk(module, ast.parse(path.read_text()), "")


def _name(node):
    return getattr(node, "id", None) or getattr(node, "attr", None)


def test_objects_are_built_only_by_the_decoders():
    misplaced = [
        f"{module}:{node.lineno} {scope}"
        for module, scope, node in _nodes()
        if isinstance(node, ast.Call)
        and _name(node.func) in CONSTRUCTORS
        and scope != "." + CONSTRUCTORS[_name(node.func)]
    ]
    assert misplaced == []


def test_only_the_ingress_edge_takes_a_request():
    takers = set()
    for _, scope, node in _nodes():
        if isinstance(node, ast.FunctionDef):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [a for a in (args.vararg, args.kwarg) if a is not None]
            if any(
                a.annotation is not None and "HttpRequest" in ast.unparse(a.annotation)
                for a in params
            ):
                takers.add(f"{scope}.{node.name}"[1:])
    assert takers == REQUEST_EDGES


def test_no_module_imports_categorized_request():
    importers = [
        f"{module}:{node.lineno}"
        for module, _, node in _nodes()
        if isinstance(node, (ast.ImportFrom, ast.Attribute))
        and "CategorizedRequest"
        in [_name(node)] + [alias.name for alias in getattr(node, "names", [])]
    ]
    assert importers == []
