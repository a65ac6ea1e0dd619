"""The whole-program project model.

Per-file AST rules cannot see a wall-clock read or an unseeded RNG
laundered through a helper two modules away.  This module builds the
facts that make such flows visible:

- a :class:`ModuleSummary` per file — bindings (what each local name
  resolves to), definitions, call sites, exports, references,
  dynamic-import sites, and per-function **effect summaries**
  (filesystem writes, fsync/replace, exception handlers, shared-state
  mutations, process/thread spawns, with-held lock contexts, lock
  definitions, OS-resource acquisitions, lazy-init fills) — produced
  by **one** AST walk and cheap enough to serialize into the results
  cache;
- a :class:`ProjectModel` over all summaries — resolved qualified
  names, the intra-project call graph, taint propagation (which
  functions transitively reach a given sink), forward reachability
  (which functions a set of entry points can reach) and
  exception-class ancestry.

Summaries are pure data (JSON round-trippable), so a warm run rebuilds
the whole model without re-parsing a single unchanged file.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: Marker used as the caller of module-level (top-level) call sites.
MODULE_SCOPE = "<module>"


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qualname: str
    name: str
    lineno: int
    col: int
    public: bool
    decorated: bool = False
    nested: bool = False
    is_method: bool = False
    #: Positional parameters in true declaration order (positional-only
    #: first, then regular); keyword-only parameters live in ``kwonly``.
    params: List[str] = field(default_factory=list)
    kwonly: List[str] = field(default_factory=list)

    def to_json(self) -> Dict[str, object]:
        """Serializable form for the results cache."""
        return {
            "qualname": self.qualname,
            "name": self.name,
            "lineno": self.lineno,
            "col": self.col,
            "public": self.public,
            "decorated": self.decorated,
            "nested": self.nested,
            "is_method": self.is_method,
            "params": list(self.params),
            "kwonly": list(self.kwonly),
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "FunctionInfo":
        """Rebuild from :meth:`to_json` output."""
        return cls(**data)  # type: ignore[arg-type]


@dataclass
class CallSite:
    """One call expression inside a function (or at module level)."""

    caller: str
    callee_expr: str
    lineno: int
    col: int
    #: Shape of the first positional (or ``seed=``) argument:
    #: ``"none"`` (no args), ``"const:<value>"`` for literals,
    #: ``"param:<name>"`` when it names a parameter of the caller,
    #: ``"name:<id>"`` for any other bare name, ``"other"`` otherwise.
    arg0: str = "other"
    #: Dotted ``with``-context expressions held when the call executes
    #: (lock candidates for the blocking-call-under-lock rule).
    guards: List[str] = field(default_factory=list)

    def to_json(self) -> Dict[str, object]:
        """Serializable form for the results cache."""
        data: Dict[str, object] = {
            "caller": self.caller,
            "callee_expr": self.callee_expr,
            "lineno": self.lineno,
            "col": self.col,
            "arg0": self.arg0,
        }
        if self.guards:
            data["guards"] = list(self.guards)
        return data

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "CallSite":
        """Rebuild from :meth:`to_json` output."""
        return cls(**data)  # type: ignore[arg-type]


@dataclass
class WriteSite:
    """One filesystem-write expression inside a function.

    ``kind`` is ``"open"`` for ``open(..., "w")``-style calls (``mode``
    carries the literal mode string), ``"method"`` for
    ``path.write_text``/``path.write_bytes``, and ``"call"`` for
    write-sink calls such as ``np.save(path, ...)`` whose callee is
    resolved against the project model at rule time.
    """

    kind: str
    callee: str
    mode: str
    lineno: int
    col: int

    def to_json(self) -> Dict[str, object]:
        """Serializable form for the results cache."""
        return {
            "kind": self.kind,
            "callee": self.callee,
            "mode": self.mode,
            "lineno": self.lineno,
            "col": self.col,
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "WriteSite":
        """Rebuild from :meth:`to_json` output."""
        return cls(**data)  # type: ignore[arg-type]


@dataclass
class ExceptSite:
    """One ``except`` handler inside a function.

    ``types`` holds the dotted handler-type expressions (empty for a
    bare ``except:``); ``reraises`` is True when any ``raise`` appears
    in the handler body, so the handler propagates rather than
    swallows.
    """

    lineno: int
    col: int
    types: List[str] = field(default_factory=list)
    bare: bool = False
    reraises: bool = False

    def to_json(self) -> Dict[str, object]:
        """Serializable form for the results cache."""
        return {
            "lineno": self.lineno,
            "col": self.col,
            "types": list(self.types),
            "bare": self.bare,
            "reraises": self.reraises,
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "ExceptSite":
        """Rebuild from :meth:`to_json` output."""
        return cls(**data)  # type: ignore[arg-type]


@dataclass
class MutationSite:
    """One mutation of named state inside a function.

    For name mutations ``target`` is the bare name (checked against
    module globals at rule time); for attribute mutations it is the
    first attribute after ``self``/``cls``.  ``kind`` is ``"assign"``
    (rebinding, including augmented), ``"subscript"`` (item write), a
    ``"call:<method>"`` mutator-method call, ``"nonlocal"`` for a
    captured-variable rebinding, or ``"lazy"`` for a
    ``if self._x is None: self._x = ...`` lazy initialization.
    ``guards`` lists the dotted ``with``-context expressions held at
    the mutation site (lock candidates, checked at rule time).
    """

    target: str
    kind: str
    lineno: int
    col: int
    guards: List[str] = field(default_factory=list)

    def to_json(self) -> Dict[str, object]:
        """Serializable form for the results cache."""
        data: Dict[str, object] = {
            "target": self.target,
            "kind": self.kind,
            "lineno": self.lineno,
            "col": self.col,
        }
        if self.guards:
            data["guards"] = list(self.guards)
        return data

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "MutationSite":
        """Rebuild from :meth:`to_json` output."""
        return cls(**data)  # type: ignore[arg-type]


@dataclass
class WithInfo:
    """One ``with`` context entry on a dotted expression.

    ``expr`` is the dotted context expression (``self._lock``,
    ``_REGISTRY_LOCK``); ``held`` lists the dotted expressions of the
    enclosing ``with`` contexts already entered at this point, in
    acquisition order — the raw material for the lock-ordering graph.
    Call-valued contexts (``with open(...)``) are resource facts, not
    with facts, and are recorded as :class:`ResourceSite` instead.
    """

    expr: str
    lineno: int
    col: int
    held: List[str] = field(default_factory=list)

    def to_json(self) -> Dict[str, object]:
        """Serializable form for the results cache."""
        return {
            "expr": self.expr,
            "lineno": self.lineno,
            "col": self.col,
            "held": list(self.held),
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "WithInfo":
        """Rebuild from :meth:`to_json` output."""
        return cls(**data)  # type: ignore[arg-type]


@dataclass
class LockSite:
    """One lock-object definition (``self._lock = threading.Lock()``).

    ``scope`` is ``"attr"`` for instance/class attributes (``target``
    is the first attribute after ``self``/``cls``) and ``"global"``
    for module-level names.  ``factory`` is the dotted constructor
    expression (``threading.Lock``, ``RLock``, ...), resolved against
    the project model at rule time.
    """

    target: str
    factory: str
    scope: str
    lineno: int
    col: int

    def to_json(self) -> Dict[str, object]:
        """Serializable form for the results cache."""
        return {
            "target": self.target,
            "factory": self.factory,
            "scope": self.scope,
            "lineno": self.lineno,
            "col": self.col,
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "LockSite":
        """Rebuild from :meth:`to_json` output."""
        return cls(**data)  # type: ignore[arg-type]


@dataclass
class ResourceSite:
    """One OS-resource acquisition (``open``/``mmap``/mmap'd ``np.load``).

    ``name`` is the local the handle was bound to (empty when the
    handle is used inline).  ``managed`` is True when the acquisition
    already has a lifecycle owner: a ``with`` context, an immediate
    ``return`` (the caller owns it), a direct argument position (the
    callee owns it), or an instance-attribute binding (the object owns
    it).  Unmanaged sites must be closed in a ``finally`` or they leak
    on the first exception.
    """

    kind: str
    callee: str
    name: str
    managed: bool
    lineno: int
    col: int

    def to_json(self) -> Dict[str, object]:
        """Serializable form for the results cache."""
        return {
            "kind": self.kind,
            "callee": self.callee,
            "name": self.name,
            "managed": self.managed,
            "lineno": self.lineno,
            "col": self.col,
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "ResourceSite":
        """Rebuild from :meth:`to_json` output."""
        return cls(**data)  # type: ignore[arg-type]


@dataclass
class SpawnSite:
    """One process/thread-spawn expression with a worker callable.

    ``target`` is the dotted expression naming the callable handed to
    ``pool.map``/``pool.submit`` (``kind="pool"``) or to
    ``Thread(target=...)``/``Process(target=...)`` (``kind="thread"``);
    it is resolved against the project model at rule time.
    """

    target: str
    kind: str
    lineno: int
    col: int

    def to_json(self) -> Dict[str, object]:
        """Serializable form for the results cache."""
        return {
            "target": self.target,
            "kind": self.kind,
            "lineno": self.lineno,
            "col": self.col,
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "SpawnSite":
        """Rebuild from :meth:`to_json` output."""
        return cls(**data)  # type: ignore[arg-type]


@dataclass
class FunctionEffects:
    """Effect summary for one function (or the module top level).

    ``fsyncs``/``replaces`` record whether the function itself calls
    ``os.fsync`` and ``os.replace``/``os.rename`` — together they mark
    the sanctioned atomic-write dance, exempting the function's raw
    writes from REP201.

    The concurrency pass adds: ``withs`` (dotted ``with`` contexts and
    what was held when each was entered), ``locks`` (lock-object
    definitions), ``resources`` (OS-handle acquisitions),
    ``lazy_inits`` (``if self._x is None: self._x = ...`` fills), and
    ``closed``/``finally_closed`` (locals explicitly ``.close()``d,
    the latter from inside a ``finally`` block or via ``closing()``).
    """

    writes: List[WriteSite] = field(default_factory=list)
    excepts: List[ExceptSite] = field(default_factory=list)
    name_mutations: List[MutationSite] = field(default_factory=list)
    attr_mutations: List[MutationSite] = field(default_factory=list)
    spawns: List[SpawnSite] = field(default_factory=list)
    fsyncs: bool = False
    replaces: bool = False
    withs: List[WithInfo] = field(default_factory=list)
    locks: List[LockSite] = field(default_factory=list)
    resources: List[ResourceSite] = field(default_factory=list)
    lazy_inits: List[MutationSite] = field(default_factory=list)
    closed: List[str] = field(default_factory=list)
    finally_closed: List[str] = field(default_factory=list)

    def is_empty(self) -> bool:
        """Whether nothing was recorded (entry can be omitted)."""
        return not (
            self.writes
            or self.excepts
            or self.name_mutations
            or self.attr_mutations
            or self.spawns
            or self.fsyncs
            or self.replaces
            or self.withs
            or self.locks
            or self.resources
            or self.lazy_inits
            or self.closed
            or self.finally_closed
        )

    def to_json(self) -> Dict[str, object]:
        """Serializable form for the results cache."""
        return {
            "writes": [w.to_json() for w in self.writes],
            "excepts": [e.to_json() for e in self.excepts],
            "name_mutations": [m.to_json() for m in self.name_mutations],
            "attr_mutations": [m.to_json() for m in self.attr_mutations],
            "spawns": [s.to_json() for s in self.spawns],
            "fsyncs": self.fsyncs,
            "replaces": self.replaces,
            "withs": [w.to_json() for w in self.withs],
            "locks": [k.to_json() for k in self.locks],
            "resources": [r.to_json() for r in self.resources],
            "lazy_inits": [m.to_json() for m in self.lazy_inits],
            "closed": list(self.closed),
            "finally_closed": list(self.finally_closed),
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "FunctionEffects":
        """Rebuild from :meth:`to_json` output (tolerant of old caches)."""
        return cls(
            writes=[WriteSite.from_json(w) for w in data.get("writes", [])],  # type: ignore[union-attr]
            excepts=[ExceptSite.from_json(e) for e in data.get("excepts", [])],  # type: ignore[union-attr]
            name_mutations=[
                MutationSite.from_json(m)
                for m in data.get("name_mutations", [])  # type: ignore[union-attr]
            ],
            attr_mutations=[
                MutationSite.from_json(m)
                for m in data.get("attr_mutations", [])  # type: ignore[union-attr]
            ],
            spawns=[SpawnSite.from_json(s) for s in data.get("spawns", [])],  # type: ignore[union-attr]
            fsyncs=bool(data.get("fsyncs", False)),
            replaces=bool(data.get("replaces", False)),
            withs=[WithInfo.from_json(w) for w in data.get("withs", [])],  # type: ignore[union-attr]
            locks=[LockSite.from_json(k) for k in data.get("locks", [])],  # type: ignore[union-attr]
            resources=[
                ResourceSite.from_json(r)
                for r in data.get("resources", [])  # type: ignore[union-attr]
            ],
            lazy_inits=[
                MutationSite.from_json(m)
                for m in data.get("lazy_inits", [])  # type: ignore[union-attr]
            ],
            closed=list(data.get("closed", [])),  # type: ignore[arg-type]
            finally_closed=list(data.get("finally_closed", [])),  # type: ignore[arg-type]
        )


@dataclass
class ModuleSummary:
    """Whole-program facts extracted from one module in one AST walk."""

    module: str
    relpath: str
    bindings: Dict[str, str] = field(default_factory=dict)
    star_imports: List[str] = field(default_factory=list)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    calls: List[CallSite] = field(default_factory=list)
    module_assigns: List[CallSite] = field(default_factory=list)
    const_globals: Dict[str, int] = field(default_factory=dict)
    exports: List[str] = field(default_factory=list)
    exports_lineno: int = 0
    refs: List[str] = field(default_factory=list)
    noqa: Dict[int, List[str]] = field(default_factory=dict)
    #: Effect summaries keyed by function qualname (module-level
    #: effects live under :data:`MODULE_SCOPE`); empty entries are
    #: omitted to keep the cache small.
    effects: Dict[str, FunctionEffects] = field(default_factory=dict)
    #: Class qualname -> dotted base-class expressions, for
    #: exception-hierarchy resolution and cache-field grouping.
    classes: Dict[str, List[str]] = field(default_factory=dict)
    #: Module-level names bound to mutable literals (dict/list/set
    #: displays, comprehensions, or container constructors) -> lineno.
    mutable_globals: Dict[str, int] = field(default_factory=dict)

    def to_json(self) -> Dict[str, object]:
        """Serializable form for the results cache."""
        return {
            "module": self.module,
            "relpath": self.relpath,
            "bindings": dict(self.bindings),
            "star_imports": list(self.star_imports),
            "functions": {
                name: info.to_json() for name, info in self.functions.items()
            },
            "calls": [call.to_json() for call in self.calls],
            "module_assigns": [call.to_json() for call in self.module_assigns],
            "const_globals": dict(self.const_globals),
            "exports": list(self.exports),
            "exports_lineno": self.exports_lineno,
            "refs": list(self.refs),
            "noqa": {str(line): ids for line, ids in self.noqa.items()},
            "effects": {
                name: fx.to_json()
                for name, fx in self.effects.items()
                if not fx.is_empty()
            },
            "classes": {name: list(b) for name, b in self.classes.items()},
            "mutable_globals": dict(self.mutable_globals),
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "ModuleSummary":
        """Rebuild from :meth:`to_json` output."""
        return cls(
            module=str(data["module"]),
            relpath=str(data["relpath"]),
            bindings=dict(data.get("bindings", {})),  # type: ignore[arg-type]
            star_imports=list(data.get("star_imports", [])),  # type: ignore[arg-type]
            functions={
                name: FunctionInfo.from_json(info)
                for name, info in data.get("functions", {}).items()  # type: ignore[union-attr]
            },
            calls=[CallSite.from_json(c) for c in data.get("calls", [])],  # type: ignore[union-attr]
            module_assigns=[
                CallSite.from_json(c) for c in data.get("module_assigns", [])  # type: ignore[union-attr]
            ],
            const_globals=dict(data.get("const_globals", {})),  # type: ignore[arg-type]
            exports=list(data.get("exports", [])),  # type: ignore[arg-type]
            exports_lineno=int(data.get("exports_lineno", 0)),  # type: ignore[arg-type]
            refs=list(data.get("refs", [])),  # type: ignore[arg-type]
            noqa={
                int(line): list(ids)
                for line, ids in data.get("noqa", {}).items()  # type: ignore[union-attr]
            },
            effects={
                name: FunctionEffects.from_json(fx)
                for name, fx in data.get("effects", {}).items()  # type: ignore[union-attr]
            },
            classes={
                name: list(bases)
                for name, bases in data.get("classes", {}).items()  # type: ignore[union-attr]
            },
            mutable_globals=dict(data.get("mutable_globals", {})),  # type: ignore[arg-type]
        )


def _dotted_expr(node: ast.AST) -> Optional[str]:
    """Dotted source text of a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


#: Methods that mutate their receiver in place.
_MUTATOR_METHODS = frozenset({
    "add", "append", "appendleft", "clear", "discard", "extend",
    "insert", "pop", "popitem", "popleft", "remove", "reverse",
    "setdefault", "sort", "update",
})
#: Call tails treated as write sinks when the callee resolves to a
#: known serializer (``np.save`` and friends); the file operand is the
#: first positional argument.
_WRITE_SINK_TAILS = frozenset({"save", "savez", "savez_compressed"})
#: Constructors of in-memory buffers; writes into such locals are not
#: filesystem writes.
_MEMORY_BUFFER_FACTORIES = frozenset({"BytesIO", "StringIO"})
#: Constructor tails that spawn a worker with a ``target=`` callable.
_THREAD_SPAWNERS = frozenset({"Thread", "Process", "Timer"})
#: Executor methods whose first positional argument is the worker.
_POOL_DISPATCH_ANY = frozenset({"submit", "apply_async", "starmap"})
#: Executor methods so generic (``.map``) that the receiver name must
#: look like a pool/executor before the call counts as a spawn.
_POOL_DISPATCH_GUARDED = frozenset({"map", "imap", "imap_unordered"})
#: Constructor tails that create a lock object; assignments of such
#: calls to attributes or module globals become :class:`LockSite`s.
_LOCK_FACTORY_TAILS = frozenset({
    "Lock", "RLock", "Semaphore", "BoundedSemaphore", "Condition",
})
#: Exact callees that acquire an OS resource handle.
_RESOURCE_OPENERS = frozenset({
    "open", "io.open", "gzip.open", "bz2.open", "lzma.open",
    "tarfile.open", "mmap.mmap",
})


def _is_type_checking_test(test: ast.AST) -> bool:
    """Whether an ``if`` test is the ``typing.TYPE_CHECKING`` guard."""
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


class _Summarizer(ast.NodeVisitor):
    """Single-pass visitor building a :class:`ModuleSummary`."""

    def __init__(self, module: str, relpath: str) -> None:
        self.summary = ModuleSummary(module=module, relpath=relpath)
        self._scope: List[str] = []
        self._class_depth = 0
        self._func_depth = 0
        self._params: List[Set[str]] = []
        # Per-function-scope stacks (index 0 is module scope): names of
        # in-memory buffer locals, `global` declarations, and
        # `nonlocal` declarations.
        self._memio: List[Set[str]] = [set()]
        self._global_decls: List[Set[str]] = [set()]
        self._nonlocal_decls: List[Set[str]] = [set()]
        # Dotted `with`-context expressions currently entered, in
        # acquisition order — a nested function body does not run under
        # its definer's locks, so this is also a per-function stack.
        self._held: List[List[str]] = [[]]
        # Depth of enclosing `finally` blocks in the current function.
        self._in_finally: List[int] = [0]
        # Pre-marked lifecycle context for Call nodes about to be
        # visited: id(call node) -> (bound local name, managed).
        self._resource_ctx: Dict[int, Tuple[str, bool]] = {}

    # -- scope bookkeeping -------------------------------------------------

    def _qualname(self, name: str) -> str:
        return ".".join([self.summary.module] + self._scope + [name])

    def _caller(self) -> str:
        if not self._scope or self._func_depth == 0:
            return MODULE_SCOPE
        return ".".join([self.summary.module] + self._scope)

    def _fx(self) -> FunctionEffects:
        """The effect accumulator for the enclosing function scope."""
        key = self._caller()
        fx = self.summary.effects.get(key)
        if fx is None:
            fx = FunctionEffects()
            self.summary.effects[key] = fx
        return fx

    # -- definitions -------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._handle_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._handle_function(node)

    def _handle_function(self, node: ast.AST) -> None:
        name = node.name
        qualname = self._qualname(name)
        public = not any(
            part.startswith("_")
            for part in qualname[len(self.summary.module) + 1:].split(".")
        )
        params = [arg.arg for arg in node.args.posonlyargs]
        params += [arg.arg for arg in node.args.args]
        kwonly = [arg.arg for arg in node.args.kwonlyargs]
        info = FunctionInfo(
            qualname=qualname,
            name=name,
            lineno=node.lineno,
            col=node.col_offset + 1,
            public=public,
            decorated=bool(node.decorator_list),
            nested=self._func_depth > 0,
            is_method=self._class_depth > 0 and self._func_depth == 0,
            params=params,
            kwonly=kwonly,
        )
        self.summary.functions[qualname] = info
        if not self._scope:
            self.summary.bindings.setdefault(
                name, f"{self.summary.module}.{name}"
            )
        self.summary.refs.append(name)
        self._scope.append(name)
        self._func_depth += 1
        self._params.append(set(params) | set(kwonly))
        self._memio.append(set())
        self._global_decls.append(set())
        self._nonlocal_decls.append(set())
        self._held.append([])
        self._in_finally.append(0)
        self.generic_visit(node)
        self._in_finally.pop()
        self._held.pop()
        self._nonlocal_decls.pop()
        self._global_decls.pop()
        self._memio.pop()
        self._params.pop()
        self._func_depth -= 1
        self._scope.pop()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if not self._scope:
            self.summary.bindings.setdefault(
                node.name, f"{self.summary.module}.{node.name}"
            )
        self.summary.refs.append(node.name)
        bases = [
            dotted
            for dotted in (_dotted_expr(base) for base in node.bases)
            if dotted is not None
        ]
        self.summary.classes[self._qualname(node.name)] = bases
        self._scope.append(node.name)
        self._class_depth += 1
        self.generic_visit(node)
        self._class_depth -= 1
        self._scope.pop()

    # -- imports -----------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            target = alias.name
            self.summary.refs.append(target.split(".")[-1])
            if alias.asname:
                self.summary.bindings[alias.asname] = target
            else:
                # `import a.b` binds `a`; attribute walks resolve the rest.
                head = target.split(".")[0]
                self.summary.bindings.setdefault(head, head)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = self._resolve_relative(node)
        for alias in node.names:
            if alias.name == "*":
                self.summary.star_imports.append(base)
                continue
            self.summary.refs.append(alias.name)
            local = alias.asname or alias.name
            self.summary.bindings[local] = f"{base}.{alias.name}" if base else alias.name
        self.generic_visit(node)

    def _resolve_relative(self, node: ast.ImportFrom) -> str:
        module = node.module or ""
        if not node.level:
            return module
        base = self.summary.module.split(".")
        base = base[: len(base) - node.level] or base[:1]
        return ".".join(base + ([module] if module else []))

    def visit_If(self, node: ast.If) -> None:
        if _is_type_checking_test(node.test):
            for stmt in node.body:
                self.visit(stmt)
            for stmt in node.orelse:
                self.visit(stmt)
            if isinstance(node.test, (ast.Name, ast.Attribute)):
                self._record_ref_expr(node.test)
            return
        self._record_lazy_init(node)
        self.generic_visit(node)

    @staticmethod
    def _self_attr(node: ast.AST) -> Optional[str]:
        """The attribute name of a plain ``self.<x>``/``cls.<x>`` expr."""
        dotted = _dotted_expr(node)
        if dotted is None:
            return None
        parts = dotted.split(".")
        if parts[0] in ("self", "cls") and len(parts) == 2:
            return parts[1]
        return None

    def _record_lazy_init(self, node: ast.If) -> None:
        """Detect ``if self._x is None: self._x = ...`` fill patterns.

        The check-then-fill is atomic only under a lock; recorded with
        the held guards so the rule can tell synchronized fills apart.
        """
        if self._func_depth == 0:
            return
        test = node.test
        attr: Optional[str] = None
        if (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Is)
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None
        ):
            attr = self._self_attr(test.left)
        elif isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            attr = self._self_attr(test.operand)
        if attr is None:
            return
        for stmt in node.body:
            for child in ast.walk(stmt):
                if isinstance(child, ast.Assign):
                    targets: Sequence[ast.AST] = child.targets
                elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
                    targets = [child.target]
                else:
                    continue
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and self._self_attr(target) == attr
                    ):
                        self._fx().lazy_inits.append(
                            MutationSite(attr, "lazy", node.lineno,
                                         node.col_offset + 1,
                                         list(self._held[-1]))
                        )
                        return

    # -- calls and assignments --------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        callee = _dotted_expr(node.func)
        if callee is not None:
            self.summary.calls.append(
                CallSite(
                    caller=self._caller(),
                    callee_expr=callee,
                    lineno=node.lineno,
                    col=node.col_offset + 1,
                    arg0=self._arg0_kind(node),
                    guards=list(self._held[-1]),
                )
            )
            self._record_write_effects(node, callee)
            self._record_spawn_effects(node, callee)
            self._record_mutator_call(node, callee)
            self._record_resource(node, callee)
            self._record_close(node, callee)
        elif isinstance(node.func, ast.Attribute):
            # Computed receivers — `(root / "x").write_text(...)`,
            # `tmp_path.with_suffix(".json").open("w")` — have no dotted
            # form, but the write effect is just as real.  Record it
            # under a placeholder receiver so REP201 still sees it.
            self._record_computed_write(node, node.func.attr)
        # A handle passed straight into another call is owned by the
        # callee (`closing(open(p))`, `stack.enter_context(open(p))`).
        for child in list(node.args) + [kw.value for kw in node.keywords]:
            if isinstance(child, ast.Call):
                self._resource_ctx[id(child)] = ("", True)
        self.generic_visit(node)
        self._resource_ctx.pop(id(node), None)

    def _record_computed_write(self, node: ast.Call, tail: str) -> None:
        if tail in ("write_text", "write_bytes"):
            self._add_write(
                WriteSite("method", f"<expr>.{tail}", "",
                          node.lineno, node.col_offset + 1)
            )
        elif tail == "open":
            mode = self._literal_mode(node, position=0)
            if mode is not None and set(mode) & set("wax+"):
                self._add_write(WriteSite("open", f"<expr>.{tail}", mode,
                                          node.lineno, node.col_offset + 1))

    # -- effect extraction -------------------------------------------------

    def _record_write_effects(self, node: ast.Call, callee: str) -> None:
        tail = callee.rsplit(".", 1)[-1]
        if callee in ("os.fsync",):
            self._fx().fsyncs = True
            return
        if callee in ("os.replace", "os.rename"):
            self._fx().replaces = True
            return
        if callee in ("open", "io.open"):
            mode = self._literal_mode(node, position=1)
            if mode is not None and set(mode) & set("wax+"):
                self._add_write(WriteSite("open", callee, mode,
                                          node.lineno, node.col_offset + 1))
            return
        if "." not in callee:
            return
        if tail == "open":
            # Path.open(mode=...): mode is the first positional.
            mode = self._literal_mode(node, position=0)
            if mode is not None and set(mode) & set("wax+"):
                self._add_write(WriteSite("open", callee, mode,
                                          node.lineno, node.col_offset + 1))
        elif tail in ("write_text", "write_bytes"):
            receiver = callee[: -(len(tail) + 1)]
            if receiver not in self._memio[-1]:
                self._add_write(WriteSite("method", callee, "",
                                          node.lineno, node.col_offset + 1))
        elif tail in _WRITE_SINK_TAILS:
            arg0 = node.args[0] if node.args else None
            if isinstance(arg0, ast.Name) and arg0.id in self._memio[-1]:
                return
            self._add_write(WriteSite("call", callee, "",
                                      node.lineno, node.col_offset + 1))

    def _add_write(self, site: WriteSite) -> None:
        self._fx().writes.append(site)

    def _literal_mode(self, node: ast.Call, position: int) -> Optional[str]:
        arg: Optional[ast.AST] = (
            node.args[position] if len(node.args) > position else None
        )
        if arg is None:
            for keyword in node.keywords:
                if keyword.arg == "mode":
                    arg = keyword.value
                    break
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
        return None

    def _record_spawn_effects(self, node: ast.Call, callee: str) -> None:
        tail = callee.rsplit(".", 1)[-1]
        if tail in _THREAD_SPAWNERS:
            for keyword in node.keywords:
                if keyword.arg == "target":
                    target = _dotted_expr(keyword.value)
                    if target is not None:
                        self._fx().spawns.append(
                            SpawnSite(target, "thread",
                                      node.lineno, node.col_offset + 1)
                        )
                    break
            return
        if "." not in callee:
            return
        if tail in _POOL_DISPATCH_GUARDED:
            receiver_tail = callee.rsplit(".", 2)[-2].lower()
            if "pool" not in receiver_tail and "executor" not in receiver_tail:
                return
        elif tail not in _POOL_DISPATCH_ANY:
            return
        arg0 = node.args[0] if node.args else None
        target = _dotted_expr(arg0) if arg0 is not None else None
        if target is not None:
            self._fx().spawns.append(
                SpawnSite(target, "pool", node.lineno, node.col_offset + 1)
            )

    def _record_mutator_call(self, node: ast.Call, callee: str) -> None:
        if self._func_depth == 0 or "." not in callee:
            return
        tail = callee.rsplit(".", 1)[-1]
        if tail not in _MUTATOR_METHODS:
            return
        receiver = callee[: -(len(tail) + 1)]
        parts = receiver.split(".")
        site_args = (f"call:{tail}", node.lineno, node.col_offset + 1,
                     list(self._held[-1]))
        if parts[0] in ("self", "cls") and len(parts) >= 2:
            self._fx().attr_mutations.append(MutationSite(parts[1], *site_args))
        elif len(parts) == 1 and receiver not in self._params[-1]:
            self._fx().name_mutations.append(MutationSite(receiver, *site_args))

    def _record_resource(self, node: ast.Call, callee: str) -> None:
        tail = callee.rsplit(".", 1)[-1]
        kind: Optional[str] = None
        if callee in _RESOURCE_OPENERS:
            kind = "mmap" if callee == "mmap.mmap" else "open"
        elif "." in callee and tail == "open":
            # `path.open(...)` — only counted with a literal mode so
            # arbitrary factory classmethods named `open` (which return
            # owning objects, not raw handles) don't match.
            if self._literal_mode(node, position=0) is not None:
                kind = "open"
        elif "." in callee and tail == "load":
            for keyword in node.keywords:
                if keyword.arg == "mmap_mode" and not (
                    isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is None
                ):
                    kind = "np.load"
                    break
        if kind is None:
            return
        name, managed = self._resource_ctx.get(id(node), ("", False))
        self._fx().resources.append(
            ResourceSite(kind, callee, name, managed,
                         node.lineno, node.col_offset + 1)
        )

    def _record_close(self, node: ast.Call, callee: str) -> None:
        tail = callee.rsplit(".", 1)[-1]
        if tail == "close" and "." in callee:
            receiver = callee[: -(len(tail) + 1)]
            if "." not in receiver:
                self._fx().closed.append(receiver)
                if self._in_finally[-1] > 0:
                    self._fx().finally_closed.append(receiver)
        elif tail == "closing":
            arg0 = node.args[0] if node.args else None
            if isinstance(arg0, ast.Name):
                # `with closing(x):` guarantees the close on every path.
                self._fx().closed.append(arg0.id)
                self._fx().finally_closed.append(arg0.id)

    def _record_lock_def(
        self, targets: Sequence[ast.AST], value: ast.AST
    ) -> None:
        if not isinstance(value, ast.Call):
            return
        callee = _dotted_expr(value.func)
        if callee is None or callee.rsplit(".", 1)[-1] not in _LOCK_FACTORY_TAILS:
            return
        site = (callee, value.lineno, value.col_offset + 1)
        for target in targets:
            if isinstance(target, ast.Name):
                if self._func_depth == 0 and self._class_depth == 0:
                    self._fx().locks.append(
                        LockSite(target.id, site[0], "global", *site[1:])
                    )
                elif self._class_depth > 0 and self._func_depth == 0:
                    # Class-level `_lock = Lock()` shared by instances.
                    self._fx().locks.append(
                        LockSite(target.id, site[0], "attr", *site[1:])
                    )
            elif isinstance(target, ast.Attribute):
                dotted = _dotted_expr(target)
                if dotted is None:
                    continue
                parts = dotted.split(".")
                if parts[0] in ("self", "cls") and len(parts) == 2:
                    self._fx().locks.append(
                        LockSite(parts[1], site[0], "attr", *site[1:])
                    )

    def _arg0_kind(self, node: ast.Call) -> str:
        arg: Optional[ast.AST] = node.args[0] if node.args else None
        if arg is None:
            for keyword in node.keywords:
                if keyword.arg in ("seed", "name"):
                    arg = keyword.value
                    break
        if arg is None:
            return "none" if not node.keywords else "other"
        if isinstance(arg, ast.Constant) and isinstance(
            arg.value, (int, str, float)
        ):
            return f"const:{arg.value}"
        if isinstance(arg, ast.Name):
            if self._params and arg.id in self._params[-1]:
                return f"param:{arg.id}"
            return f"name:{arg.id}"
        return "other"

    def visit_Assign(self, node: ast.Assign) -> None:
        if not self._scope:
            self._record_module_assign(node.targets, node.value, node)
            self._record_mutable_global(node.targets, node.value, node)
        self._track_memio(node.targets, node.value)
        self._record_lock_def(node.targets, node.value)
        self._mark_assigned_resource(node.targets, node.value)
        if self._func_depth > 0:
            for target in node.targets:
                self._record_mutation_target(target, "assign", node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if not self._scope and node.value is not None:
            self._record_module_assign([node.target], node.value, node)
            self._record_mutable_global([node.target], node.value, node)
        if node.value is not None:
            self._track_memio([node.target], node.value)
            self._record_lock_def([node.target], node.value)
            self._mark_assigned_resource([node.target], node.value)
        if self._func_depth > 0 and node.value is not None:
            self._record_mutation_target(node.target, "assign", node)
        self.generic_visit(node)

    def _mark_assigned_resource(
        self, targets: Sequence[ast.AST], value: ast.AST
    ) -> None:
        """Pre-mark a Call value with its binding before visiting it.

        ``f = open(p)`` binds an unmanaged local the close-tracker can
        match; ``self._fh = open(p)`` hands ownership to the object
        (cross-method lifecycle, out of scope for REP303).
        """
        if not isinstance(value, ast.Call) or len(targets) != 1:
            return
        target = targets[0]
        if isinstance(target, ast.Name):
            self._resource_ctx[id(value)] = (target.id, False)
        elif isinstance(target, ast.Attribute):
            self._resource_ctx[id(value)] = ("", True)

    def visit_Return(self, node: ast.Return) -> None:
        if isinstance(node.value, ast.Call):
            # A returned handle is owned by the caller.
            self._resource_ctx[id(node.value)] = ("", True)
        elif isinstance(node.value, ast.Name):
            # Returning a bound handle transfers ownership too.
            for site in self._fx().resources:
                if site.name == node.value.id:
                    site.managed = True
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if self._func_depth > 0:
            self._record_mutation_target(node.target, "assign", node)
        self.generic_visit(node)

    def visit_Global(self, node: ast.Global) -> None:
        self._global_decls[-1].update(node.names)

    def visit_Nonlocal(self, node: ast.Nonlocal) -> None:
        self._nonlocal_decls[-1].update(node.names)

    def visit_With(self, node: ast.With) -> None:
        self._handle_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._handle_with(node)

    def _handle_with(self, node: ast.AST) -> None:
        """Record with-contexts, tracking held locks around the body.

        Dotted contexts (``with self._lock:``) become :class:`WithInfo`
        facts and are pushed onto the held stack for the body; call
        contexts (``with open(p) as f:``) are managed resources.
        """
        pushed = 0
        for item in node.items:
            if item.optional_vars is not None:
                self._track_memio([item.optional_vars], item.context_expr)
            ctx = item.context_expr
            if isinstance(ctx, ast.Call):
                self._resource_ctx[id(ctx)] = ("", True)
            else:
                dotted = _dotted_expr(ctx)
                if dotted is not None:
                    self._fx().withs.append(
                        WithInfo(dotted, ctx.lineno, ctx.col_offset + 1,
                                 held=list(self._held[-1]))
                    )
                    self._held[-1].append(dotted)
                    pushed += 1
            self.visit(ctx)
            if item.optional_vars is not None:
                self.visit(item.optional_vars)
        for stmt in node.body:
            self.visit(stmt)
        if pushed:
            del self._held[-1][-pushed:]

    def visit_Try(self, node: ast.Try) -> None:
        self._handle_try(node)

    def visit_TryStar(self, node: ast.AST) -> None:
        self._handle_try(node)

    def _handle_try(self, node: ast.AST) -> None:
        """Visit a try statement, flagging the ``finally`` region."""
        for stmt in node.body:
            self.visit(stmt)
        for handler in node.handlers:
            self.visit(handler)
        for stmt in node.orelse:
            self.visit(stmt)
        self._in_finally[-1] += 1
        for stmt in node.finalbody:
            self.visit(stmt)
        self._in_finally[-1] -= 1

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        types: List[str] = []
        if node.type is not None:
            exprs = (
                list(node.type.elts)
                if isinstance(node.type, ast.Tuple)
                else [node.type]
            )
            for expr in exprs:
                dotted = _dotted_expr(expr)
                if dotted is not None:
                    types.append(dotted)
        reraises = any(
            isinstance(inner, ast.Raise)
            for stmt in node.body
            for inner in ast.walk(stmt)
        )
        self._fx().excepts.append(
            ExceptSite(
                lineno=node.lineno,
                col=node.col_offset + 1,
                types=types,
                bare=node.type is None,
                reraises=reraises,
            )
        )
        self.generic_visit(node)

    def _track_memio(self, targets: Sequence[ast.AST], value: ast.AST) -> None:
        if not isinstance(value, ast.Call):
            return
        callee = _dotted_expr(value.func)
        if callee is None:
            return
        if callee.rsplit(".", 1)[-1] not in _MEMORY_BUFFER_FACTORIES:
            return
        for target in targets:
            if isinstance(target, ast.Name):
                self._memio[-1].add(target.id)

    def _record_mutable_global(
        self, targets: Sequence[ast.AST], value: ast.AST, node: ast.AST
    ) -> None:
        mutable = isinstance(
            value,
            (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
             ast.SetComp),
        )
        if not mutable and isinstance(value, ast.Call):
            callee = _dotted_expr(value.func)
            mutable = callee is not None and callee.rsplit(".", 1)[-1] in (
                "Counter", "OrderedDict", "defaultdict", "deque", "dict",
                "list", "set",
            )
        if not mutable:
            return
        for target in targets:
            if isinstance(target, ast.Name) and target.id != "__all__":
                self.summary.mutable_globals[target.id] = node.lineno

    def _record_mutation_target(
        self, target: ast.AST, kind: str, node: ast.AST
    ) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._record_mutation_target(elt, kind, node)
            return
        lineno, col = node.lineno, node.col_offset + 1
        guards = list(self._held[-1])
        if isinstance(target, ast.Name):
            if target.id in self._global_decls[-1]:
                self._fx().name_mutations.append(
                    MutationSite(target.id, kind, lineno, col, guards)
                )
            elif target.id in self._nonlocal_decls[-1]:
                self._fx().name_mutations.append(
                    MutationSite(target.id, "nonlocal", lineno, col, guards)
                )
            return
        if isinstance(target, ast.Subscript):
            base = _dotted_expr(target.value)
            if base is None:
                return
            parts = base.split(".")
            if parts[0] in ("self", "cls") and len(parts) >= 2:
                self._fx().attr_mutations.append(
                    MutationSite(parts[1], "subscript", lineno, col, guards)
                )
            elif len(parts) == 1 and base not in self._params[-1]:
                self._fx().name_mutations.append(
                    MutationSite(base, "subscript", lineno, col, guards)
                )
            return
        if isinstance(target, ast.Attribute):
            dotted = _dotted_expr(target)
            if dotted is None:
                return
            parts = dotted.split(".")
            if parts[0] in ("self", "cls") and len(parts) >= 2:
                self._fx().attr_mutations.append(
                    MutationSite(parts[1], kind, lineno, col, guards)
                )

    def _record_module_assign(
        self, targets: Sequence[ast.AST], value: ast.AST, node: ast.AST
    ) -> None:
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if not names:
            return
        if names == ["__all__"] and isinstance(value, (ast.List, ast.Tuple)):
            self.summary.exports = [
                elt.value
                for elt in value.elts
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            ]
            self.summary.exports_lineno = node.lineno
            return
        if isinstance(value, ast.Constant) and isinstance(
            value.value, (int, float, str)
        ):
            for name in names:
                self.summary.const_globals[name] = node.lineno
            return
        if isinstance(value, ast.Call):
            callee = _dotted_expr(value.func)
            if callee is not None:
                for name in names:
                    self.summary.module_assigns.append(
                        CallSite(
                            caller=name,
                            callee_expr=callee,
                            lineno=node.lineno,
                            col=node.col_offset + 1,
                            arg0="other",
                        )
                    )

    # -- references --------------------------------------------------------

    def visit_Name(self, node: ast.Name) -> None:
        self.summary.refs.append(node.id)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.summary.refs.append(node.attr)
        self.generic_visit(node)

    def _record_ref_expr(self, node: ast.AST) -> None:
        for child in ast.walk(node):
            if isinstance(child, ast.Name):
                self.summary.refs.append(child.id)
            elif isinstance(child, ast.Attribute):
                self.summary.refs.append(child.attr)


def summarize_module(
    tree: ast.Module,
    module: str,
    relpath: str,
    noqa: Optional[Dict[int, Iterable[str]]] = None,
) -> ModuleSummary:
    """Build a :class:`ModuleSummary` from a parsed module."""
    visitor = _Summarizer(module, relpath)
    visitor.visit(tree)
    summary = visitor.summary
    summary.refs = sorted(set(summary.refs))
    if noqa:
        summary.noqa = {
            int(line): sorted(ids) for line, ids in noqa.items()
        }
    return summary


class ProjectModel:
    """Resolved whole-program view over a set of module summaries."""

    def __init__(self, summaries: Iterable[ModuleSummary]) -> None:
        self.modules: Dict[str, ModuleSummary] = {}
        for summary in summaries:
            self.modules[summary.module] = summary
        self._resolution_cache: Dict[Tuple[str, str], Optional[str]] = {}
        self._call_graph: Optional[Dict[str, Set[str]]] = None
        self._reverse_calls: Optional[Dict[str, Set[str]]] = None
        #: Modules analyzed with per-file rules enabled (set by the
        #: engine); project rules report findings in these alone.
        self.lint_modules: Set[str] = set()

    # -- name resolution ---------------------------------------------------

    def module_of(self, qualname: str) -> Optional[str]:
        """The defining module of a qualified name (longest prefix)."""
        parts = qualname.split(".")
        for end in range(len(parts), 0, -1):
            candidate = ".".join(parts[:end])
            if candidate in self.modules:
                return candidate
        return None

    def resolve(self, module: str, dotted: str) -> Optional[str]:
        """Resolve a dotted expression in ``module`` to a qualified name.

        Follows import bindings (including aliases and re-exports
        through package ``__init__`` modules) and ``from x import *``.
        Returns ``None`` when the head name is unknown (builtins,
        locals, call results).
        """
        key = (module, dotted)
        if key in self._resolution_cache:
            return self._resolution_cache[key]
        result = self._resolve_uncached(module, dotted, seen=set())
        self._resolution_cache[key] = result
        return result

    def _resolve_uncached(
        self, module: str, dotted: str, seen: Set[Tuple[str, str]]
    ) -> Optional[str]:
        if (module, dotted) in seen:
            return None
        seen.add((module, dotted))
        summary = self.modules.get(module)
        if summary is None:
            return dotted
        head, _, rest = dotted.partition(".")
        target: Optional[str] = None
        if head in summary.bindings:
            target = summary.bindings[head]
        else:
            for star_target in summary.star_imports:
                star_summary = self.modules.get(star_target)
                if star_summary is None:
                    continue
                visible = (
                    set(star_summary.exports)
                    if star_summary.exports
                    else {
                        name
                        for name in star_summary.bindings
                        if not name.startswith("_")
                    }
                )
                if head in visible:
                    target = f"{star_target}.{head}"
                    break
        if target is None:
            return None
        full = f"{target}.{rest}" if rest else target
        return self._canonicalize(full, seen)

    def _canonicalize(
        self, qualname: str, seen: Set[Tuple[str, str]]
    ) -> str:
        """Follow re-export chains: ``pkg.Name`` -> ``pkg.impl.Name``."""
        owner = self.module_of(qualname)
        if owner is None or owner == qualname:
            return qualname
        remainder = qualname[len(owner) + 1:]
        summary = self.modules[owner]
        head = remainder.split(".")[0]
        if f"{owner}.{head}" in summary.functions:
            return qualname
        if head in summary.bindings:
            followed = self._resolve_uncached(owner, remainder, seen)
            if followed is not None:
                return followed
        return qualname

    # -- call graph --------------------------------------------------------

    def resolve_call(self, summary: ModuleSummary, call: CallSite) -> Optional[str]:
        """Resolve one call site to a qualified callee name."""
        expr = call.callee_expr
        head, _, rest = expr.partition(".")
        if call.caller != MODULE_SCOPE:
            # Lexical scoping: a bare call inside a function may name a
            # sibling or enclosing-scope definition before module scope.
            caller_parts = call.caller.split(".")
            for end in range(len(caller_parts), 0, -1):
                candidate = ".".join(caller_parts[:end] + [expr])
                if candidate in summary.functions:
                    return candidate
        if head in ("self", "cls") and rest and call.caller != MODULE_SCOPE:
            # `self.helper()` inside module.Class.method -> module.Class.helper
            caller_parts = call.caller.split(".")
            if len(caller_parts) >= 2:
                class_qualname = ".".join(caller_parts[:-1])
                candidate = f"{class_qualname}.{rest}"
                if candidate in summary.functions:
                    return candidate
            return None
        return self.resolve(summary.module, expr)

    def call_graph(self) -> Dict[str, Set[str]]:
        """Resolved edges: caller qualname -> set of callee qualnames.

        Callees include intra-project functions and external dotted
        names (e.g. ``time.time``); unresolvable calls are dropped.
        Module-level call sites appear under ``<module name>`` itself
        so taint can flow through import-time execution too.
        """
        if self._call_graph is not None:
            return self._call_graph
        graph: Dict[str, Set[str]] = {}
        for module in sorted(self.modules):
            summary = self.modules[module]
            for call in summary.calls:
                callee = self.resolve_call(summary, call)
                if callee is None:
                    continue
                caller = (
                    module if call.caller == MODULE_SCOPE else call.caller
                )
                graph.setdefault(caller, set()).add(callee)
        self._call_graph = graph
        return graph

    def reverse_call_graph(self) -> Dict[str, Set[str]]:
        """Resolved edges: callee qualname -> set of caller qualnames."""
        if self._reverse_calls is not None:
            return self._reverse_calls
        reverse: Dict[str, Set[str]] = {}
        for caller, callees in self.call_graph().items():
            for callee in callees:
                reverse.setdefault(callee, set()).add(caller)
        self._reverse_calls = reverse
        return reverse

    def tainted_from(
        self, sinks: Iterable[str]
    ) -> Dict[str, List[str]]:
        """Functions transitively reaching any sink, with witness chains.

        Returns ``{qualname: [qualname, ..., sink]}`` — for every
        function that can reach a sink through the call graph, one
        deterministic (lexicographically first) witness path.
        """
        reverse = self.reverse_call_graph()
        chains: Dict[str, List[str]] = {}
        frontier: List[str] = []
        for sink in sorted(set(sinks)):
            if sink in reverse:
                chains[sink] = [sink]
                frontier.append(sink)
        while frontier:
            frontier.sort()
            next_frontier: List[str] = []
            for node in frontier:
                for caller in sorted(reverse.get(node, ())):
                    if caller in chains:
                        continue
                    chains[caller] = [caller] + chains[node]
                    next_frontier.append(caller)
            frontier = next_frontier
        return chains

    def reachable_from(
        self, roots: Iterable[str]
    ) -> Dict[str, List[str]]:
        """Functions reachable from any root, with witness chains.

        The forward complement of :meth:`tainted_from`: returns
        ``{qualname: [root, ..., qualname]}`` for every function an
        entry point can reach through the call graph, including the
        roots themselves.  Chains are deterministic (breadth-first,
        lexicographically first witness).
        """
        graph = self.call_graph()
        chains: Dict[str, List[str]] = {}
        frontier: List[str] = []
        for root in sorted(set(roots)):
            if root not in chains:
                chains[root] = [root]
                frontier.append(root)
        while frontier:
            frontier.sort()
            next_frontier: List[str] = []
            for node in frontier:
                for callee in sorted(graph.get(node, ())):
                    if callee in chains:
                        continue
                    chains[callee] = chains[node] + [callee]
                    next_frontier.append(callee)
            frontier = next_frontier
        return chains

    # -- exception hierarchy -----------------------------------------------

    def exception_ancestors(self, qualname: str) -> Set[str]:
        """Resolved base classes of an exception type, transitively.

        Walks the recorded class-definition facts, resolving each base
        expression in its defining module.  Bases defined outside the
        project (builtins such as ``Exception``) terminate a chain;
        ``BaseException`` is implied whenever ``Exception`` or another
        standard root is reached.
        """
        out: Set[str] = set()
        stack = [qualname]
        seen: Set[str] = set()
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            if current != qualname:
                out.add(current)
            owner = self.module_of(current)
            if owner is None:
                if current.split(".")[-1] != "BaseException":
                    out.add("BaseException")
                continue
            for base in self.modules[owner].classes.get(current, []):
                resolved = self.resolve(owner, base) or base
                stack.append(resolved)
        return out

    # -- reference index ---------------------------------------------------

    def reference_index(self) -> Dict[str, Set[str]]:
        """Identifier -> set of modules whose source mentions it."""
        index: Dict[str, Set[str]] = {}
        for module in sorted(self.modules):
            for name in self.modules[module].refs:
                index.setdefault(name, set()).add(module)
        return index

    def is_suppressed(self, module: str, line: int, rule_id: str) -> bool:
        """Whether a ``# repro: noqa`` comment covers a program finding."""
        summary = self.modules.get(module)
        if summary is None:
            return False
        ids = summary.noqa.get(line)
        if ids is None:
            return False
        return "*" in ids or rule_id in ids


def model_from_sources(sources: Dict[str, str]) -> ProjectModel:
    """Build a model straight from ``{relpath: source}`` (test helper)."""
    from repro.analysis.engine import module_name_for, parse_noqa
    from pathlib import Path

    summaries = []
    for relpath in sorted(sources):
        source = sources[relpath]
        tree = ast.parse(source)
        noqa_map, _ = parse_noqa(source)
        summaries.append(
            summarize_module(
                tree,
                module_name_for(Path(relpath)),
                relpath,
                noqa={line: ids for line, ids in noqa_map.items()},
            )
        )
    return ProjectModel(summaries)
