"""The concurrency-safety and resource-lifecycle REP30x rules.

Built on the lock/with/resource facts collected by
:mod:`repro.analysis.project`, this fourth pass guards the invariants
the upcoming multi-tenant query tier depends on — *before* any
serving-layer code exists to violate them:

========  ==============================================================
REP301    a lock-protected field is protected on every write path
REP302    locks are always acquired in one global order (no cycles)
REP303    OS handles are closed on every path or owned by a context
REP304    no blocking IO (fsync/replace/open) while a lock is held
REP305    lazy-init fills of shared attributes happen under a lock
========  ==============================================================

REP303 and REP304 read a module's own facts plus the effect summaries
of its transitive imports.  For REP301, REP302 and REP305, spawn sites
and lock acquisitions anywhere in the project (reference trees
included) feed the reachability and ordering analyses.  Every rule
runs over the whole model on each recompute.

"Spawn-reachable" throughout means reachable through the call graph
from a ``Thread``/pool dispatch target or from any function of a
module named by the ``concurrency-roots`` config key (the query tier's
shared entry points).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.config import AnalysisConfig
from repro.analysis.effect_rules import _graph_node, _iter_effects
from repro.analysis.findings import Finding, Severity
from repro.analysis.project import (
    MODULE_SCOPE,
    CallSite,
    ModuleSummary,
    ProjectModel,
)
from repro.analysis.rules import ProjectRule, register

#: Constructors (and unpickling) run before the object is shared, so
#: their writes need no lock.
_CONSTRUCTOR_METHODS = frozenset({"__init__", "__new__", "__setstate__"})
#: External callees that block on IO or sleep; calling one while a
#: lock is held serializes every waiter behind the disk.
BLOCKING_QUALNAMES = frozenset({
    "os.fsync",
    "os.fdatasync",
    "os.replace",
    "os.rename",
    "time.sleep",
    "shutil.copy",
    "shutil.copy2",
    "shutil.copyfile",
    "shutil.copytree",
    "shutil.move",
    "shutil.rmtree",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "subprocess.run",
})


def _method_class(qualname: str, summary: ModuleSummary) -> Optional[str]:
    """The defining class qualname of a method, if it is one."""
    info = summary.functions.get(qualname)
    if info is None or not info.is_method:
        return None
    return qualname.rsplit(".", 1)[0]


class _LockIndex:
    """Recognized lock names for one project, shared by the REP30x rules.

    An attribute guard (``with self._lock:``) is recognized when the
    attribute name appears in the ``lock-attributes`` config list or
    is assigned a ``threading.Lock``-style factory anywhere in the
    project.  A bare-name guard is recognized when it names a
    module-level lock assignment in the module under analysis.
    """

    def __init__(self, project: ProjectModel, config: AnalysisConfig) -> None:
        self.attr_names: Set[str] = set(config.lock_attributes)
        #: module -> module-level lock names defined there.
        self.global_names: Dict[str, Set[str]] = {}
        for module in sorted(project.modules):
            for _, fx in _iter_effects(project.modules[module]):
                for lock in fx.locks:
                    if lock.scope == "attr":
                        self.attr_names.add(lock.target)
                    else:
                        self.global_names.setdefault(module, set()).add(
                            lock.target
                        )

    def guard_attr(self, expr: str) -> Optional[str]:
        """The lock-attribute name of a ``self.X``/``cls.X`` guard."""
        parts = expr.split(".")
        if parts[0] in ("self", "cls") and len(parts) == 2:
            if parts[1] in self.attr_names:
                return parts[1]
        return None

    def is_lock_expr(self, module: str, expr: str) -> bool:
        """Whether a with-context expression names a recognized lock."""
        if self.guard_attr(expr) is not None:
            return True
        return "." not in expr and expr in self.global_names.get(module, set())

    def is_guarded(self, module: str, guards: Sequence[str]) -> bool:
        """Whether any held with-context is a recognized lock."""
        return any(self.is_lock_expr(module, g) for g in guards)

    def canonical(
        self, module: str, summary: ModuleSummary, fx_key: str, expr: str
    ) -> Optional[str]:
        """Project-wide identity of a lock expression, or None.

        ``self._lock`` canonicalizes to ``<class qualname>._lock`` so
        the same instance lock acquired from two methods is one node
        in the ordering graph; module-level locks canonicalize to
        their resolved qualified name.
        """
        attr = self.guard_attr(expr)
        if attr is not None:
            owner = _method_class(fx_key, summary)
            return f"{owner}.{attr}" if owner else None
        if self.is_lock_expr(module, expr):
            return f"{module}.{expr}"
        return None


def _spawn_reachable(
    project: ProjectModel, config: AnalysisConfig
) -> Dict[str, List[str]]:
    """Witness chains for everything reachable from concurrent entry.

    Entry points are (a) resolved ``Thread``/pool dispatch targets
    anywhere in the project and (b) every function of every module
    matched by a ``concurrency-roots`` prefix.
    """
    entries: Set[str] = set()
    for module in sorted(project.modules):
        summary = project.modules[module]
        for fx_key, fx in _iter_effects(summary):
            for spawn in fx.spawns:
                call = CallSite(
                    caller=fx_key,
                    callee_expr=spawn.target,
                    lineno=spawn.lineno,
                    col=spawn.col,
                )
                resolved = project.resolve_call(summary, call)
                if resolved is None:
                    resolved = project.resolve(module, spawn.target)
                if resolved is not None:
                    entries.add(resolved)
    for prefix in config.concurrency_roots:
        for module in project.modules:
            if module == prefix or module.startswith(prefix + "."):
                entries.add(module)
                entries.update(project.modules[module].functions)
    return project.reachable_from(entries)


@register
class SharedStateLockDiscipline(ProjectRule):
    """REP301 — a lock-protected field is protected on every write path.

    Invariant:
        If any method of a class writes a field while holding a
        recognized lock (``with self._lock:`` with the attribute named
        in ``lock-attributes`` or assigned a ``threading.Lock``-style
        factory), then **every** spawn-reachable write of that field
        outside ``__init__``/``__new__``/``__setstate__`` must hold a
        recognized lock too.  The same applies to module-level globals
        in modules that define a module-level lock.

    Why:
        Inconsistent locksets are the classic statically-detectable
        race: one guarded write proves the author considers the field
        shared, so the unguarded write elsewhere is not a design
        choice but an oversight.  The query tier will hammer
        ``PassiveDnsDatabase``'s generation-keyed caches from many
        threads; a single unguarded cache fill reintroduces the torn
        read the locks were added to prevent.

    Good::

        def fill(self, key, value):
            with self._lock:
                self._agg_cache[key] = value      # always guarded

    Bad::

        def fill(self, key, value):
            with self._lock:
                self._agg_cache[key] = value

        def evict(self):
            self._agg_cache = {}                  # unguarded elsewhere
    """

    rule_id = "REP301"
    severity = Severity.ERROR
    description = (
        "fields written under a lock somewhere must be written under "
        "a lock everywhere spawn-reachable (inconsistent lockset)"
    )

    def check(
        self,
        project: ProjectModel,
        config: AnalysisConfig,
    ) -> Iterable[Finding]:
        """Flag unguarded writes to otherwise lock-guarded state."""
        locks = _LockIndex(project, config)
        chains = _spawn_reachable(project, config)
        for module in sorted(project.lint_modules):
            summary = project.modules[module]
            guarded_fields = self._guarded_fields(module, summary, locks)
            guarded_globals = self._guarded_globals(module, summary, locks)
            for qualname, fx in _iter_effects(summary):
                if qualname == MODULE_SCOPE:
                    continue
                name = qualname.rsplit(".", 1)[-1]
                if name in _CONSTRUCTOR_METHODS:
                    continue
                chain = chains.get(qualname)
                if chain is None:
                    continue
                owner = _method_class(qualname, summary)
                for site in fx.attr_mutations:
                    if owner is None:
                        break
                    if (owner, site.target) not in guarded_fields:
                        continue
                    if locks.is_guarded(module, site.guards):
                        continue
                    via = " -> ".join(chain)
                    yield self.project_finding(
                        config,
                        summary.relpath,
                        site.lineno,
                        site.col,
                        f"{name}() writes '{site.target}' without a "
                        f"lock, but the field is lock-guarded elsewhere "
                        f"in {owner.rsplit('.', 1)[-1]} and this method "
                        f"is spawn-reachable ({via}); hold the lock "
                        "here too",
                    )
                for site in fx.name_mutations:
                    if site.target not in guarded_globals:
                        continue
                    if locks.is_guarded(module, site.guards):
                        continue
                    via = " -> ".join(chain)
                    yield self.project_finding(
                        config,
                        summary.relpath,
                        site.lineno,
                        site.col,
                        f"{name}() writes module global "
                        f"'{site.target}' without a lock, but the "
                        "global is lock-guarded elsewhere and this "
                        f"function is spawn-reachable ({via}); hold "
                        "the lock here too",
                    )

    def _guarded_fields(
        self, module: str, summary: ModuleSummary, locks: _LockIndex
    ) -> Set[Tuple[str, str]]:
        """(class, field) pairs written under a lock somewhere."""
        out: Set[Tuple[str, str]] = set()
        for qualname, fx in _iter_effects(summary):
            owner = _method_class(qualname, summary)
            if owner is None:
                continue
            for site in fx.attr_mutations:
                if locks.is_guarded(module, site.guards):
                    out.add((owner, site.target))
        return out

    def _guarded_globals(
        self, module: str, summary: ModuleSummary, locks: _LockIndex
    ) -> Set[str]:
        """Module-global names written under a lock somewhere."""
        out: Set[str] = set()
        for _, fx in _iter_effects(summary):
            for site in fx.name_mutations:
                if locks.is_guarded(module, site.guards):
                    out.add(site.target)
        return out


@register
class LockOrderingCycles(ProjectRule):
    """REP302 — locks are always acquired in one global order.

    Invariant:
        The project-wide lock-acquisition graph — an edge A → B
        whenever lock B is acquired (directly by a nested ``with``, or
        transitively through a call) while lock A is held — must be
        acyclic.  Locks are identified project-wide: instance locks by
        ``<class>.<attr>``, module locks by their qualified name.

    Why:
        Two locks taken in opposite orders by two threads deadlock
        both forever; the freeze needs a precise interleaving, so it
        survives every test run and ships.  A static cycle check over
        the acquisition graph rules the whole class of hangs out
        before the query tier adds the second lock that makes it
        possible.

    Good::

        def transfer(self, other):
            first, second = sorted([self, other], key=id)
            with first._lock:
                with second._lock:        # one global order
                    ...

    Bad::

        def push(self):
            with self._lock:
                with _REGISTRY_LOCK: ...

        def drain(self):
            with _REGISTRY_LOCK:
                with self._lock: ...       # opposite order: deadlock
    """

    rule_id = "REP302"
    severity = Severity.ERROR
    description = (
        "the project-wide lock-acquisition graph (nested with "
        "statements + calls made while holding a lock) must be acyclic"
    )

    def check(
        self,
        project: ProjectModel,
        config: AnalysisConfig,
    ) -> Iterable[Finding]:
        """Flag cycles in the lock-acquisition graph with witnesses."""
        locks = _LockIndex(project, config)
        edges = self._acquisition_edges(project, locks)
        for cycle in self._cycles(edges):
            witness_edges = [
                (a, b)
                for a, b in zip(cycle, cycle[1:] + cycle[:1])
                if (a, b) in edges
            ]
            anchor = min(edges[e] for e in witness_edges)
            relpath, lineno, col, module = anchor
            if module not in project.lint_modules:
                continue
            steps = "; ".join(
                f"{b.rsplit('.', 1)[-1]} taken while holding "
                f"{a.rsplit('.', 1)[-1]} at {edges[(a, b)][0]}:"
                f"{edges[(a, b)][1]}"
                for a, b in witness_edges
            )
            ring = " -> ".join(
                name.rsplit(".", 1)[-1] for name in cycle + cycle[:1]
            )
            yield self.project_finding(
                config,
                relpath,
                lineno,
                col,
                f"lock ordering cycle {ring} ({steps}); pick one "
                "global acquisition order",
            )

    def _acquisition_edges(
        self, project: ProjectModel, locks: _LockIndex
    ) -> Dict[Tuple[str, str], Tuple[str, int, int, str]]:
        """held-lock → acquired-lock edges with first witness site.

        Direct edges come from nested ``with`` facts; transitive ones
        from call sites executed under a lock whose callee's forward
        closure acquires other locks.
        """
        edges: Dict[Tuple[str, str], Tuple[str, int, int, str]] = {}

        def add(key: Tuple[str, str], site: Tuple[str, int, int, str]) -> None:
            if key[0] != key[1] and (key not in edges or site < edges[key]):
                edges[key] = site

        acquired = self._acquired_closure(project, locks)
        for module in sorted(project.modules):
            summary = project.modules[module]
            for fx_key, fx in _iter_effects(summary):
                for info in fx.withs:
                    inner = locks.canonical(module, summary, fx_key, info.expr)
                    if inner is None:
                        continue
                    for held in info.held:
                        outer = locks.canonical(
                            module, summary, fx_key, held
                        )
                        if outer is not None:
                            add(
                                (outer, inner),
                                (summary.relpath, info.lineno, info.col,
                                 module),
                            )
            for call in summary.calls:
                if not call.guards:
                    continue
                callee = project.resolve_call(summary, call)
                if callee is None:
                    continue
                inner_locks = acquired.get(callee)
                if not inner_locks:
                    continue
                for held in call.guards:
                    outer = locks.canonical(
                        module, summary, call.caller, held
                    )
                    if outer is None:
                        continue
                    for inner in sorted(inner_locks):
                        add(
                            (outer, inner),
                            (summary.relpath, call.lineno, call.col, module),
                        )
        return edges

    def _acquired_closure(
        self, project: ProjectModel, locks: _LockIndex
    ) -> Dict[str, Set[str]]:
        """Function qualname → locks acquired in its forward closure."""
        direct: Dict[str, Set[str]] = {}
        for module in sorted(project.modules):
            summary = project.modules[module]
            for fx_key, fx in _iter_effects(summary):
                node = _graph_node(summary, fx_key)
                for info in fx.withs:
                    canon = locks.canonical(module, summary, fx_key, info.expr)
                    if canon is not None:
                        direct.setdefault(node, set()).add(canon)
        graph = project.call_graph()
        closure: Dict[str, Set[str]] = {}

        def resolve(node: str, stack: Set[str]) -> Set[str]:
            if node in closure:
                return closure[node]
            if node in stack:
                return direct.get(node, set())
            stack.add(node)
            out = set(direct.get(node, set()))
            for callee in graph.get(node, ()):
                if callee in direct or callee in graph:
                    out |= resolve(callee, stack)
            stack.discard(node)
            closure[node] = out
            return out

        for node in sorted(set(graph) | set(direct)):
            resolve(node, set())
        return closure

    def _cycles(
        self, edges: Dict[Tuple[str, str], Tuple[str, int, int, str]]
    ) -> List[List[str]]:
        """Deterministic list of elementary lock cycles (as node lists).

        Strongly connected components of the acquisition graph; every
        SCC with more than one node (or a self-loop) is reported once,
        rotated so the lexicographically smallest lock leads.
        """
        graph: Dict[str, Set[str]] = {}
        for a, b in edges:
            graph.setdefault(a, set()).add(b)
            graph.setdefault(b, set())
        index: Dict[str, int] = {}
        low: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        sccs: List[List[str]] = []
        counter = [0]

        def strongconnect(v: str) -> None:
            work = [(v, iter(sorted(graph[v])))]
            index[v] = low[v] = counter[0]
            counter[0] += 1
            stack.append(v)
            on_stack.add(v)
            while work:
                node, children = work[-1]
                advanced = False
                for child in children:
                    if child not in index:
                        index[child] = low[child] = counter[0]
                        counter[0] += 1
                        stack.append(child)
                        on_stack.add(child)
                        work.append((child, iter(sorted(graph[child]))))
                        advanced = True
                        break
                    if child in on_stack:
                        low[node] = min(low[node], index[child])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component: List[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    if len(component) > 1:
                        sccs.append(component)

        for node in sorted(graph):
            if node not in index:
                strongconnect(node)
        cycles: List[List[str]] = []
        for component in sccs:
            ordered = sorted(component)
            cycles.append(self._walk_cycle(ordered, graph))
        return sorted(cycles)

    def _walk_cycle(
        self, members: List[str], graph: Dict[str, Set[str]]
    ) -> List[str]:
        """One deterministic tour through an SCC, smallest node first."""
        inside = set(members)
        path = [members[0]]
        seen = {members[0]}
        current = members[0]
        while True:
            nxt = min(
                (n for n in graph[current] if n in inside), default=None
            )
            if nxt is None or nxt in seen:
                break
            path.append(nxt)
            seen.add(nxt)
            current = nxt
        return path


@register
class ResourceLifecycle(ProjectRule):
    """REP303 — OS handles are closed on every path or context-owned.

    Invariant:
        A handle from ``open()``, ``mmap.mmap``, or
        ``np.load(mmap_mode=...)`` bound to a local must be released on
        every path: a ``with`` block, ``contextlib.closing``, a
        ``try/finally`` close, or explicit ownership transfer (returned
        to the caller, passed into another call, or stored on the
        instance).  A close reachable only on the happy path does not
        count.

    Why:
        ``SpillStore`` streams mmap'd segments on every query; a
        handle leaked per-query exhausts the process's fd table under
        sustained load and takes the whole serving tier down — the
        classic slow-burn outage that never reproduces in short tests.
        An exception between acquire and close is enough to leak, so
        only structurally-guaranteed release passes.

    Good::

        def checksum(path):
            with open(path, "rb") as handle:
                return crc32(handle.read())

    Bad::

        def checksum(path):
            handle = open(path, "rb")
            value = crc32(handle.read())   # leak if read() raises
            handle.close()
            return value
    """

    rule_id = "REP303"
    severity = Severity.ERROR
    description = (
        "open()/mmap/np.load(mmap_mode=...) handles must be released "
        "via with/closing/try-finally or ownership transfer"
    )

    def check(
        self,
        project: ProjectModel,
        config: AnalysisConfig,
    ) -> Iterable[Finding]:
        """Flag resource acquisitions without guaranteed release."""
        for module in sorted(project.lint_modules):
            summary = project.modules[module]
            for qualname, fx in _iter_effects(summary):
                where = (
                    "module level"
                    if qualname == MODULE_SCOPE
                    else f"{qualname.rsplit('.', 1)[-1]}()"
                )
                closed = set(fx.closed)
                finally_closed = set(fx.finally_closed)
                for site in fx.resources:
                    if site.managed:
                        continue
                    if site.name and site.name in finally_closed:
                        continue
                    handle = (
                        f"'{site.name}'" if site.name else "its handle"
                    )
                    if site.name and site.name in closed:
                        hint = (
                            f"{handle} is closed only on the happy "
                            "path; move the close into a finally block "
                            "or use a with statement"
                        )
                    else:
                        hint = (
                            f"{handle} is never closed on any path; "
                            "use a with statement, contextlib.closing, "
                            "or a try/finally"
                        )
                    yield self.project_finding(
                        config,
                        summary.relpath,
                        site.lineno,
                        site.col,
                        f"{site.callee}(...) at {where} acquires an OS "
                        f"handle but {hint}",
                    )


@register
class BlockingCallUnderLock(ProjectRule):
    """REP304 — no blocking IO while a lock is held.

    Invariant:
        While a recognized lock is held (``with self._lock:`` or a
        module-level lock), no call may reach a blocking operation:
        ``os.fsync``/``fdatasync``, ``os.replace``/``rename``,
        ``time.sleep``, ``shutil``/``subprocess`` helpers, a raw
        ``open()``, or any project function whose forward call closure
        performs fsyncs, replaces, or opens handles (e.g. a segment
        CRC scan).

    Why:
        A lock held across an fsync turns every concurrent reader into
        a disk-latency victim: the classic tail-latency killer where
        p99 jumps from microseconds to the flush time of the slowest
        device.  Durability work must happen outside the critical
        section — compute under the lock, publish after, or snapshot
        state under the lock and write it after release.

    Good::

        def commit(self):
            payload = self._serialize()    # IO outside the lock
            write_atomic(self._path, payload)
            with self._lock:
                self._generation += 1      # short critical section

    Bad::

        def commit(self):
            with self._lock:
                write_atomic(self._path, self._serialize())  # fsync
                self._generation += 1      # readers stall on the disk
    """

    rule_id = "REP304"
    severity = Severity.ERROR
    description = (
        "calls made while holding a lock must not reach blocking IO "
        "(fsync/replace/open/sleep or project code that does)"
    )

    def check(
        self,
        project: ProjectModel,
        config: AnalysisConfig,
    ) -> Iterable[Finding]:
        """Flag lock-guarded calls whose closure blocks on IO."""
        locks = _LockIndex(project, config)
        blocking_cache: Dict[str, Optional[str]] = {}
        for module in sorted(project.lint_modules):
            summary = project.modules[module]
            for call in summary.calls:
                guard = next(
                    (
                        g
                        for g in call.guards
                        if locks.is_lock_expr(module, g)
                    ),
                    None,
                )
                if guard is None:
                    continue
                reason = self._blocking_reason(
                    project, summary, call, blocking_cache
                )
                if reason is None:
                    continue
                caller = (
                    "module level"
                    if call.caller == MODULE_SCOPE
                    else f"{call.caller.rsplit('.', 1)[-1]}()"
                )
                yield self.project_finding(
                    config,
                    summary.relpath,
                    call.lineno,
                    call.col,
                    f"{call.callee_expr}(...) at {caller} {reason} "
                    f"while '{guard}' is held; move the IO outside "
                    "the critical section",
                )

    def _blocking_reason(
        self,
        project: ProjectModel,
        summary: ModuleSummary,
        call: CallSite,
        cache: Dict[str, Optional[str]],
    ) -> Optional[str]:
        expr = call.callee_expr
        if expr in ("open", "io.open"):
            return "opens a file"
        resolved = project.resolve_call(summary, call) or project.resolve(
            summary.module, expr
        )
        target = resolved or expr
        if target in BLOCKING_QUALNAMES:
            return f"blocks ({target})"
        if resolved is not None and project.module_of(resolved) is not None:
            return self._closure_reason(project, resolved, cache)
        return None

    def _closure_reason(
        self,
        project: ProjectModel,
        qualname: str,
        cache: Dict[str, Optional[str]],
    ) -> Optional[str]:
        """Why a project function's forward closure blocks, if it does."""
        if qualname in cache:
            return cache[qualname]
        cache[qualname] = None  # cycle guard
        reason: Optional[str] = None
        module = project.module_of(qualname)
        fx = (
            project.modules[module].effects.get(qualname)
            if module is not None
            else None
        )
        if fx is not None:
            if fx.fsyncs:
                reason = f"reaches os.fsync (via {qualname})"
            elif fx.replaces:
                reason = f"reaches os.replace (via {qualname})"
            elif fx.resources:
                reason = f"opens OS handles (via {qualname})"
            elif fx.writes:
                reason = f"performs filesystem writes (via {qualname})"
        if reason is None:
            graph = project.call_graph()
            for callee in sorted(graph.get(qualname, ())):
                if callee in BLOCKING_QUALNAMES:
                    reason = f"reaches {callee} (via {qualname})"
                    break
                if project.module_of(callee) is not None:
                    reason = self._closure_reason(project, callee, cache)
                    if reason is not None:
                        break
        cache[qualname] = reason
        return reason


@register
class LazyInitRace(ProjectRule):
    """REP305 — lazy-init fills of shared attributes happen under a lock.

    Invariant:
        A ``if self._x is None: self._x = ...`` (or ``if not
        self._x:``) check-then-fill in a spawn-reachable method must
        execute with a recognized lock held; the test and the
        assignment are otherwise not atomic.

    Why:
        Two threads observing ``None`` simultaneously both run the
        expensive build and the loser's result is silently discarded —
        or, worse, a half-published object escapes to the winner.  The
        generation-keyed caches this codebase leans on are exactly
        such fills; under the query tier's thread pool the race moves
        from theoretical to every-busy-second.

    Good::

        def index(self):
            with self._lock:
                if self._index is None:
                    self._index = self._build_index()
                return self._index

    Bad::

        def index(self):
            if self._index is None:             # two threads both pass
                self._index = self._build_index()
            return self._index
    """

    rule_id = "REP305"
    severity = Severity.ERROR
    description = (
        "check-then-fill lazy initialization of instance attributes "
        "in spawn-reachable methods must hold a lock"
    )

    def check(
        self,
        project: ProjectModel,
        config: AnalysisConfig,
    ) -> Iterable[Finding]:
        """Flag unguarded lazy-init fills on spawn-reachable paths."""
        locks = _LockIndex(project, config)
        chains = _spawn_reachable(project, config)
        for module in sorted(project.lint_modules):
            summary = project.modules[module]
            for qualname, fx in _iter_effects(summary):
                if qualname == MODULE_SCOPE:
                    continue
                name = qualname.rsplit(".", 1)[-1]
                if name in _CONSTRUCTOR_METHODS:
                    continue
                chain = chains.get(qualname)
                if chain is None:
                    continue
                for site in fx.lazy_inits:
                    if locks.is_guarded(module, site.guards):
                        continue
                    via = " -> ".join(chain)
                    yield self.project_finding(
                        config,
                        summary.relpath,
                        site.lineno,
                        site.col,
                        f"{name}() lazily initializes "
                        f"'{site.target}' without a lock on a "
                        f"spawn-reachable path ({via}); guard the "
                        "check-then-fill with the instance lock",
                    )
