"""The effect-flow REP20x rules.

Built on the per-function effect summaries collected by
:mod:`repro.analysis.project`, these rules verify the durability and
concurrency invariants that PRs 4–5 established by convention:

========  ==============================================================
REP201    every durable write goes through a sanctioned atomic writer
REP202    crash-signal exceptions are never swallowed on resilient paths
REP203    pool/thread workers never mutate shared module-level state
REP204    cache-backing fields are only mutated under a generation bump
========  ==============================================================

REP201 and REP204 read a module's own effect facts (plus, for REP204,
same-class callees in the same module).  REP202 and REP203 follow
reachability, so the roots and spawn sites that make a function
reachable may live in *other* modules, reference trees included.
Every rule runs over the whole model on each recompute.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.config import AnalysisConfig
from repro.analysis.findings import Finding, Severity
from repro.analysis.project import (
    MODULE_SCOPE,
    CallSite,
    FunctionEffects,
    ModuleSummary,
    ProjectModel,
)
from repro.analysis.rules import ProjectRule, register

#: Qualified callee names treated as filesystem write sinks when a
#: recorded ``"call"``-kind write site resolves to them.
WRITE_SINK_QUALNAMES = frozenset({
    "numpy.save",
    "numpy.savez",
    "numpy.savez_compressed",
})
#: Exceptions that signal a crash or an open breaker; swallowing one
#: converts an injected fault or an interrupt into silent corruption.
CRASH_SIGNALS = frozenset({
    "repro.errors.InjectedCrashError",
    "repro.errors.CircuitOpenError",
    "KeyboardInterrupt",
})
#: Ancestry fallback used when ``repro.errors`` is outside the model
#: (small fixture projects); the real hierarchy wins when present.
_FALLBACK_ANCESTRY: Dict[str, Tuple[str, ...]] = {
    "repro.errors.InjectedCrashError": (
        "repro.errors.ReproError", "Exception", "BaseException",
    ),
    "repro.errors.CircuitOpenError": (
        "repro.errors.ReproError", "Exception", "BaseException",
    ),
    "KeyboardInterrupt": ("BaseException",),
}
#: The generation counter REP204 audits, and methods exempt from the
#: bump requirement (construction and unpickling build state from
#: scratch; there is no stale cache to invalidate yet).
GENERATION_FIELD = "_generation"
_CONSTRUCTOR_METHODS = frozenset({"__init__", "__new__", "__setstate__"})


def _iter_effects(
    summary: ModuleSummary,
) -> Iterable[Tuple[str, FunctionEffects]]:
    """(qualname, effects) pairs in deterministic order."""
    for qualname in sorted(summary.effects):
        yield qualname, summary.effects[qualname]


def _graph_node(summary: ModuleSummary, fx_key: str) -> str:
    """Call-graph node name for an effects key (module-level calls
    appear under the module name itself)."""
    return summary.module if fx_key == MODULE_SCOPE else fx_key


@register
class AtomicWriteDiscipline(ProjectRule):
    """REP201 — durable writes go through sanctioned atomic writers.

    Invariant:
        Outside the configured ``atomic-io-modules`` (by default
        ``repro.passivedns.spill``), no
        function may write a file with a raw ``open(..., "w")``,
        ``Path.write_text``/``write_bytes``, or an ``np.save``-style
        serializer — unless the function itself performs the full
        atomic dance (``os.fsync`` **and** ``os.replace``/``os.rename``
        alongside the write).  Writes into in-memory ``BytesIO``/
        ``StringIO`` buffers are not filesystem writes.

    Why:
        PR 5 made the spill store crash-safe: every durable byte goes
        tmp-file + fsync + ``os.replace`` + directory sync, so a crash
        can never leave a half-written chunk behind.  One raw
        ``open(path, "w")`` elsewhere reintroduces exactly the torn
        write the fault-injection suite exists to rule out — and no
        per-file rule can tell a sanctioned helper from a bypass.

    Good::

        from repro.passivedns.spill import atomic_write_bytes

        def save(path, payload):
            atomic_write_bytes(path, payload)     # tmp+fsync+replace

    Bad::

        def save(path, payload):
            with open(path, "w") as handle:       # torn on crash
                handle.write(payload)
    """

    rule_id = "REP201"
    severity = Severity.ERROR
    description = (
        "raw filesystem writes are banned outside the sanctioned "
        "atomic-write modules (tmp+fsync+replace or bust)"
    )

    def check(
        self,
        project: ProjectModel,
        config: AnalysisConfig,
    ) -> Iterable[Finding]:
        """Flag raw write sites outside the atomic-IO sanction."""
        sanctioned = tuple(config.atomic_io_modules)
        for module in sorted(project.lint_modules):
            if module in sanctioned or any(
                module.startswith(prefix + ".") for prefix in sanctioned
            ):
                continue
            summary = project.modules[module]
            for qualname, fx in _iter_effects(summary):
                if fx.fsyncs and fx.replaces:
                    # The function is itself an atomic writer.
                    continue
                for site in fx.writes:
                    if site.kind == "call" and not self._is_sink(
                        project, summary, site.callee
                    ):
                        continue
                    where = (
                        "module level"
                        if qualname == MODULE_SCOPE
                        else f"{qualname}()"
                    )
                    detail = (
                        f"{site.callee}(mode={site.mode!r})"
                        if site.mode
                        else f"{site.callee}(...)"
                    )
                    yield self.project_finding(
                        config,
                        summary.relpath,
                        site.lineno,
                        site.col,
                        f"raw filesystem write {detail} at {where}; "
                        "route durable writes through a sanctioned "
                        "atomic writer "
                        f"({', '.join(sanctioned) or 'none configured'}) "
                        "or perform the full tmp+fsync+os.replace dance "
                        "in this function",
                    )

    def _is_sink(
        self, project: ProjectModel, summary: ModuleSummary, callee: str
    ) -> bool:
        resolved = project.resolve(summary.module, callee)
        return (resolved or callee) in WRITE_SINK_QUALNAMES


@register
class CrashSignalSwallow(ProjectRule):
    """REP202 — crash signals survive every resilient except-clause.

    Invariant:
        On any path reachable from the configured ``resilient-roots``
        (retry loops, circuit breakers, the store pipeline), an
        ``except`` clause must not be able to catch
        ``InjectedCrashError``, ``CircuitOpenError``, or
        ``KeyboardInterrupt`` without re-raising.  A handler whose
        resolved type set (via the project's class hierarchy) covers a
        crash signal and whose body contains no ``raise`` swallows it.

    Why:
        The fault-injection suite only proves crash-safety if an
        injected crash actually crashes: a retry helper that catches
        bare ``Exception`` turns the injected fault into a silent
        retry, the recovery path is never exercised, and the
        crash-safety guarantee quietly becomes fiction.  The same
        handler also eats ``KeyboardInterrupt``-adjacent breaker
        signals, keeping a tripped circuit invisible.

    Good::

        try:
            store(batch)
        except TransientStoreError:        # sibling of the signals
            retry()

    Bad::

        try:
            store(batch)
        except Exception:                  # swallows InjectedCrashError
            retry()
    """

    rule_id = "REP202"
    severity = Severity.ERROR
    description = (
        "except clauses reachable from retry/pipeline roots must not "
        "swallow crash-signal exceptions (InjectedCrashError et al.)"
    )

    def check(
        self,
        project: ProjectModel,
        config: AnalysisConfig,
    ) -> Iterable[Finding]:
        """Flag swallowing handlers on resilient-reachable paths."""
        chains = project.reachable_from(self._roots(project, config))
        ancestry = {
            signal: self._ancestors(project, signal)
            for signal in CRASH_SIGNALS
        }
        for module in sorted(project.lint_modules):
            summary = project.modules[module]
            for qualname, fx in _iter_effects(summary):
                chain = chains.get(_graph_node(summary, qualname))
                if chain is None:
                    continue
                for site in fx.excepts:
                    if site.reraises:
                        continue
                    caught = self._swallowed(
                        project, summary, site, ancestry
                    )
                    if caught is None:
                        continue
                    handler = (
                        "bare except"
                        if site.bare
                        else f"except {', '.join(site.types)}"
                    )
                    via = " -> ".join(chain)
                    yield self.project_finding(
                        config,
                        summary.relpath,
                        site.lineno,
                        site.col,
                        f"{handler} can swallow crash signal "
                        f"{caught.rsplit('.', 1)[-1]} on a resilient "
                        f"path ({via}); narrow the handler types or "
                        "re-raise",
                    )

    def _roots(
        self, project: ProjectModel, config: AnalysisConfig
    ) -> Set[str]:
        roots: Set[str] = set()
        for prefix in config.resilient_roots:
            for module in project.modules:
                if module == prefix or module.startswith(prefix + "."):
                    roots.add(module)
                    roots.update(project.modules[module].functions)
        return roots

    def _ancestors(self, project: ProjectModel, signal: str) -> Set[str]:
        resolved = project.exception_ancestors(signal)
        return resolved | set(_FALLBACK_ANCESTRY.get(signal, ()))

    def _swallowed(
        self,
        project: ProjectModel,
        summary: ModuleSummary,
        site,
        ancestry: Dict[str, Set[str]],
    ) -> Optional[str]:
        """The first crash signal the handler can catch, if any."""
        if site.bare:
            return sorted(CRASH_SIGNALS)[0]
        for expr in site.types:
            handler = project.resolve(summary.module, expr) or expr
            for signal in sorted(CRASH_SIGNALS):
                if handler == signal or handler in ancestry[signal]:
                    return signal
        return None


@register
class WorkerSharedStateMutation(ProjectRule):
    """REP203 — pool/thread workers never mutate shared module state.

    Invariant:
        A function reachable from a ``ProcessPoolExecutor``/``Pool``
        dispatch (``pool.map``, ``executor.submit``, ...) or a
        ``Thread(target=...)`` entry point must not mutate
        module-level mutable state (rebinding via ``global``, item
        writes, or mutator-method calls on module-global containers)
        or captured state via ``nonlocal``.

    Why:
        The parallel lint engine fans work out over processes and the
        query-serving tier runs worker threads; a worker that appends to a module-global dict is
        a data race under threads and a silently-divergent no-op under
        processes (each child mutates its own copy).  Either way the
        result depends on the executor, not the seed — the exact
        nondeterminism this codebase exists to exclude.

    Good::

        def _shard(args):
            out = {}                  # worker-local accumulator
            out.update(compute(args))
            return out                # merged by the parent

    Bad::

        _RESULTS = {}

        def _shard(args):
            _RESULTS[args.key] = compute(args)   # lost under processes
    """

    rule_id = "REP203"
    severity = Severity.ERROR
    description = (
        "functions reachable from pool/thread entry points must not "
        "mutate module-level or captured mutable state"
    )

    def check(
        self,
        project: ProjectModel,
        config: AnalysisConfig,
    ) -> Iterable[Finding]:
        """Flag shared-state mutations inside reachable workers."""
        chains = project.reachable_from(self._entry_points(project))
        for module in sorted(project.lint_modules):
            summary = project.modules[module]
            shared = set(summary.mutable_globals) | {
                assign.caller for assign in summary.module_assigns
            }
            for qualname, fx in _iter_effects(summary):
                if qualname == MODULE_SCOPE:
                    continue
                chain = chains.get(qualname)
                if chain is None:
                    continue
                for site in fx.name_mutations:
                    if (
                        site.kind not in ("assign", "nonlocal")
                        and site.target not in shared
                    ):
                        continue
                    what = (
                        f"captured variable '{site.target}'"
                        if site.kind == "nonlocal"
                        else f"module-level state '{site.target}'"
                    )
                    via = " -> ".join(chain)
                    yield self.project_finding(
                        config,
                        summary.relpath,
                        site.lineno,
                        site.col,
                        f"{qualname.rsplit('.', 1)[-1]}() mutates "
                        f"{what} but runs in a pool/thread worker "
                        f"({via}); return results and merge in the "
                        "parent instead",
                    )

    def _entry_points(self, project: ProjectModel) -> Set[str]:
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
        return entries


@register
class CacheGenerationBump(ProjectRule):
    """REP204 — cache-backing fields mutate only under a generation bump.

    Invariant:
        In any class that maintains a ``_generation`` counter, a
        method that mutates instance state (``self._field = ...``,
        item writes, or in-place mutator calls) must bump
        ``_generation`` in the same method or in a same-class callee.
        Fields named ``*_cache`` and ``_generation`` itself are exempt
        (they are the derived side, not the backing side), as are
        ``__init__``/``__new__``/``__setstate__``.

    Why:
        ``PassiveDnsDatabase`` keys its memoized columns, aggregates,
        and indexes on ``self._generation``; a mutation that skips the
        bump leaves those caches answering queries from data that no
        longer exists.  The bug is invisible to tests that rebuild the
        database per case and only bites after a specific
        mutate-then-query order — precisely what a static effect rule
        can rule out wholesale.

    Good::

        def ingest(self, batch):
            self._chunks.append(batch)
            self._touch()              # bumps self._generation

    Bad::

        def ingest(self, batch):
            self._chunks.append(batch)  # caches now serve stale rows
    """

    rule_id = "REP204"
    severity = Severity.ERROR
    description = (
        "methods of generation-tracked classes must bump _generation "
        "when mutating cache-backing instance state"
    )

    def check(
        self,
        project: ProjectModel,
        config: AnalysisConfig,
    ) -> Iterable[Finding]:
        """Flag generation-less mutations in generation-tracked classes."""
        for module in sorted(project.lint_modules):
            summary = project.modules[module]
            for class_qualname in sorted(summary.classes):
                methods = self._methods(summary, class_qualname)
                if not self._tracks_generation(summary, methods):
                    continue
                yield from self._check_class(
                    project, config, summary, class_qualname, methods
                )

    def _methods(
        self, summary: ModuleSummary, class_qualname: str
    ) -> List[str]:
        prefix = class_qualname + "."
        return sorted(
            qualname
            for qualname, info in summary.functions.items()
            if qualname.startswith(prefix)
            and "." not in qualname[len(prefix):]
            and info.is_method
        )

    def _tracks_generation(
        self, summary: ModuleSummary, methods: List[str]
    ) -> bool:
        return any(self._bumps(summary, qualname) for qualname in methods)

    def _bumps(self, summary: ModuleSummary, qualname: str) -> bool:
        fx = summary.effects.get(qualname)
        return fx is not None and any(
            site.target == GENERATION_FIELD and site.kind == "assign"
            for site in fx.attr_mutations
        )

    def _check_class(
        self,
        project: ProjectModel,
        config: AnalysisConfig,
        summary: ModuleSummary,
        class_qualname: str,
        methods: List[str],
    ) -> Iterable[Finding]:
        graph = project.call_graph()
        prefix = class_qualname + "."
        for qualname in methods:
            name = qualname.rsplit(".", 1)[-1]
            if name in _CONSTRUCTOR_METHODS:
                continue
            fx = summary.effects.get(qualname)
            if fx is None:
                continue
            offending = [
                site
                for site in fx.attr_mutations
                if site.target != GENERATION_FIELD
                and not site.target.endswith("_cache")
            ]
            if not offending:
                continue
            if self._bump_reachable(summary, graph, prefix, qualname):
                continue
            site = offending[0]
            fields = sorted({s.target for s in offending})
            yield self.project_finding(
                config,
                summary.relpath,
                site.lineno,
                site.col,
                f"{name}() mutates {', '.join(fields)} of "
                f"generation-tracked class "
                f"{class_qualname.rsplit('.', 1)[-1]} without a "
                f"{GENERATION_FIELD} bump in this method or a "
                "same-class callee; stale caches will serve dead rows",
            )

    def _bump_reachable(
        self,
        summary: ModuleSummary,
        graph: Dict[str, Set[str]],
        prefix: str,
        qualname: str,
    ) -> bool:
        stack = [qualname]
        seen: Set[str] = set()
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            if self._bumps(summary, current):
                return True
            stack.extend(
                callee
                for callee in graph.get(current, ())
                if callee.startswith(prefix)
            )
        return False
