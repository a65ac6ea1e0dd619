"""The whole-program REP10x rules.

These rules run on the resolved :class:`~repro.analysis.project.ProjectModel`
rather than on single files, so they can see flows the per-file
REP001-REP009 pass structurally cannot:

========  ==============================================================
REP101    clock purity propagates through the call graph
REP102    RNG seed provenance: threaded, never stashed or constant
REP103    layering holds for dynamic (``importlib``) imports too
REP104    every exported name has a live reference somewhere
========  ==============================================================
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from repro.analysis.builtin import (
    WALL_CLOCK_QUALNAMES,
    layer_name,
    layer_of,
)
from repro.analysis.config import AnalysisConfig
from repro.analysis.findings import Finding, Severity
from repro.analysis.project import ModuleSummary, ProjectModel
from repro.analysis.rules import ProjectRule, register

#: Qualified names of the sanctioned RNG factories.
RNG_FACTORIES = frozenset({
    "repro.rand.make_rng",
    "repro.rand.SeedSequenceFactory",
})
#: Attribute spellings that also mint generators off a factory object.
RNG_FACTORY_METHODS = frozenset({"rng", "subfactory"})
#: Qualified names that perform a dynamic import.
DYNAMIC_IMPORTERS = frozenset({"importlib.import_module", "__import__"})


@register
class ClockPurityPropagation(ProjectRule):
    """REP101 — clock purity propagates through the call graph.

    Invariant:
        No public function outside ``repro.clock`` may *transitively*
        reach a wall-clock read (``time.time``, ``datetime.now``, ...)
        through any chain of intra-project calls.  REP001 bans the
        direct read; REP101 closes the laundering loophole.

    Why:
        The reproduction's headline guarantee is that one seed
        replays every table bit-for-bit over the simulated 8-year
        trace.  A wall-clock read hidden two modules away behind a
        helper silently re-introduces real time into that replay and
        invalidates reruns, exactly the indirect nondeterminism that
        per-file AST rules cannot see.

    Good::

        def stamp(clock: SimClock) -> int:
            return clock.now          # simulated time, threaded in

    Bad::

        def _hidden():
            return time.time()        # REP001 fires here ...

        def stamp():
            return _hidden()          # ... and REP101 fires here
    """

    rule_id = "REP101"
    severity = Severity.ERROR
    description = (
        "no public entry point may transitively reach a wall-clock "
        "read outside repro.clock (call-graph taint propagation)"
    )

    _BARRIER_PREFIX = "repro.clock"

    def check(
        self,
        project: ProjectModel,
        config: AnalysisConfig,
    ) -> Iterable[Finding]:
        """Flag public functions whose call chains reach a clock read."""
        chains = self._taint_chains(project)
        for module in sorted(project.lint_modules):
            if module.startswith(self._BARRIER_PREFIX):
                continue
            summary = project.modules[module]
            for qualname in sorted(summary.functions):
                info = summary.functions[qualname]
                chain = chains.get(qualname)
                if chain is None or not info.public:
                    continue
                if len(chain) <= 2:
                    # Direct reader: REP001 already reports it; REP101
                    # adds value only for laundered (indirect) chains.
                    continue
                witness = " -> ".join(chain)
                yield self.project_finding(
                    config,
                    summary.relpath,
                    info.lineno,
                    info.col,
                    f"public entry point {info.name}() transitively "
                    f"reaches wall-clock read {chain[-1]}() via "
                    f"{witness}; thread a repro.clock.SimClock instead",
                )

    def _taint_chains(self, project: ProjectModel) -> Dict[str, List[str]]:
        chains = project.tainted_from(WALL_CLOCK_QUALNAMES)
        # The sanctioned clock module is a taint barrier: anything it
        # does with real time is its own (exempt) business, so chains
        # running through it are cut.
        return {
            qualname: chain
            for qualname, chain in chains.items()
            if not any(
                step.startswith(self._BARRIER_PREFIX + ".")
                for step in chain[1:]
            )
            and not qualname.startswith(self._BARRIER_PREFIX + ".")
        }


@register
class SeedProvenance(ProjectRule):
    """REP102 — RNG seed provenance is threaded, never ambient.

    Invariant:
        A generator minted by ``rand.make_rng`` or a
        ``SeedSequenceFactory`` must be threaded through parameters or
        instance attributes.  It may never be stashed in a module
        global, and its seed may never be a literal constant or a
        module-level constant inside library code.

    Why:
        Module-global generators create hidden shared state: the
        stream a component sees then depends on import order and on
        every other consumer, so adding a feature perturbs unrelated
        tables.  Constant seeds re-derive the same stream no matter
        what the caller asked for, silently decoupling results from
        the top-level seed the paper's tables are keyed on.

    Good::

        class TraceGenerator:
            def __init__(self, seed: int) -> None:
                self._seeds = SeedSequenceFactory(seed)   # threaded

    Bad::

        _RNG = make_rng(42)        # module-global stash, constant seed

        def jitter():
            return _RNG.random()
    """

    rule_id = "REP102"
    severity = Severity.ERROR
    description = (
        "RNG streams must be threaded via parameters/attributes; "
        "module-global stashes and constant-derived seeds are banned"
    )

    _EXEMPT_PREFIX = "repro.rand"

    def check(
        self,
        project: ProjectModel,
        config: AnalysisConfig,
    ) -> Iterable[Finding]:
        """Flag module-global RNG stashes and constant-derived seeds."""
        for module in sorted(project.lint_modules):
            if module.startswith(self._EXEMPT_PREFIX):
                continue
            summary = project.modules[module]
            yield from self._check_module_globals(project, config, summary)
            yield from self._check_call_seeds(project, config, summary)

    def _check_module_globals(
        self, project: ProjectModel, config: AnalysisConfig, summary: ModuleSummary
    ) -> Iterable[Finding]:
        for assign in summary.module_assigns:
            resolved = project.resolve(summary.module, assign.callee_expr)
            tail = assign.callee_expr.rsplit(".", 1)[-1]
            if resolved in RNG_FACTORIES or (
                "." in assign.callee_expr and tail in RNG_FACTORY_METHODS
            ):
                yield self.project_finding(
                    config,
                    summary.relpath,
                    assign.lineno,
                    assign.col,
                    f"module-global RNG stash '{assign.caller} = "
                    f"{assign.callee_expr}(...)'; generators must be "
                    "threaded via parameters or instance attributes",
                )

    def _check_call_seeds(
        self, project: ProjectModel, config: AnalysisConfig, summary: ModuleSummary
    ) -> Iterable[Finding]:
        for call in summary.calls:
            resolved = project.resolve(summary.module, call.callee_expr)
            if resolved not in RNG_FACTORIES:
                continue
            factory = resolved.rsplit(".", 1)[-1]
            if call.arg0.startswith("const:"):
                yield self.project_finding(
                    config,
                    summary.relpath,
                    call.lineno,
                    call.col,
                    f"{factory}({call.arg0[len('const:'):]}) derives a "
                    "stream from a literal constant; seeds must flow "
                    "from the caller (parameter or factory child)",
                )
            elif call.arg0.startswith("name:"):
                name = call.arg0[len("name:"):]
                if name in summary.const_globals:
                    yield self.project_finding(
                        config,
                        summary.relpath,
                        call.lineno,
                        call.col,
                        f"{factory}({name}) derives a stream from "
                        f"module constant '{name}'; seeds must flow "
                        "from the caller (parameter or factory child)",
                    )


@register
class DynamicImportLayering(ProjectRule):
    """REP103 — layering holds for dynamic imports too.

    Invariant:
        ``importlib.import_module`` and ``__import__`` targets obey
        the same layer ordering as static imports (foundation <
        substrates < workloads < core < cli, nothing imports the CLI),
        including when the module name is forwarded through a helper's
        first parameter.  Non-literal targets in library code are
        flagged as unverifiable.

    Why:
        REP005 checks ``import``/``from`` statements, so a single
        ``importlib.import_module("repro.core.study")`` inside a
        substrate would silently re-invert the dependency DAG that
        keeps substrates reusable and the study layer swappable.

    Good::

        module = importlib.import_module("repro.dns.wire")  # downward

    Bad::

        # inside repro.dns (a substrate):
        study = importlib.import_module("repro.core.study")
    """

    rule_id = "REP103"
    severity = Severity.ERROR
    description = (
        "importlib/__import__ targets must obey import layering; "
        "non-literal dynamic imports in library code are unverifiable"
    )

    def check(
        self,
        project: ProjectModel,
        config: AnalysisConfig,
    ) -> Iterable[Finding]:
        """Resolve dynamic-import targets and enforce the layer DAG."""
        forwarders = self._forwarders(project, config)
        for module in sorted(project.lint_modules):
            summary = project.modules[module]
            for call in summary.calls:
                resolved = self._dynamic_importer(project, summary, call)
                if resolved is not None:
                    yield from self._check_site(config, summary, call, direct=True)
                    continue
                callee = project.resolve_call(summary, call)
                if callee in forwarders and call.arg0.startswith("const:"):
                    yield from self._check_site(
                        config, summary, call, direct=False, via=callee
                    )

    def _dynamic_importer(
        self, project: ProjectModel, summary: ModuleSummary, call
    ) -> Optional[str]:
        if call.callee_expr == "__import__":
            return "__import__"
        resolved = project.resolve(summary.module, call.callee_expr)
        return resolved if resolved in DYNAMIC_IMPORTERS else None

    def _forwarders(
        self, project: ProjectModel, config: AnalysisConfig
    ) -> Set[str]:
        """Functions whose first parameter flows into import_module."""
        found: Set[str] = set()
        for module in sorted(project.modules):
            summary = project.modules[module]
            for call in summary.calls:
                if self._dynamic_importer(project, summary, call) is None:
                    continue
                if not call.arg0.startswith("param:"):
                    continue
                param = call.arg0[len("param:"):]
                info = summary.functions.get(call.caller)
                if info is None:
                    continue
                positional = [p for p in info.params if p not in ("self", "cls")]
                if positional and positional[0] == param:
                    found.add(info.qualname)
        return found

    def _check_site(
        self,
        config: AnalysisConfig,
        summary: ModuleSummary,
        call,
        direct: bool,
        via: Optional[str] = None,
    ) -> Iterable[Finding]:
        source_layer = layer_of(summary.module)
        if source_layer is None:
            return
        if not call.arg0.startswith("const:"):
            if direct:
                yield self.project_finding(
                    config,
                    summary.relpath,
                    call.lineno,
                    call.col,
                    "dynamic import with a non-literal target; the "
                    "layering of this edge cannot be verified "
                    "statically — import statically or pass a literal",
                )
            return
        target = call.arg0[len("const:"):]
        suffix = f" (via {via}())" if via else ""
        if target in ("repro.cli", "repro.__main__") and summary.module not in (
            "repro.__main__",
        ):
            yield self.project_finding(
                config,
                summary.relpath,
                call.lineno,
                call.col,
                f"{summary.module} dynamically imports {target}"
                f"{suffix}; the CLI is the top of the stack and "
                "nothing may depend on it",
            )
            return
        target_layer = layer_of(target)
        if target_layer is None or target_layer <= source_layer:
            return
        yield self.project_finding(
            config,
            summary.relpath,
            call.lineno,
            call.col,
            f"{summary.module} (layer {layer_name(source_layer)}) "
            f"dynamically imports {target} (layer "
            f"{layer_name(target_layer)}){suffix}; imports must point "
            "toward the foundation even through importlib",
        )


@register
class DeadPublicApi(ProjectRule):
    """REP104 — every exported name has a live reference.

    Invariant:
        A name listed in a module's ``__all__`` must be referenced by
        at least one other module across src, tests, benchmarks, or
        examples (re-exports and the defining module itself do not
        count as references).

    Why:
        ``__all__`` is the package's public contract.  An exported
        name nobody references is untested, undocumented-by-use API
        surface that still must be kept deterministic and backward
        compatible forever; flagging it keeps the contract honest and
        the maintenance surface small.

    Good::

        # mod.py                      # elsewhere (src or tests)
        __all__ = ["parse"]           from mod import parse

    Bad::

        # mod.py — nothing anywhere mentions 'legacy_parse'
        __all__ = ["parse", "legacy_parse"]
    """

    rule_id = "REP104"
    severity = Severity.WARNING
    description = (
        "names exported via __all__ must be referenced somewhere in "
        "src, tests, benchmarks, or examples (dead public API)"
    )

    def check(
        self,
        project: ProjectModel,
        config: AnalysisConfig,
    ) -> Iterable[Finding]:
        """Cross-reference every ``__all__`` entry against the index."""
        index = project.reference_index()
        for module in sorted(project.lint_modules):
            summary = project.modules[module]
            for name in summary.exports:
                if name.startswith("__"):
                    continue
                if self._is_referenced(project, index, module, name):
                    continue
                yield self.project_finding(
                    config,
                    summary.relpath,
                    summary.exports_lineno or 1,
                    1,
                    f"exported name '{name}' in __all__ of "
                    f"{module} is never referenced by src, tests, "
                    "benchmarks, or examples (dead public API)",
                )

    def _is_referenced(
        self,
        project: ProjectModel,
        index: Dict[str, Set[str]],
        module: str,
        name: str,
    ) -> bool:
        for referrer in index.get(name, ()):
            if referrer == module:
                continue
            other = project.modules[referrer]
            if name in other.exports:
                # A bare re-export is not a use.
                continue
            if other.bindings.get(name) == f"{referrer}.{name}":
                # The defining module mentioning its own definition
                # (or a same-named sibling) is not an external use.
                continue
            return True
        return False
