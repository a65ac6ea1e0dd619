"""The rule plugin API and registry.

A rule subclasses :class:`Rule`, declares the AST node types it wants
to see, and yields :class:`Finding` objects from :meth:`Rule.visit`.
Registering is one decorator::

    @register
    class NoWallClock(Rule):
        rule_id = "REP001"
        ...

The engine walks each module's tree exactly once and dispatches every
node to the rules that declared interest in its type, so adding rules
does not add passes.
"""

from __future__ import annotations

import ast
import inspect
import re
import textwrap
from typing import Dict, Iterable, Iterator, List, Tuple, Type

from repro.analysis.findings import Finding, Severity
from repro.errors import ConfigError


class Rule:
    """Base class for all lint rules."""

    #: Whole-program rules set this True and implement :meth:`check`
    #: on a :class:`~repro.analysis.project.ProjectModel` instead of
    #: per-node :meth:`visit`.
    is_project_rule: bool = False

    #: Stable identifier, e.g. ``REP001``.  Used in output, ``noqa``
    #: comments, baselines, and configuration.
    rule_id: str = ""
    #: Default severity; configuration may override per rule.
    severity: Severity = Severity.ERROR
    #: One-line description shown by ``lint --list-rules``.
    description: str = ""
    #: AST node classes this rule wants dispatched to :meth:`visit`.
    node_types: Tuple[Type[ast.AST], ...] = ()

    def applies_to(self, ctx: "repro.analysis.engine.ModuleContext") -> bool:  # noqa: F821
        """Whether this rule runs at all for the given module."""
        return True

    def visit(self, node: ast.AST, ctx) -> Iterable[Finding]:
        """Yield findings for one dispatched node."""
        raise NotImplementedError

    def finding(self, ctx, node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at ``node`` in ``ctx``'s module."""
        return Finding(
            rule_id=self.rule_id,
            severity=ctx.severity_for(self),
            path=ctx.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


class ProjectRule(Rule):
    """Base class for whole-program (flow-sensitive) rules.

    A project rule never sees individual AST nodes; instead the engine
    hands it the resolved :class:`~repro.analysis.project.ProjectModel`
    once per run and the rule reports findings in the linted modules
    (``project.lint_modules``).
    """

    is_project_rule = True

    def visit(self, node: ast.AST, ctx) -> Iterable[Finding]:
        """Project rules take no per-node dispatch."""
        return ()

    def check(self, project, config) -> Iterable[Finding]:
        """Yield findings over the project model."""
        raise NotImplementedError

    def project_finding(
        self, config, relpath: str, line: int, col: int, message: str
    ) -> Finding:
        """Build a finding at an absolute project location."""
        override = config.severity_overrides.get(self.rule_id)
        return Finding(
            rule_id=self.rule_id,
            severity=override if override is not None else self.severity,
            path=relpath,
            line=line,
            col=col,
            message=message,
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not rule_cls.rule_id:
        raise ConfigError(f"rule {rule_cls.__name__} has no rule_id")
    if rule_cls.rule_id in _REGISTRY:
        raise ConfigError(f"duplicate rule id {rule_cls.rule_id}")
    _REGISTRY[rule_cls.rule_id] = rule_cls
    return rule_cls


def all_rule_ids() -> List[str]:
    """Sorted ids of every registered rule."""
    _ensure_builtin_loaded()
    return sorted(_REGISTRY)


def instantiate(rule_ids: Iterable[str]) -> List[Rule]:
    """Instances for the given ids, in sorted id order."""
    _ensure_builtin_loaded()
    instances = []
    for rule_id in sorted(set(rule_ids)):
        try:
            instances.append(_REGISTRY[rule_id]())
        except KeyError:
            raise ConfigError(f"unknown rule id {rule_id!r}") from None
    return instances


def iter_rules() -> Iterator[Type[Rule]]:
    """All registered rule classes in id order."""
    _ensure_builtin_loaded()
    for rule_id in sorted(_REGISTRY):
        yield _REGISTRY[rule_id]


def _ensure_builtin_loaded() -> None:
    # Deferred so that `rules` and `builtin` may import each other's
    # neighbours without a cycle at module import time.
    import repro.analysis.builtin  # noqa: F401  (registers on import)
    import repro.analysis.program_rules  # noqa: F401  (REP101-REP104)
    import repro.analysis.effect_rules  # noqa: F401  (REP201-REP204)
    import repro.analysis.concurrency_rules  # noqa: F401  (REP301-REP305)


#: Section headers every rule docstring must carry for ``--explain``.
EXPLAIN_SECTIONS = ("Invariant", "Why", "Good", "Bad")

_SECTION_HEADER_RE = re.compile(
    r"^(?P<name>Invariant|Why|Good|Bad)::?\s*(?P<inline>.*)$"
)


def explain_sections(rule_cls: Type[Rule]) -> Dict[str, str]:
    """Parse the ``Invariant/Why/Good/Bad`` sections of a rule docstring.

    Rule docstrings are the single source of truth for ``--explain``:
    a one-line summary, then an ``Invariant:`` statement, a ``Why:``
    rationale, and ``Good::`` / ``Bad::`` code examples.  Missing
    sections raise :class:`ConfigError` so an undocumented rule cannot
    ship silently.
    """
    doc = inspect.getdoc(rule_cls) or ""
    sections: Dict[str, List[str]] = {"Summary": []}
    current = "Summary"
    for line in doc.splitlines():
        # Headers sit at the left margin of the dedented docstring;
        # indented occurrences (inside an example) are body text.
        header = (
            _SECTION_HEADER_RE.match(line) if not line.startswith(" ") else None
        )
        if header is not None:
            current = header.group("name")
            sections[current] = (
                [header.group("inline")] if header.group("inline") else []
            )
            continue
        sections.setdefault(current, []).append(line)
    missing = [name for name in EXPLAIN_SECTIONS if name not in sections]
    if missing:
        raise ConfigError(
            f"rule {rule_cls.rule_id} docstring is missing explain "
            f"section(s): {', '.join(missing)}"
        )
    out: Dict[str, str] = {}
    for name, lines in sections.items():
        text = "\n".join(lines).strip("\n")
        out[name] = text.rstrip()
    return out


def explain(rule_id: str) -> str:
    """Human-readable explanation of one rule, from its docstring."""
    _ensure_builtin_loaded()
    normalized = rule_id.strip().upper()
    try:
        rule_cls = _REGISTRY[normalized]
    except KeyError:
        raise ConfigError(
            f"unknown rule id {rule_id!r} (see --list-rules)"
        ) from None
    sections = explain_sections(rule_cls)
    kind = "whole-program" if rule_cls.is_project_rule else "per-file"
    parts = [
        f"{rule_cls.rule_id} ({rule_cls.severity.value}, {kind}) — "
        f"{rule_cls.description}",
        "",
        "Invariant:",
        _indent(sections["Invariant"]),
        "",
        "Why:",
        _indent(sections["Why"]),
        "",
        "Good:",
        _indent(sections["Good"]),
        "",
        "Bad:",
        _indent(sections["Bad"]),
    ]
    return "\n".join(parts)


def _indent(text: str, prefix: str = "  ") -> str:
    return textwrap.indent(textwrap.dedent(text), prefix)
