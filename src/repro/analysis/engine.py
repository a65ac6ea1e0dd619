"""The two-pass analysis engine.

Pass one (per file): for every Python file under the configured paths
the engine parses the source once, walks the tree once, and dispatches
each node to the rules that registered interest in its type, while
simultaneously extracting the module's whole-program facts (a
:class:`~repro.analysis.project.ModuleSummary`).  Pass two (whole
program): the summaries are assembled into a
:class:`~repro.analysis.project.ProjectModel` and handed to the
flow-sensitive REP10x rules.

The per-file pass is embarrassingly parallel (``jobs > 1`` fans it out
over a process pool) and cacheable (an :class:`AnalysisCache` keyed by
content hash skips unchanged files).  The whole-program pass either
replays the cached findings, when no file was re-analyzed, unreadable
or vanished, or runs every project rule over the whole model.

Suppressions are ordinary comments::

    value = fetch()  # repro: noqa[REP007] insertion order is the axis order

``# repro: noqa`` with no bracket suppresses every rule on that line.
An unknown rule id inside the brackets is itself reported as
``REP000`` so typos cannot silently disable a check.
"""

from __future__ import annotations

import ast
import concurrent.futures
import io
import re
import time
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis import cache as cache_mod
from repro.analysis.config import AnalysisConfig
from repro.analysis.findings import META_RULE_ID, Finding, Severity
from repro.analysis.project import ModuleSummary, ProjectModel, summarize_module
from repro.analysis.rules import Rule

#: Sentinel stored in the noqa map when a bare ``# repro: noqa``
#: suppresses every rule on the line.
ALL_RULES = "*"

#: Optional whitespace before the bracket is accepted (``noqa [REP301]``)
#: — without it the bracket is unparsed and a targeted suppression
#: silently degrades to suppress-everything.  Text *after* the closing
#: bracket (a trailing prose comment) never affects the id list.
_NOQA_RE = re.compile(
    r"repro:\s*noqa(?:\s*\[(?P<ids>[^\]]*)\])?", re.IGNORECASE
)


@dataclass
class ModuleContext:
    """Everything a rule may need to know about the module under analysis."""

    path: Path
    relpath: str
    module: str
    tree: ast.Module
    source: str
    config: AnalysisConfig
    noqa: Dict[int, Set[str]] = field(default_factory=dict)
    _parents: Dict[int, ast.AST] = field(default_factory=dict)

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        """The syntactic parent of ``node`` (None for the module)."""
        return self._parents.get(id(node))

    def ancestors(self, node: ast.AST) -> Iterable[ast.AST]:
        """Parents of ``node`` from innermost to the module root."""
        current = self.parent(node)
        while current is not None:
            yield current
            current = self.parent(current)

    def severity_for(self, rule: Rule) -> Severity:
        """Configured severity for a rule (default: the rule's own)."""
        override = self.config.severity_overrides.get(rule.rule_id)
        return override if override is not None else rule.severity

    def is_suppressed(self, finding: Finding) -> bool:
        """Whether an inline ``noqa`` comment covers this finding."""
        ids = self.noqa.get(finding.line)
        if ids is None:
            return False
        return ALL_RULES in ids or finding.rule_id in ids


def module_name_for(path: Path, root_hint: str = "repro") -> str:
    """Dotted module name for a file path, rooted at ``root_hint``.

    Files outside any ``repro`` package (fixtures, examples) get a
    name derived from their stem so rules keyed on module names treat
    them as external code.
    """
    parts = list(path.parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts.pop()
    if root_hint in parts:
        index = len(parts) - 1 - parts[::-1].index(root_hint)
        return ".".join(parts[index:]) or root_hint
    return parts[-1] if parts else ""


def parse_noqa(source: str) -> Tuple[Dict[int, Set[str]], List[Tuple[int, str]]]:
    """Extract suppression comments from source text.

    Returns ``(noqa_map, unknown)`` where ``noqa_map`` maps line
    numbers to suppressed rule-id sets (or :data:`ALL_RULES`) and
    ``unknown`` lists ``(line, rule_id)`` pairs for ids that match no
    registered rule.  Comment detection uses :mod:`tokenize`, so
    ``repro: noqa`` inside a string literal is never a suppression.
    """
    from repro.analysis.rules import all_rule_ids

    known = set(all_rule_ids())
    noqa_map: Dict[int, Set[str]] = {}
    unknown: List[Tuple[int, str]] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [
            (token.start[0], token.string)
            for token in tokens
            if token.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, SyntaxError, IndentationError):
        comments = []
    for line, text in comments:
        match = _NOQA_RE.search(text)
        if match is None:
            continue
        ids_text = match.group("ids")
        if ids_text is None:
            noqa_map.setdefault(line, set()).add(ALL_RULES)
            continue
        for raw in ids_text.split(","):
            rule_id = raw.strip().upper()
            if not rule_id:
                continue
            if rule_id not in known:
                unknown.append((line, rule_id))
            noqa_map.setdefault(line, set()).add(rule_id)
    return noqa_map, unknown


def _build_parents(tree: ast.Module) -> Dict[int, ast.AST]:
    parents: Dict[int, ast.AST] = {}
    stack: List[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        for child in ast.iter_child_nodes(node):
            parents[id(child)] = node
            stack.append(child)
    return parents


def reference_module_name(relpath: str) -> str:
    """Unique dotted name for a reference-scope file.

    Reference trees (tests, benchmarks, examples) contain many files
    with colliding stems (``conftest.py``, ``__init__.py``), so their
    module names derive from the full repo-relative path — two
    distinct files can never shadow each other's facts in the model.
    """
    parts = list(Path(relpath).parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


@dataclass
class RunStats:
    """Profile of one :meth:`Analyzer.run` for ``--statistics``.

    Wall times come from ``time.perf_counter`` (a monotonic interval
    clock, not wall-clock state) and describe only where lint time
    went; they are never part of the finding set or the cache key.
    """

    files: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: Seconds per engine pass: ``"per-file"`` and ``"whole-program"``.
    pass_seconds: Dict[str, float] = field(default_factory=dict)
    #: Seconds per project rule actually recomputed this run (empty on
    #: a fully-cached replay).
    rule_seconds: Dict[str, float] = field(default_factory=dict)
    #: Findings per rule id, before baseline filtering.
    rule_counts: Dict[str, int] = field(default_factory=dict)

    def to_json(self) -> Dict[str, object]:
        """Serializable form for the JSON report header."""
        return {
            "files": self.files,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "pass_seconds": {
                name: round(seconds, 6)
                for name, seconds in sorted(self.pass_seconds.items())
            },
            "rule_seconds": {
                rule: round(seconds, 6)
                for rule, seconds in sorted(self.rule_seconds.items())
            },
            "rule_counts": dict(sorted(self.rule_counts.items())),
        }

    def render(self) -> str:
        """Human-oriented multi-line profile for the text output."""
        lines = [
            "-- statistics --",
            f"files analyzed: {self.files} "
            f"(cache hits {self.cache_hits}, misses {self.cache_misses})",
        ]
        for name, seconds in sorted(self.pass_seconds.items()):
            lines.append(f"pass {name}: {seconds * 1000.0:.1f} ms")
        for rule, seconds in sorted(self.rule_seconds.items()):
            lines.append(f"rule {rule}: {seconds * 1000.0:.1f} ms")
        counted = {r: c for r, c in sorted(self.rule_counts.items()) if c}
        if counted:
            lines.append(
                "findings by rule: "
                + ", ".join(f"{r}={c}" for r, c in counted.items())
            )
        else:
            lines.append("findings by rule: none")
        return "\n".join(lines)


@dataclass
class _FileResult:
    """Per-file outcome: lint findings plus whole-program facts."""

    findings: List[Finding] = field(default_factory=list)
    summary: Optional[Dict[str, object]] = None
    #: Whether per-file rules ran — the program pass scopes its
    #: findings to linted modules (reference scans contribute facts
    #: but never receive findings).
    lint: bool = True


#: Per-process analyzer reused across items of a parallel run.
_WORKER_ANALYZER: Dict[str, object] = {}


def _analyze_in_worker(item: Tuple) -> Tuple:
    """Process-pool entry point for one file of the per-file pass."""
    relpath, source, lint, config, rule_ids, want_summary = item
    from repro.analysis.rules import instantiate

    key = tuple(rule_ids)
    analyzer = _WORKER_ANALYZER.get("analyzer")
    if analyzer is None or _WORKER_ANALYZER.get("key") != key:
        analyzer = Analyzer(config, instantiate(rule_ids))
        # Per-process memo: ProcessPoolExecutor gives each worker its
        # own module copy, so this never races or leaks across workers.
        _WORKER_ANALYZER["analyzer"] = analyzer  # repro: noqa[REP203]
        _WORKER_ANALYZER["key"] = key  # repro: noqa[REP203]
    findings, summary = analyzer.check_source_and_summary(
        source, relpath, lint=lint, want_summary=want_summary
    )
    return relpath, [f.to_json() for f in findings], summary


class Analyzer:
    """Runs the per-file pass and the whole-program pass over a tree."""

    def __init__(self, config: AnalysisConfig, rules: Sequence[Rule]) -> None:
        self.config = config
        self.rules = list(rules)
        self.file_rules = [
            rule for rule in self.rules if not rule.is_project_rule
        ]
        self.project_rules = [
            rule for rule in self.rules if rule.is_project_rule
        ]
        self._dispatch: Dict[type, List[Rule]] = {}
        for rule in self.file_rules:
            for node_type in rule.node_types:
                self._dispatch.setdefault(node_type, []).append(rule)
        #: Profile of the most recent :meth:`run` (``--statistics``).
        self.last_stats = RunStats()

    def run(
        self,
        root: Path,
        paths: Sequence[Path],
        honor_excludes: bool = True,
        jobs: int = 1,
        cache: Optional[cache_mod.AnalysisCache] = None,
    ) -> List[Finding]:
        """Analyze every file and return findings sorted by location.

        ``honor_excludes=False`` disables the configured exclude
        patterns — used when the caller named the paths explicitly, so
        an ``examples/*`` exclude cannot silently turn an explicit
        ``lint examples`` into a no-op.  ``jobs > 1`` fans the
        per-file pass out over a process pool; ``cache`` (an
        :class:`~repro.analysis.cache.AnalysisCache`) skips files
        whose content hash is unchanged and, when every file hit and
        none vanished, replays the cached whole-program findings.
        """
        self.last_stats = stats = RunStats()
        per_file_started = time.perf_counter()
        lint_files = list(self._iter_files(root, paths, honor_excludes))
        reference_files = self._iter_reference_files(root, lint_files)
        want_summary = bool(self.project_rules)

        results: Dict[str, _FileResult] = {}
        pending: List[Tuple[str, str, bool, str]] = []
        unreadable = False
        for path, lint in [(p, True) for p in lint_files] + [
            (p, False) for p in reference_files
        ]:
            relpath = self._relpath(root, path)
            try:
                source = path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                unreadable = True
                if lint:
                    results[relpath] = _FileResult(
                        [self._meta(relpath, 1, f"unreadable file: {exc}")]
                    )
                continue
            digest = cache_mod.content_hash(source)
            entry = cache.lookup(relpath, digest, lint=lint) if cache else None
            if entry is not None:
                results[relpath] = _FileResult(
                    list(entry.findings) if lint else [], entry.summary, lint
                )
            else:
                pending.append((relpath, source, lint, digest))

        for relpath, findings, summary, digest, lint in self._analyze_pending(
            pending, jobs, want_summary
        ):
            results[relpath] = _FileResult(
                findings if lint else [], summary, lint
            )
            if cache is not None:
                cache.store(relpath, digest, findings, summary, lint=lint)

        # The model is a function of the scanned summaries alone, so the
        # cached program findings still hold when every file hit and no
        # cached file vanished (a deletion or rename changes the model
        # even though nothing was re-analyzed).
        replay = (
            cache is not None
            and cache.program_findings is not None
            and not pending
            and not unreadable
            and set(cache.files) <= set(results)
        )
        stats.pass_seconds["per-file"] = (
            time.perf_counter() - per_file_started
        )
        findings: List[Finding] = []
        for result in results.values():
            findings.extend(result.findings)
        if self.project_rules:
            program_started = time.perf_counter()
            if replay:
                program = cache.program_findings
            else:
                program = self._program_pass(results)
                if cache is not None:
                    # a pass that saw an unreadable file lacks its facts;
                    # once the bytes come back every file hits, so such
                    # a pass must never be replayed
                    cache.program_findings = None if unreadable else program
                    cache.dirty = True
            findings.extend(program)
            stats.pass_seconds["whole-program"] = (
                time.perf_counter() - program_started
            )
        if cache is not None:
            cache.prune(sorted(results))
            stats.cache_hits = cache.hits
            stats.cache_misses = cache.misses
        stats.files = len(results)
        for finding in findings:
            stats.rule_counts[finding.rule_id] = (
                stats.rule_counts.get(finding.rule_id, 0) + 1
            )
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
        return findings

    def _iter_reference_files(
        self, root: Path, lint_files: Sequence[Path]
    ) -> List[Path]:
        """Files scanned for references only (no per-file findings)."""
        if not self.project_rules:
            return []
        seen = {path.resolve() for path in lint_files}
        out: List[Path] = []
        for ref in self.config.reference_paths:
            ref_root = root / ref
            if not ref_root.is_dir():
                continue
            for candidate in sorted(ref_root.rglob("*.py")):
                resolved = candidate.resolve()
                if resolved not in seen:
                    seen.add(resolved)
                    out.append(candidate)
        return out

    def _analyze_pending(
        self,
        pending: Sequence[Tuple[str, str, bool, str]],
        jobs: int,
        want_summary: bool,
    ) -> Iterable[Tuple[str, List[Finding], Optional[Dict], str, bool]]:
        """Run the per-file pass over cache misses, serially or fanned out."""
        if jobs <= 1 or len(pending) < 2:
            for relpath, source, lint, digest in pending:
                findings, summary = self.check_source_and_summary(
                    source, relpath, lint=lint, want_summary=want_summary
                )
                yield relpath, findings, summary, digest, lint
            return
        rule_ids = sorted(rule.rule_id for rule in self.file_rules)
        items = [
            (relpath, source, lint, self.config, rule_ids, want_summary)
            for relpath, source, lint, digest in pending
        ]
        meta = {
            relpath: (digest, lint)
            for relpath, source, lint, digest in pending
        }
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            chunk = max(1, len(items) // (jobs * 4))
            for relpath, raw_findings, summary in pool.map(
                _analyze_in_worker, items, chunksize=chunk
            ):
                digest, lint = meta[relpath]
                findings = [Finding.from_json(f) for f in raw_findings]
                yield relpath, findings, summary, digest, lint

    def _program_pass(self, results: Dict[str, _FileResult]) -> List[Finding]:
        """Run every whole-program rule over the assembled model."""
        summaries: List[ModuleSummary] = []
        lint_modules: Set[str] = set()
        for result in results.values():
            if result.summary is None:
                continue
            summary = ModuleSummary.from_json(result.summary)
            summaries.append(summary)
            if result.lint:
                lint_modules.add(summary.module)
        model = ProjectModel(summaries)
        model.lint_modules = lint_modules
        path_to_module = {
            summary.relpath: summary.module for summary in summaries
        }
        out: List[Finding] = []
        for rule in self.project_rules:
            rule_started = time.perf_counter()
            for finding in rule.check(model, self.config):
                module = path_to_module.get(finding.path, finding.path)
                if not model.is_suppressed(module, finding.line, rule.rule_id):
                    out.append(finding)
            self.last_stats.rule_seconds[rule.rule_id] = (
                time.perf_counter() - rule_started
            )
        return out

    def check_source_and_summary(
        self,
        source: str,
        relpath: str,
        lint: bool = True,
        want_summary: bool = False,
    ) -> Tuple[List[Finding], Optional[Dict[str, object]]]:
        """Per-file findings plus (optionally) the module summary.

        ``lint=False`` skips rule dispatch entirely — used for
        reference-scope files that only contribute whole-program
        facts.  The summary is returned in its JSON form so it can go
        straight into the results cache.
        """
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            if not lint:
                return [], None
            return (
                [self._meta(relpath, exc.lineno or 1, f"syntax error: {exc.msg}")],
                None,
            )
        noqa_map, unknown = parse_noqa(source)
        module = (
            module_name_for(Path(relpath))
            if lint
            else reference_module_name(relpath)
        )
        summary: Optional[Dict[str, object]] = None
        if want_summary:
            summary = summarize_module(
                tree, module, relpath, noqa=noqa_map
            ).to_json()
        if not lint:
            return [], summary
        ctx = ModuleContext(
            path=Path(relpath),
            relpath=relpath,
            module=module,
            tree=tree,
            source=source,
            config=self.config,
            noqa=noqa_map,
        )
        ctx._parents = _build_parents(tree)
        active = [rule for rule in self.file_rules if rule.applies_to(ctx)]
        active_ids = {rule.rule_id for rule in active}
        findings: List[Finding] = []
        for line, rule_id in unknown:
            findings.append(
                self._meta(
                    relpath,
                    line,
                    f"unknown rule id {rule_id!r} in suppression comment",
                )
            )
        for node in ast.walk(tree):
            for rule in self._dispatch.get(type(node), ()):
                if rule.rule_id not in active_ids:
                    continue
                for finding in rule.visit(node, ctx):
                    if not ctx.is_suppressed(finding):
                        findings.append(finding)
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
        return findings, summary

    def _iter_files(
        self, root: Path, paths: Sequence[Path], honor_excludes: bool
    ) -> Iterable[Path]:
        seen: Set[Path] = set()
        for path in paths:
            candidates = sorted(path.rglob("*.py")) if path.is_dir() else [path]
            for candidate in candidates:
                resolved = candidate.resolve()
                if resolved in seen:
                    continue
                seen.add(resolved)
                if honor_excludes and self.config.is_excluded(
                    self._relpath(root, candidate)
                ):
                    continue
                yield candidate

    @staticmethod
    def _relpath(root: Path, path: Path) -> str:
        try:
            return path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            return path.as_posix()

    @staticmethod
    def _meta(relpath: str, line: int, message: str) -> Finding:
        return Finding(
            rule_id=META_RULE_ID,
            severity=Severity.ERROR,
            path=relpath,
            line=line,
            col=1,
            message=message,
        )
