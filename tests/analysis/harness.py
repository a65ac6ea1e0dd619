"""Run the analyzer over in-memory snippets and projects.

The program lints files on disk (:meth:`Analyzer.run`); these helpers
drive the same per-file and whole-program passes over ``{relpath:
source}`` maps so a test needs no tree of its own.
"""

import ast
from pathlib import Path

from repro.analysis import ProjectModel, all_rule_ids, instantiate
from repro.analysis.engine import _FileResult, module_name_for, parse_noqa
from repro.analysis.project import summarize_module


def default_rules():
    """Fresh instances of every registered rule, in id order."""
    return instantiate(all_rule_ids())


def check_source(analyzer, source, relpath):
    """Per-file findings for ``source`` as though read from ``relpath``."""
    findings, _ = analyzer.check_source_and_summary(
        source, relpath, lint=True, want_summary=False
    )
    return findings


def check_project_sources(analyzer, sources):
    """Both passes over an in-memory ``{relpath: source}`` project.

    Files the config excludes contribute whole-program facts only, as
    the reference trees do in a real run.
    """
    results = {}
    for relpath in sorted(sources):
        lint = not analyzer.config.is_excluded(relpath)
        findings, summary = analyzer.check_source_and_summary(
            sources[relpath], relpath, lint=lint, want_summary=True
        )
        results[relpath] = _FileResult(findings, summary, lint)
    findings = [f for r in results.values() for f in r.findings]
    if analyzer.project_rules:
        findings.extend(analyzer._program_pass(results))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return findings


def model_from_sources(sources):
    """A :class:`ProjectModel` straight from ``{relpath: source}``."""
    summaries = []
    for relpath in sorted(sources):
        source = sources[relpath]
        noqa_map, _ = parse_noqa(source)
        summaries.append(
            summarize_module(
                ast.parse(source),
                module_name_for(Path(relpath)),
                relpath,
                noqa=noqa_map,
            )
        )
    return ProjectModel(summaries)
