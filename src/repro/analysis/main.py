"""Driver shared by ``repro-nxd lint`` and ``python -m repro.analysis``.

Exit codes: 0 — clean (only warnings and/or baselined findings);
1 — at least one new error-severity finding; 2 — bad invocation or
configuration.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis import baseline as baseline_mod
from repro.analysis import cache as cache_mod
from repro.analysis import report as report_mod
from repro.analysis import rules as rules_mod
from repro.analysis.config import AnalysisConfig, load_config
from repro.analysis.engine import Analyzer
from repro.analysis.findings import Finding, Severity
from repro.errors import ReproError


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the lint flags on a parser (reused by the repro-nxd CLI)."""
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyze (default: configured paths)",
    )
    parser.add_argument(
        "--root",
        default=".",
        help="project root holding pyproject.toml and the baseline",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run (e.g. REP001,REP002)",
    )
    parser.add_argument(
        "--disable",
        metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="baseline file (default from [tool.repro.analysis])",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline; report every finding as new",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="accept all current findings into the baseline and exit 0",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every registered rule and exit",
    )
    parser.add_argument(
        "--explain",
        metavar="RULE",
        help="print a rule's invariant, rationale, and examples, then exit",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="fan the per-file pass out over N worker processes",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore and do not write the incremental results cache",
    )
    parser.add_argument(
        "--statistics",
        action="store_true",
        help="print per-rule counts and per-pass wall time after the run",
    )


def build_parser() -> argparse.ArgumentParser:
    """Standalone parser for ``python -m repro.analysis``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="AST-based determinism & layering linter for repro",
    )
    add_lint_arguments(parser)
    return parser


def run_lint(args: argparse.Namespace) -> int:
    """Execute a lint run described by parsed arguments."""
    try:
        return _run_lint(args)
    except ReproError as exc:
        print(f"repro.analysis: error: {exc}", file=sys.stderr)
        return 2


def _run_lint(args: argparse.Namespace) -> int:
    if args.list_rules:
        for rule_cls in rules_mod.iter_rules():
            print(
                f"{rule_cls.rule_id}  {rule_cls.severity.value:7s}  "
                f"{rule_cls.description}"
            )
        return 0
    if args.explain:
        print(rules_mod.explain(args.explain.strip().upper()))
        return 0
    if args.jobs < 1:
        print(
            "repro.analysis: error: --jobs must be at least 1",
            file=sys.stderr,
        )
        return 2

    root = Path(args.root)
    config = load_config(root)
    if args.select:
        config.select = _parse_rule_ids(args.select)
    if args.disable:
        config.disable |= _parse_rule_ids(args.disable)
    if args.baseline:
        config.baseline_path = args.baseline

    rule_ids = config.enabled_rule_ids(rules_mod.all_rule_ids())
    analyzer = Analyzer(config, rules_mod.instantiate(rule_ids))
    paths = [
        Path(p) if Path(p).is_absolute() else root / p
        for p in (args.paths or config.paths)
    ]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(
            f"repro.analysis: error: no such path: {', '.join(missing)}",
            file=sys.stderr,
        )
        return 2
    # The cache models the *configured* scan scope; an explicit-path
    # run would prune it down to the named files and poison the next
    # full run, so caching only applies to default-scope invocations.
    cache: Optional[cache_mod.AnalysisCache] = None
    cache_file = root / config.cache_path
    if not args.no_cache and not args.paths:
        signature = cache_mod.ruleset_signature(config, rule_ids)
        cache = cache_mod.load_cache(cache_file, signature)
    findings = analyzer.run(
        root,
        paths,
        honor_excludes=not args.paths,
        jobs=args.jobs,
        cache=cache,
    )
    if cache is not None and cache.dirty:
        # A replay over an unchanged tree has nothing new to write.
        cache_mod.save_cache(cache_file, cache)

    baseline_file = root / config.baseline_path
    if args.update_baseline:
        pruned = baseline_mod.update_baseline(
            baseline_file, findings, rule_ids
        )
        print(
            f"baseline updated: {len(findings)} finding(s) -> {baseline_file}"
            f" ({pruned} stale entr{'y' if pruned == 1 else 'ies'} for"
            f" retired rules pruned)"
        )
        return 0

    reported: List[Finding]
    if args.no_baseline:
        reported = list(findings)
    else:
        new, known = baseline_mod.apply_baseline(
            findings, baseline_mod.load_baseline(baseline_file)
        )
        reported = new + known

    stats = analyzer.last_stats
    if args.format == "json":
        print(
            report_mod.render_json(
                reported,
                rules=rule_ids,
                statistics=stats.to_json() if args.statistics else None,
            )
        )
    elif args.format == "sarif":
        from repro.analysis.sarif import render_sarif

        print(render_sarif(reported, rules=rule_ids))
    else:
        print(report_mod.render_text(reported))
        if args.statistics:
            print(stats.render())
    failing = [
        f
        for f in reported
        if not f.baselined and f.severity is Severity.ERROR
    ]
    return 1 if failing else 0


def _parse_rule_ids(text: str) -> set:
    """Parse a comma-separated rule-id list, rejecting unknown ids.

    A typo'd ``--select REP01`` must be a usage error, not a lint run
    that silently checks nothing.
    """
    from repro.errors import ConfigError

    ids = {rule.strip().upper() for rule in text.split(",") if rule.strip()}
    unknown = ids - set(rules_mod.all_rule_ids())
    if unknown:
        raise ConfigError(
            f"unknown rule id(s): {', '.join(sorted(unknown))} "
            f"(see --list-rules)"
        )
    return ids


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``python -m repro.analysis``."""
    return run_lint(build_parser().parse_args(argv))
