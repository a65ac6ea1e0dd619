"""Configuration for the analyzer.

Defaults live here; projects override them in ``pyproject.toml``::

    [tool.repro.analysis]
    paths = ["src/repro"]
    exclude = ["examples/*", "benchmarks/*"]
    disable = []
    baseline = "analysis-baseline.json"
    report-paths = ["src/repro/core/reports.py"]
    atomic-io-modules = ["repro.passivedns.spill"]
    resilient-roots = ["repro.resilience", "repro.passivedns.pipeline"]
    lock-attributes = ["_lock"]
    concurrency-roots = ["repro.passivedns.database"]

    [tool.repro.analysis.severity]
    REP008 = "warning"

The loader prefers the stdlib :mod:`tomllib` (Python 3.11+) and falls
back to a minimal parser covering exactly the subset above, so the
analyzer stays zero-dependency on older interpreters.
"""

from __future__ import annotations

import fnmatch
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set

from repro.analysis.findings import Severity
from repro.errors import ConfigError

DEFAULT_PATHS = ("src/repro",)
DEFAULT_EXCLUDE = ("examples/*", "benchmarks/*", "tests/*", "*.egg-info/*")
DEFAULT_BASELINE = "analysis-baseline.json"
#: Modules whose output ordering REP007 audits by default.
DEFAULT_REPORT_PATHS = ("src/repro/core/reports.py",)
#: Trees scanned (but not linted) so whole-program rules such as
#: REP104 can see references from outside ``src/repro``.
DEFAULT_REFERENCE_PATHS = ("tests", "benchmarks", "examples")
#: Per-file results cache written next to pyproject.toml.
DEFAULT_CACHE = ".repro-analysis-cache.json"
#: Modules whose raw filesystem writes are sanctioned: they implement
#: the atomic tmp+fsync+replace discipline everything else must call.
DEFAULT_ATOMIC_IO_MODULES = ("repro.passivedns.spill",)
#: Module prefixes whose functions are retry/pipeline entry points:
#: REP202 audits except-clauses reachable from them for swallowed
#: crash-signal exceptions.
DEFAULT_RESILIENT_ROOTS = ("repro.resilience", "repro.passivedns.pipeline")
#: Attribute names recognized as lock guards (``with self._lock:``)
#: even when the module never shows the lock's construction.
DEFAULT_LOCK_ATTRIBUTES = ("_lock",)
#: Module prefixes whose public surface will be hit concurrently (the
#: query tier's shared hot paths); the REP30x pass treats all of their
#: functions as spawn-reachable entry points.
DEFAULT_CONCURRENCY_ROOTS = ()


@dataclass
class AnalysisConfig:
    """Resolved analyzer settings."""

    paths: List[str] = field(default_factory=lambda: list(DEFAULT_PATHS))
    exclude: List[str] = field(default_factory=lambda: list(DEFAULT_EXCLUDE))
    disable: Set[str] = field(default_factory=set)
    select: Optional[Set[str]] = None
    baseline_path: str = DEFAULT_BASELINE
    report_paths: List[str] = field(
        default_factory=lambda: list(DEFAULT_REPORT_PATHS)
    )
    reference_paths: List[str] = field(
        default_factory=lambda: list(DEFAULT_REFERENCE_PATHS)
    )
    cache_path: str = DEFAULT_CACHE
    atomic_io_modules: List[str] = field(
        default_factory=lambda: list(DEFAULT_ATOMIC_IO_MODULES)
    )
    resilient_roots: List[str] = field(
        default_factory=lambda: list(DEFAULT_RESILIENT_ROOTS)
    )
    lock_attributes: List[str] = field(
        default_factory=lambda: list(DEFAULT_LOCK_ATTRIBUTES)
    )
    concurrency_roots: List[str] = field(
        default_factory=lambda: list(DEFAULT_CONCURRENCY_ROOTS)
    )
    severity_overrides: Dict[str, Severity] = field(default_factory=dict)

    def enabled_rule_ids(self, registered: Sequence[str]) -> List[str]:
        """Rule ids to run, after applying ``select`` and ``disable``."""
        ids = [r for r in registered if self.select is None or r in self.select]
        return [r for r in ids if r not in self.disable]

    def is_excluded(self, relpath: str) -> bool:
        """Whether a repo-relative path matches an exclude pattern."""
        return any(
            fnmatch.fnmatch(relpath, pattern) for pattern in self.exclude
        )

    def is_report_code(self, relpath: str) -> bool:
        """Whether REP007's ordered-output audit applies to this file."""
        return any(
            fnmatch.fnmatch(relpath, pattern) for pattern in self.report_paths
        )


def load_config(root: Path) -> AnalysisConfig:
    """Read ``[tool.repro.analysis]`` from ``root``'s pyproject.toml.

    Missing file or missing table yields the defaults.
    """
    pyproject = root / "pyproject.toml"
    if not pyproject.is_file():
        return AnalysisConfig()
    data = _load_toml(pyproject)
    table = data.get("tool", {}).get("repro", {}).get("analysis", {})
    if not isinstance(table, dict):
        raise ConfigError("[tool.repro.analysis] must be a table")
    config = AnalysisConfig()
    if "paths" in table:
        config.paths = _str_list(table, "paths")
    if "exclude" in table:
        config.exclude = _str_list(table, "exclude")
    if "disable" in table:
        config.disable = set(_str_list(table, "disable"))
    if "baseline" in table:
        config.baseline_path = str(table["baseline"])
    if "report-paths" in table:
        config.report_paths = _str_list(table, "report-paths")
    if "reference-paths" in table:
        config.reference_paths = _str_list(table, "reference-paths")
    if "cache" in table:
        config.cache_path = str(table["cache"])
    if "atomic-io-modules" in table:
        config.atomic_io_modules = _str_list(table, "atomic-io-modules")
    if "resilient-roots" in table:
        config.resilient_roots = _str_list(table, "resilient-roots")
    if "lock-attributes" in table:
        config.lock_attributes = _str_list(table, "lock-attributes")
    if "concurrency-roots" in table:
        config.concurrency_roots = _str_list(table, "concurrency-roots")
    severity = table.get("severity", {})
    if not isinstance(severity, dict):
        raise ConfigError("[tool.repro.analysis.severity] must be a table")
    for rule_id, name in severity.items():
        config.severity_overrides[str(rule_id).upper()] = Severity.parse(
            str(name)
        )
    return config


def _str_list(table: Dict[str, object], key: str) -> List[str]:
    value = table[key]
    if not isinstance(value, list) or not all(
        isinstance(item, str) for item in value
    ):
        raise ConfigError(
            f"[tool.repro.analysis] {key!r} must be a list of strings"
        )
    return list(value)


def _load_toml(path: Path) -> Dict[str, object]:
    try:
        import tomllib
    except ImportError:  # Python < 3.11
        return _parse_minimal_toml(path.read_text(encoding="utf-8"))
    with path.open("rb") as handle:
        return tomllib.load(handle)


_SECTION_RE = re.compile(r"^\[(?P<name>[^\]]+)\]\s*$")
_KEY_RE = re.compile(r"^(?P<key>[A-Za-z0-9_.\"'-]+)\s*=\s*(?P<value>.+)$")


def _parse_minimal_toml(text: str) -> Dict[str, object]:
    """Parse the tiny TOML subset the analyzer's own table uses.

    Supports ``[dotted.section]`` headers, string/bool scalars, and
    single-line arrays of strings — enough for ``[tool.repro.analysis]``
    on interpreters without :mod:`tomllib`.  Unparseable values are
    skipped rather than fatal, because this fallback must never make
    an unrelated pyproject.toml unreadable.
    """
    root: Dict[str, object] = {}
    current = root
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        section = _SECTION_RE.match(line)
        if section:
            current = root
            for part in section.group("name").split("."):
                part = part.strip().strip('"').strip("'")
                current = current.setdefault(part, {})  # type: ignore[assignment]
                if not isinstance(current, dict):
                    return root
            continue
        pair = _KEY_RE.match(line)
        if not pair:
            continue
        key = pair.group("key").strip().strip('"').strip("'")
        value = _parse_minimal_value(pair.group("value").strip())
        if value is not None:
            current[key] = value
    return root


def _parse_minimal_value(text: str) -> Optional[object]:
    if text in ("true", "false"):
        return text == "true"
    if len(text) >= 2 and text[0] in "\"'" and text[-1] == text[0]:
        return text[1:-1]
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        if not inner:
            return []
        items = []
        for piece in inner.split(","):
            piece = piece.strip()
            if not piece:
                continue
            if len(piece) >= 2 and piece[0] in "\"'" and piece[-1] == piece[0]:
                items.append(piece[1:-1])
            else:
                return None
        return items
    return None
