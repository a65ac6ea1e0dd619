"""The incremental results cache.

Parsing and walking ~200 files dominates a lint run, so the engine
persists per-file results in ``.repro-analysis-cache.json`` next to
the baseline:

- per file: the source content hash, the per-file findings, and the
  :class:`~repro.analysis.project.ModuleSummary` (the whole-program
  facts), so a warm run re-parses only files whose bytes changed;
- per run: the findings of the last completed whole-program pass that
  read every file, so a tree where every file hit and none vanished
  replays them without building a model; any other tree recomputes the
  pass whole.

The whole cache is keyed by a signature over the analyzer version,
the resolved rule set, and the behavior-relevant configuration; any
drift discards it wholesale.  A corrupt or unreadable cache is never
fatal — it degrades to a cold run.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.analysis.config import AnalysisConfig
from repro.analysis.findings import ANALYZER_VERSION, Finding

#: Bumped to 2 when module summaries grew per-function effect facts,
#: to 3 when they grew the concurrency facts (with-held locks, lock
#: definitions, resources, lazy inits); older caches carry summaries
#: without them and must never be replayed.  Bumped to 4 when the
#: program findings became one flat list and summaries dropped their
#: import edges.
CACHE_FORMAT_VERSION = 4


def content_hash(source: str) -> str:
    """Stable content key for one file's source text."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def ruleset_signature(
    config: AnalysisConfig, rule_ids: Sequence[str]
) -> str:
    """Cache key covering everything that can change the finding set.

    Any difference — analyzer version, enabled rules, severity
    overrides, report/reference scopes — must produce a different
    signature so stale results can never be replayed.
    """
    payload = {
        "analyzer": ANALYZER_VERSION,
        "format": CACHE_FORMAT_VERSION,
        "rules": sorted(rule_ids),
        "severity": {
            rule: severity.value
            for rule, severity in sorted(config.severity_overrides.items())
        },
        "report_paths": sorted(config.report_paths),
        "reference_paths": sorted(config.reference_paths),
        "exclude": sorted(config.exclude),
        "atomic_io_modules": sorted(config.atomic_io_modules),
        "resilient_roots": sorted(config.resilient_roots),
        "lock_attributes": sorted(config.lock_attributes),
        "concurrency_roots": sorted(config.concurrency_roots),
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


@dataclass
class FileEntry:
    """Cached results for one analyzed file."""

    hash: str
    findings: List[Finding] = field(default_factory=list)
    summary: Optional[Dict[str, object]] = None
    #: Whether the entry was produced with per-file rules enabled.
    #: Reference-only scans (tests, benchmarks) carry summaries but no
    #: findings; they must not satisfy a lookup that needs lint results.
    lint: bool = True


@dataclass
class AnalysisCache:
    """In-memory view of the on-disk cache, saved back after a run that
    changed it."""

    signature: str
    files: Dict[str, FileEntry] = field(default_factory=dict)
    #: Findings of the last completed whole-program pass; ``None`` when
    #: no pass completed (an empty list is a legitimate result).
    program_findings: Optional[List[Finding]] = None
    #: Whether this run changed anything :func:`save_cache` writes; a
    #: replay over an unchanged tree leaves it unset, and the caller
    #: skips rewriting the file.
    dirty: bool = False
    #: Statistics for benchmarks and cache-behavior tests.
    hits: int = 0
    misses: int = 0

    def lookup(
        self, relpath: str, source_hash: str, lint: bool = True
    ) -> Optional[FileEntry]:
        """The cached entry for a file, if its content is unchanged."""
        entry = self.files.get(relpath)
        if (
            entry is not None
            and entry.hash == source_hash
            and (entry.lint or not lint)
        ):
            self.hits += 1
            return entry
        self.misses += 1
        return None

    def store(
        self,
        relpath: str,
        source_hash: str,
        findings: Sequence[Finding],
        summary: Optional[Dict[str, object]],
        lint: bool = True,
    ) -> None:
        """Record fresh results for a file."""
        self.dirty = True
        self.files[relpath] = FileEntry(
            hash=source_hash,
            findings=list(findings),
            summary=summary,
            lint=lint,
        )

    def prune(self, live_relpaths: Sequence[str]) -> None:
        """Drop entries for files that no longer exist in the scan."""
        live = set(live_relpaths)
        for relpath in list(self.files):
            if relpath not in live:
                del self.files[relpath]
                self.dirty = True


def load_cache(path: Path, signature: str) -> AnalysisCache:
    """Read the cache, discarding it wholesale on any mismatch.

    Returns an empty cache (cold run) when the file is missing,
    unreadable, malformed, or carries a different signature.
    """
    cache = AnalysisCache(signature=signature)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError):
        return cache
    if not isinstance(data, dict) or data.get("signature") != signature:
        return cache
    try:
        for relpath, entry in data.get("files", {}).items():
            cache.files[str(relpath)] = FileEntry(
                hash=str(entry["hash"]),
                findings=[
                    Finding.from_json(f) for f in entry.get("findings", [])
                ],
                summary=entry.get("summary"),
                lint=bool(entry.get("lint", True)),
            )
        program = data.get("program")
        if program is not None:
            cache.program_findings = [Finding.from_json(f) for f in program]
    except (KeyError, TypeError, ValueError, AttributeError):
        # A damaged cache degrades to a cold run, never to a crash.
        return AnalysisCache(signature=signature)
    return cache


def save_cache(path: Path, cache: AnalysisCache) -> None:
    """Persist the cache; IO failures are silently non-fatal.

    The write is rename-atomic (unique temp file + ``os.replace``) so
    concurrent lint runs sharing one cache file can never tear each
    other's payloads — a reader sees either the old complete document
    or the new one.  It deliberately skips the fsync half of the full
    durability dance: the cache is disposable state, and a power-loss
    torn rename fails the signature/JSON check and degrades to a cold
    run.
    """
    payload = {
        "version": CACHE_FORMAT_VERSION,
        "tool": "repro.analysis",
        "signature": cache.signature,
        "files": {
            relpath: {
                "hash": entry.hash,
                "findings": [f.to_json() for f in entry.findings],
                "summary": entry.summary,
                "lint": entry.lint,
            }
            for relpath, entry in sorted(cache.files.items())
        },
        "program": (
            None
            if cache.program_findings is None
            else [f.to_json() for f in cache.program_findings]
        ),
    }
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(  # repro: noqa[REP201]  # rename-atomic, fsync waived
            json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8"
        )
        os.replace(tmp, path)
    except OSError:
        try:
            tmp.unlink()
        except OSError:
            pass
