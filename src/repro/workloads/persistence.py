"""Persistence for whole trace results.

A :class:`~repro.workloads.trace.TraceResult` saved to a directory can
be reloaded in another session without regeneration — the dataset-
artifact workflow: generate once with a documented seed, analyze many
times.

Layout::

    <dir>/
      manifest.json        config, counts, format version
      nx/                  the NXDomain store, a spill directory
      pre_expiry/          the pre-expiry (NOERROR) store, a spill directory
      whois.jsonl          WHOIS history snapshots
      blocklist.jsonl      blocklist entries
      population.jsonl     per-domain ground truth

Both stores use the one durable format of
:class:`~repro.passivedns.database.PassiveDnsDatabase`: the crash-safe
spill directory (checksummed segments, a self-checksummed manifest;
see ``docs/RESILIENCE.md``).  It is uncompressed, so a saved trace
takes several times the disk of the generated rows' compressed size;
in exchange, a loaded trace maps its rows instead of decoding them and
gets the spill store's integrity checks.  :func:`load_trace` opens
both stores read-only and refuses any damage the recovery scan finds.
"""

from __future__ import annotations

import dataclasses
import json
import os
from itertools import islice
from pathlib import Path
from typing import Optional, Tuple, Union

from repro.blocklist.categories import ThreatCategory
from repro.blocklist.store import BlocklistEntry, BlocklistStore, RateLimit
from repro.dns.name import DomainName
from repro.faults.plan import FaultPlan
from repro.passivedns.database import PassiveDnsDatabase
from repro.passivedns.spill import atomic_write_bytes
from repro.passivedns.pipeline import PipelineStats, ResilientIngestPipeline
from repro.squatting.detector import SquattingType
from repro.whois.io import load_history, save_history
from repro.errors import ConfigError, CorruptArchiveError, WorkloadError
from repro.workloads.trace import (
    DomainKind,
    TraceConfig,
    TraceDomain,
    TraceResult,
)

FORMAT_VERSION = 2

#: The two spill directories a trace archive holds, by trace field.
_STORES = (("nx_db", "nx"), ("pre_expiry_db", "pre_expiry"))

PathLike = Union[str, "os.PathLike[str]"]


def save_trace(trace: TraceResult, directory: PathLike) -> Path:
    """Write the full trace result under ``directory`` (created).

    A directory that already holds a trace archive, or either store,
    is refused with :class:`WorkloadError` before anything is written:
    a spill directory takes new generations, so saving into an old
    archive would append to its stores rather than replace them.
    """
    root = Path(directory)
    for name in ("manifest.json",) + tuple(name for _, name in _STORES):
        if (root / name).exists():
            raise WorkloadError(
                f"{root} already holds a trace archive ({name}); "
                "save into a fresh directory"
            )
    root.mkdir(parents=True, exist_ok=True)
    for field, name in _STORES:
        store = PassiveDnsDatabase(spill_dir=root / name)
        getattr(trace, field).copy_rows_into(store)
        store.spill_commit({"source": "trace-archive"})
    save_history(trace.whois, root / "whois.jsonl")
    _save_blocklist(trace.blocklist, root / "blocklist.jsonl")
    _save_population(trace, root / "population.jsonl")
    manifest = {
        "version": FORMAT_VERSION,
        "config": dataclasses.asdict(trace.config),
        "domains": len(trace.population),
        "nx_responses": trace.nx_db.total_responses(),
    }
    # The manifest commits the archive: readers treat its presence as
    # "this directory is complete", so it must land atomically, last.
    atomic_write_bytes(
        root / "manifest.json",
        (json.dumps(manifest, indent=2) + "\n").encode("utf-8"),
    )
    return root


def _open_store(directory: Path) -> PassiveDnsDatabase:
    """Open one saved store read-only; any recovery finding is fatal."""
    db = PassiveDnsDatabase(spill_dir=directory, spill_read_only=True)
    assert db.spill is not None
    report = db.spill.last_recovery
    if not report.clean():
        damaged = ", ".join(
            f"{entry.path} ({entry.kind})" for entry in report.quarantined
        )
        raise CorruptArchiveError(
            directory, f"{report.summary()}: {damaged or 'torn journal'}"
        )
    return db


def load_trace(directory: PathLike) -> TraceResult:
    """Read a trace saved by :func:`save_trace`.

    The stores are opened read-only: the loaded trace is a view of the
    archive, and nothing under ``directory`` is created or changed.
    """
    root = Path(directory)
    manifest = json.loads((root / "manifest.json").read_text())
    if manifest.get("version") != FORMAT_VERSION:
        raise ConfigError(
            f"unsupported trace archive version {manifest.get('version')}"
        )
    config = TraceConfig(**manifest["config"])
    stores = {field: _open_store(root / name) for field, name in _STORES}
    trace = TraceResult(
        config=config,
        population=_load_population(root / "population.jsonl"),
        whois=load_history(root / "whois.jsonl"),
        blocklist=_load_blocklist(root / "blocklist.jsonl"),
        **stores,
    )
    if len(trace.population) != manifest["domains"]:
        raise ConfigError("corrupt trace archive: population count mismatch")
    return trace


def replay_with_checkpoints(
    trace: TraceResult,
    plan: FaultPlan,
    seed: int,
    directory: PathLike,
    every: int = 5_000,
    stop_after: Optional[int] = None,
    spill_compact_threshold: int = 16,
) -> Tuple[Optional[TraceResult], PipelineStats]:
    """Faulted replay of ``trace.nx_db`` with durable progress.

    The replayed store is spill-backed in ``directory`` and the
    pipeline checkpoints every ``every`` offered observations; each
    checkpoint is a crash-safe manifest-generation commit, and once
    ``spill_compact_threshold`` segments accumulate the commit
    compacts them into one superseding generation.  Crucially, the
    replay *resumes* from whatever checkpoint ``directory`` already
    holds, fast-forwarding the fault schedule's RNG streams so the
    continued run makes exactly the decisions the interrupted one
    would have; a directory holding a store without a checkpoint
    (such as a saved trace's ``nx/``) is refused with
    :class:`WorkloadError`.  ``stop_after`` aborts after that many
    additional observations (checkpointing first) to simulate an
    interruption; the return is then ``(None, stats)``.  A completed
    replay returns the degraded :class:`TraceResult` and final
    pipeline stats.
    """
    pipeline = ResilientIngestPipeline(
        schedule=plan.schedule(seed),
        checkpoint_every=every,
        spill_dir=directory,
        spill_compact_threshold=spill_compact_threshold,
    )
    cursor = pipeline.resume()
    remaining = islice(trace.nx_db.iter_observations(), cursor, None)
    if stop_after is None:
        pipeline.ingest_many(remaining)
    else:
        # At least one observation goes in before an interruption.
        limit = max(stop_after, 1)
        pipeline.ingest_many(islice(remaining, limit))
        if pipeline.stats.offered - cursor >= limit:
            pipeline.checkpoint()
            return None, pipeline.stats
    stats = pipeline.finish()
    return dataclasses.replace(trace, nx_db=pipeline.database), stats


# ---------------------------------------------------------------------------
# blocklist / population JSONL
# ---------------------------------------------------------------------------


def _save_blocklist(store: BlocklistStore, path: Path) -> None:
    lines = []
    for domain in sorted(store._entries):  # noqa: SLF001 - serializer
        entry = store._entries[domain]
        lines.append(
            json.dumps(
                {
                    "domain": str(entry.domain),
                    "category": entry.category.value,
                    "listed_at": entry.listed_at,
                    "source": entry.source,
                },
                sort_keys=True,
            )
        )
    payload = "".join(line + "\n" for line in lines)
    atomic_write_bytes(path, payload.encode("utf-8"))


def _load_blocklist(path: Path) -> BlocklistStore:
    store = BlocklistStore(RateLimit(capacity=1_000_000, window_seconds=3600))
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            payload = json.loads(line)
            store.add_all(
                [
                    BlocklistEntry(
                        DomainName(payload["domain"]),
                        ThreatCategory(payload["category"]),
                        int(payload["listed_at"]),
                        payload.get("source", "archive"),
                    )
                ]
            )
    return store


def _save_population(trace: TraceResult, path: Path) -> None:
    lines = []
    for record in trace.population:
        lines.append(
            json.dumps(
                {
                    "domain": str(record.domain),
                    "kind": record.kind.value,
                    "became_nx_at": record.became_nx_at,
                    "registered_at": record.registered_at,
                    "expired_at": record.expired_at,
                    "dga_family": record.dga_family,
                    "squat_type": (
                        record.squat_type.value if record.squat_type else None
                    ),
                    "blocklisted": record.blocklisted,
                    "base_rate": record.base_rate,
                    "activity_days": record.activity_days,
                },
                sort_keys=True,
            )
        )
    payload = "".join(line + "\n" for line in lines)
    atomic_write_bytes(path, payload.encode("utf-8"))


def _load_population(path: Path) -> list:
    population = []
    squat_by_value = {t.value: t for t in SquattingType}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            payload = json.loads(line)
            population.append(
                TraceDomain(
                    domain=DomainName(payload["domain"]),
                    kind=DomainKind(payload["kind"]),
                    became_nx_at=int(payload["became_nx_at"]),
                    registered_at=payload.get("registered_at"),
                    expired_at=payload.get("expired_at"),
                    dga_family=payload.get("dga_family", ""),
                    squat_type=squat_by_value.get(payload.get("squat_type")),
                    blocklisted=bool(payload.get("blocklisted")),
                    base_rate=float(payload.get("base_rate", 1.0)),
                    activity_days=int(payload.get("activity_days", 1)),
                )
            )
    return population
