"""Checkpoints of a long-running ingestion into a spill-backed store.

The passive DNS store has one durable format: the crash-safe spill
directory of :class:`repro.passivedns.spill.SpillStore`.  A checkpoint
is a spill commit — a new manifest generation whose ``meta`` carries
the ingestion payload (cursor, fault-schedule draw counters, pipeline
counters, the ingest pipeline's dedup window as text keys) — so the
snapshot costs the unsealed tail, not a rewrite of the whole store,
and a crash at any write boundary rolls back to the previous
generation rather than to a torn file.  Loading a checkpoint reads the
payload of the generation the already-open store recovered; it never
opens the directory again, and it leaves the store itself untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.passivedns.database import PassiveDnsDatabase
from repro.errors import ConfigError, CorruptArchiveError, WorkloadError

CHECKPOINT_VERSION = 4


@dataclass
class CheckpointState:
    """One durable snapshot of a long-running ingestion.

    ``cursor`` is how many source events had been *offered* when the
    snapshot was taken; ``injector_counters`` are the fault schedule's
    per-injector draw counts (so a resumed run can fast-forward its RNG
    streams); ``extra`` carries pipeline-specific counters verbatim;
    ``recent_keys`` is the dedup window, oldest first, as
    ``(sensor, qname, rcode, rtype, time, count)`` text keys.
    """

    cursor: int
    injector_counters: Dict[str, int] = field(default_factory=dict)
    extra: Dict[str, int] = field(default_factory=dict)
    recent_keys: List[tuple] = field(default_factory=list)


def _checkpoint_payload(
    db: PassiveDnsDatabase,
    cursor: int,
    injector_counters: Optional[Dict[str, int]],
    extra: Optional[Dict[str, int]],
    recent_keys: Optional[Sequence[tuple]],
) -> Dict[str, object]:
    return {
        "version": CHECKPOINT_VERSION,
        "cursor": int(cursor),
        "fingerprint": db.fingerprint(),
        "recent_keys": [list(key) for key in recent_keys or ()],
        "injector_counters": dict(injector_counters or {}),
        "extra": dict(extra or {}),
    }


def save_checkpoint(
    db: PassiveDnsDatabase,
    cursor: int,
    injector_counters: Optional[Dict[str, int]] = None,
    extra: Optional[Dict[str, int]] = None,
    recent_keys: Optional[Sequence[tuple]] = None,
) -> int:
    """Commit ``db`` as a resumable snapshot; returns its generation.

    The store must be spill-backed (opened with ``spill_dir=``): the
    checkpoint payload rides in the committed manifest's ``meta``.
    """
    if cursor < 0:
        raise ConfigError("checkpoint cursor must be non-negative")
    if db.spill is None:
        raise ConfigError("checkpoints need a store opened with spill_dir")
    payload = _checkpoint_payload(db, cursor, injector_counters, extra, recent_keys)
    return db.spill_commit({"checkpoint": payload})


def load_checkpoint(db: PassiveDnsDatabase) -> Optional[CheckpointState]:
    """Read the checkpoint of the generation ``db`` recovered.

    Returns the cursor, counters and dedup window to resume from;
    ``None`` when the store is empty.  Raises :class:`WorkloadError`
    when the store holds data but no checkpoint (resuming on top would
    count it twice), :class:`CorruptArchiveError` when the payload does
    not describe the recovered rows, and :class:`ConfigError` on a
    checkpoint version we do not speak.
    """
    if db.spill is None:
        raise ConfigError("checkpoints need a store opened with spill_dir")
    manifest = db.spill.meta.get("checkpoint")
    if manifest is None:
        if db.row_count() or db.unique_domains():
            raise WorkloadError(
                f"spill directory {db.spill.directory} holds a committed "
                "store without a checkpoint; resume needs a checkpointed "
                "or fresh directory"
            )
        return None
    if manifest.get("version") != CHECKPOINT_VERSION:
        raise ConfigError(
            f"unsupported checkpoint version {manifest.get('version')}"
        )
    if db.fingerprint() != manifest["fingerprint"]:
        raise CorruptArchiveError(
            db.spill.directory, "checkpoint store fingerprint mismatch"
        )
    return CheckpointState(
        cursor=int(manifest["cursor"]),
        injector_counters={
            str(k): int(v)
            for k, v in manifest.get("injector_counters", {}).items()
        },
        extra={str(k): int(v) for k, v in manifest.get("extra", {}).items()},
        recent_keys=[tuple(key) for key in manifest.get("recent_keys", [])],
    )
