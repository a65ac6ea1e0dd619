"""Checkpoints of a long-running ingestion into a spill-backed store.

The passive DNS store has one durable format: the crash-safe spill
directory of :class:`repro.passivedns.spill.SpillStore`.  A checkpoint
is a spill commit — a new manifest generation whose ``meta`` carries
the ingestion payload (cursor, fault-schedule draw counters, pipeline
counters, and the name and row count of the ``window`` sidecar) — so
the snapshot costs the unsealed tail, not a rewrite of the whole
store, and a crash at any write boundary rolls back to the previous
generation rather than to a torn file.  The ingest pipeline's dedup
window rides in that sidecar as one binary blob (:class:`WindowKeys`),
so the manifest stays the same size whatever the window holds.
Loading a checkpoint reads the payload and the CRC-checked sidecar of
the generation the already-open store recovered; it never opens the
directory again, and it leaves the store itself untouched.
"""

from __future__ import annotations

import io as _stdio
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.passivedns.database import (
    _UNLOADABLE_NPZ,
    PassiveDnsDatabase,
    pack_names,
)
from repro.errors import ConfigError, CorruptArchiveError, WorkloadError

CHECKPOINT_VERSION = 5

#: Sidecar kind that holds a checkpoint's dedup window.
WINDOW_SIDECAR = "window"

#: Columns of a dedup-window key.
_KEY_COLUMNS = 6


def _first_appearance(column: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(local index per row, distinct values in first-appearance order)."""
    distinct, first, inverse = np.unique(
        column, return_index=True, return_inverse=True
    )
    appearance = np.argsort(first)
    rank = np.empty(len(distinct), dtype=np.int64)
    rank[appearance] = np.arange(len(distinct))
    return rank[inverse.ravel()], distinct[appearance]


@dataclass
class WindowKeys:
    """A dedup window in its checkpoint form, oldest key first.

    ``keys`` is an ``(n, 6)`` ``int64`` matrix of ``(sensor, qname,
    rcode, rtype, time, count)`` keys whose sensor and qname columns
    index ``sensors`` and ``qnames``; both tables list their values in
    the order the keys first use them, so equal windows have equal
    forms.
    """

    keys: np.ndarray = field(
        default_factory=lambda: np.empty((0, _KEY_COLUMNS), dtype=np.int64)
    )
    sensors: List[str] = field(default_factory=list)
    qnames: List[str] = field(default_factory=list)

    @classmethod
    def local(
        cls, keys: np.ndarray, sensors: Sequence[str], qnames: Sequence[str]
    ) -> "WindowKeys":
        """The form of ``keys`` whose first two columns index the
        (possibly larger) ``sensors`` and ``qnames`` tables."""
        keys = np.array(keys, dtype=np.int64).reshape(-1, _KEY_COLUMNS)
        sensor, sensor_ids = _first_appearance(keys[:, 0])
        qname, qname_ids = _first_appearance(keys[:, 1])
        keys[:, 0] = sensor
        keys[:, 1] = qname
        return cls(
            keys,
            [sensors[i] for i in sensor_ids.tolist()],
            [qnames[i] for i in qname_ids.tolist()],
        )

    def __len__(self) -> int:
        return len(self.keys)

    def encode(self) -> bytes:
        """The sidecar bytes: an uncompressed, pickle-free ``.npz``."""
        buffer = _stdio.BytesIO()
        np.savez(
            buffer,
            keys=self.keys,
            sensors=pack_names(self.sensors),
            qnames=pack_names(self.qnames),
        )
        return buffer.getvalue()

    @classmethod
    def decode(cls, data: bytes, where: str) -> "WindowKeys":
        """Inverse of :meth:`encode`; a malformed blob raises
        :class:`CorruptArchiveError` naming ``where``."""
        try:
            with np.load(_stdio.BytesIO(data), allow_pickle=False) as payload:
                keys = np.asarray(payload["keys"])
                # The name tables as pack_names wrote them.
                texts = [
                    np.asarray(payload[table], dtype=np.uint8)
                    .tobytes()
                    .decode("utf-8")
                    for table in ("sensors", "qnames")
                ]
        except _UNLOADABLE_NPZ as error:
            raise CorruptArchiveError(
                where, f"unreadable window sidecar: {error}"
            ) from error
        if keys.dtype != np.int64 or keys.shape[1:] != (_KEY_COLUMNS,):
            raise CorruptArchiveError(
                where,
                f"window keys have shape {keys.shape}, dtype {keys.dtype}",
            )
        # An empty window has empty tables ("" would split to [""]).
        sensors, qnames = (
            text.split("\x00") if len(keys) else [] for text in texts
        )
        for column, table in ((0, sensors), (1, qnames)):
            ids = keys[:, column]
            if len(ids) and (ids.min() < 0 or ids.max() >= len(table)):
                raise CorruptArchiveError(
                    where, "window key outside its name table"
                )
        return cls(keys, sensors, qnames)


@dataclass
class CheckpointState:
    """One durable snapshot of a long-running ingestion.

    ``cursor`` is how many source events had been *offered* when the
    snapshot was taken; ``injector_counters`` are the fault schedule's
    per-injector draw counts (so a resumed run can fast-forward its RNG
    streams); ``extra`` carries pipeline-specific counters verbatim;
    ``window`` is the dedup window.
    """

    cursor: int
    injector_counters: Dict[str, int] = field(default_factory=dict)
    extra: Dict[str, int] = field(default_factory=dict)
    window: WindowKeys = field(default_factory=WindowKeys)


def _checkpoint_payload(
    db: PassiveDnsDatabase,
    cursor: int,
    injector_counters: Optional[Dict[str, int]],
    extra: Optional[Dict[str, int]],
    window: Dict[str, object],
) -> Dict[str, object]:
    return {
        "version": CHECKPOINT_VERSION,
        "cursor": int(cursor),
        "fingerprint": db.fingerprint(),
        "window": dict(window),
        "injector_counters": dict(injector_counters or {}),
        "extra": dict(extra or {}),
    }


def save_checkpoint(
    db: PassiveDnsDatabase,
    cursor: int,
    injector_counters: Optional[Dict[str, int]] = None,
    extra: Optional[Dict[str, int]] = None,
    window: Optional[WindowKeys] = None,
) -> int:
    """Commit ``db`` as a resumable snapshot; returns its generation.

    The store must be spill-backed (opened with ``spill_dir=``): the
    dedup window is staged as the ``window`` sidecar, and the
    checkpoint payload, which names it, rides in the committed
    manifest's ``meta``.
    """
    if cursor < 0:
        raise ConfigError("checkpoint cursor must be non-negative")
    if db.spill is None:
        raise ConfigError("checkpoints need a store opened with spill_dir")
    window = window if window is not None else WindowKeys()
    sidecar = db.spill.write_sidecar(WINDOW_SIDECAR, window.encode())
    payload = _checkpoint_payload(
        db,
        cursor,
        injector_counters,
        extra,
        {"sidecar": sidecar.name, "rows": len(window)},
    )
    return db.spill_commit({"checkpoint": payload})


def load_checkpoint(db: PassiveDnsDatabase) -> Optional[CheckpointState]:
    """Read the checkpoint of the generation ``db`` recovered.

    Returns the cursor, counters and dedup window to resume from;
    ``None`` when the store is empty.  Raises :class:`WorkloadError`
    when the store holds data but no checkpoint (resuming on top would
    count it twice), :class:`CorruptArchiveError` when the payload does
    not describe the recovered rows or its window sidecar, and
    :class:`ConfigError` on a checkpoint version we do not speak.
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
        window=_load_window(db, manifest.get("window")),
    )


def _load_window(db: PassiveDnsDatabase, named: object) -> WindowKeys:
    """The dedup window the checkpoint payload ``named`` describes."""
    assert db.spill is not None
    path = db.spill.sidecar_path(WINDOW_SIDECAR)
    if (
        not isinstance(named, dict)
        or path is None
        or path.name != named.get("sidecar")
    ):
        raise CorruptArchiveError(
            db.spill.directory,
            f"checkpoint names window sidecar {named!r}, store holds "
            f"{None if path is None else path.name}",
        )
    data = db.spill.read_sidecar(WINDOW_SIDECAR)
    assert data is not None
    window = WindowKeys.decode(data, str(path))
    if len(window) != named.get("rows"):
        raise CorruptArchiveError(
            path,
            f"window holds {len(window)} keys, "
            f"checkpoint says {named.get('rows')}",
        )
    return window
