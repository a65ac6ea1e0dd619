"""Composable fault injectors and the injection log.

Each injector models one real-world failure mode of a long-running
collection pipeline and makes its decisions from a private, seeded
:class:`numpy.random.Generator` (handed out by
:class:`~repro.faults.plan.FaultSchedule`, one decorrelated stream per
injector).  Decisions are recorded in a shared :class:`InjectionLog`,
whose fingerprint is the bit-reproducibility contract: the same
(plan, seed, event stream) triple always yields the same log.

Every injector counts the uniform draws it consumes (``draws``) so a
resumed pipeline can fast-forward a fresh schedule to the exact RNG
state of an interrupted run (see ``FaultSchedule.fast_forward``).

The ingest-side injectors decide whole batches only (``drop_mask``,
``copies_mask``, ``push_many``, ``crash_mask``, ``attempt_many``,
``burst_mask``): a batch draws its uniforms as one vector and returns
its events as :class:`EventColumns` instead of logging them, so the
ingest pipeline can merge the events of several injectors into one
injection order (see ``InjectionLog.extend``).  No
:class:`InjectionEvent` exists until a reader of the log asks for
one.  The serving injectors decide one query at a time (``delay``,
``stuck``, ``factor``) and record each event as it happens, because
the query tier meets its queries one at a time.  The record-at-a-time
rules the batch forms must reproduce live in
``tests/faults/reference.py``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import repeat
from typing import (
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

import numpy as np

from repro.errors import (
    ConfigError,
    InjectedCrashError,
    InjectedFaultError,
    TransientStoreError,
)

T = TypeVar("T")


class InjectionEvent(NamedTuple):
    """One fault the harness injected (immutable)."""

    injector: str
    index: int
    action: str
    detail: str = ""

    def render(self) -> str:
        """Stable one-line form (the unit the log fingerprint hashes)."""
        return f"{self.injector}[{self.index}] {self.action} {self.detail}".rstrip()


@dataclass(frozen=True, eq=False)
class EventColumns:
    """One injector's batch of events, as columns.

    Event ``k`` is decision ``index[k]`` of ``injector``.  Its action
    is ``actions[codes[k]]``, or ``actions[0]`` when ``codes`` is
    ``None``.  Its detail is ``prefix + value + suffix`` with
    ``value`` the decimal ``values[k]``, or ``texts[values[k]]`` when
    ``texts`` is set, or nothing when ``values`` is ``None``.
    ``texts`` is read only when the events are, so it may be a table
    that keeps growing, such as the ingest pipeline's qname texts.
    """

    injector: str
    index: np.ndarray
    actions: Tuple[str, ...]
    codes: Optional[np.ndarray] = None
    values: Optional[np.ndarray] = None
    prefix: str = ""
    suffix: str = ""
    texts: Optional[Sequence[str]] = None

    def __len__(self) -> int:
        return len(self.index)

    def events(self) -> List[InjectionEvent]:
        """The batch as :class:`InjectionEvent` objects, in order."""
        count = len(self.index)
        if self.codes is None:
            actions: Iterable[str] = repeat(self.actions[0], count)
        else:
            actions = map(self.actions.__getitem__, self.codes.tolist())
        if self.values is None:
            details: Iterable[str] = repeat(self.prefix + self.suffix, count)
        else:
            values = self.values.tolist()
            if self.texts is not None:
                values = map(self.texts.__getitem__, values)
            details = (f"{self.prefix}{value}{self.suffix}" for value in values)
        return list(
            map(
                InjectionEvent,
                repeat(self.injector, count),
                self.index.tolist(),
                actions,
                details,
            )
        )


#: One part of an :class:`InjectionLog`: events recorded one at a
#: time, or (batches, merge order) as :meth:`InjectionLog.extend` got them.
_LogPart = Union[
    List[InjectionEvent], Tuple[Tuple[EventColumns, ...], Optional[np.ndarray]]
]


class InjectionLog:
    """Ordered record of every injected fault in a schedule's lifetime.

    The log keeps what it is given: events recorded one at a time, and
    batches of :class:`EventColumns` with the order that merges them.
    Events are built only when :meth:`events`, :meth:`lines` or
    :meth:`fingerprint` reads them.
    """

    def __init__(self) -> None:
        self._parts: List[_LogPart] = []
        self._count = 0

    def append(self, event: InjectionEvent) -> None:
        """Record one injected fault."""
        if not self._parts or not isinstance(self._parts[-1], list):
            self._parts.append([])
        self._parts[-1].append(event)
        self._count += 1

    def extend(
        self, *batches: EventColumns, order: Optional[np.ndarray] = None
    ) -> None:
        """Record batches of injected faults as one part.

        The part is the concatenation of ``batches`` taken in
        ``order`` (positions into it), or as given when ``order`` is
        ``None``.
        """
        count = sum(map(len, batches))
        if count:
            self._parts.append((batches, order))
            self._count += count

    def events(self) -> List[InjectionEvent]:
        """A copy of the recorded events, in injection order."""
        out: List[InjectionEvent] = []
        for part in self._parts:
            if isinstance(part, list):
                out += part
                continue
            batches, order = part
            merged = [event for batch in batches for event in batch.events()]
            if order is not None:
                merged = list(map(merged.__getitem__, order.tolist()))
            out += merged
        return out

    def lines(self) -> List[str]:
        """The rendered log, one line per injected fault."""
        return [event.render() for event in self.events()]

    def fingerprint(self) -> str:
        """SHA-256 over the rendered log — the bit-identity check."""
        digest = hashlib.sha256()
        for line in self.lines():
            digest.update(line.encode("utf-8"))
            digest.update(b"\n")
        return digest.hexdigest()

    def __len__(self) -> int:
        return self._count


class Injector:
    """Base class: a named decision stream over a private generator."""

    name = "injector"

    def __init__(self, rng: np.random.Generator, log: InjectionLog) -> None:
        self._rng = rng
        self._log = log
        #: Uniform draws consumed (the fast-forward unit).
        self.draws = 0
        #: Decisions taken (the log-index unit).
        self.decisions = 0
        #: Faults actually injected.
        self.injected = 0

    #: Largest vector :meth:`fast_forward` draws at once.
    _SKIP_CHUNK = 1 << 16

    def _uniform(self) -> float:
        self.draws += 1
        return float(self._rng.random())

    def _record(self, action: str, detail: str = "") -> None:
        self.injected += 1
        self._log.append(
            InjectionEvent(self.name, self.decisions, action, detail)
        )

    def _decide(self, count: int, draw: bool = True) -> Tuple[int, np.ndarray]:
        """Take ``count`` decisions at once, one uniform each if ``draw``.

        Returns the decision count before the batch (event indices of
        the batch start right after it) and the uniforms, which equal
        ``count`` successive :meth:`_uniform` draws.
        """
        first = self.decisions
        self.decisions += count
        if not draw:
            return first, np.empty(0)
        self.draws += count
        return first, self._rng.random(count)

    def _columns(
        self, first: int, positions: np.ndarray, action: str, **detail
    ) -> EventColumns:
        """Events for the batch decisions at ``positions`` (not logged).

        ``detail`` holds the :class:`EventColumns` detail fields.
        """
        self.injected += len(positions)
        return EventColumns(
            self.name, first + 1 + positions, (action,), **detail
        )

    def fast_forward(self, draws: int) -> None:
        """Discard ``draws`` uniforms to re-align with a prior run."""
        if draws < 0:
            raise ConfigError("cannot fast-forward a negative draw count")
        self.draws += draws
        while draws > 0:
            step = min(draws, self._SKIP_CHUNK)
            self._rng.random(step)
            draws -= step


def _in_windows(
    windows: Sequence[Tuple[int, int]], timestamps: np.ndarray
) -> np.ndarray:
    """Mask of ``timestamps`` inside any ``[start, end)`` window.

    Overlapping windows are merged first, so one ``searchsorted``
    over the merged starts finds the only window that can hold each
    timestamp.
    """
    inside = np.zeros(len(timestamps), dtype=bool)
    if not windows:
        return inside
    merged: List[List[int]] = []
    for start, end in sorted(windows):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    starts = np.array([start for start, _ in merged], dtype=np.int64)
    ends = np.array([end for _, end in merged], dtype=np.int64)
    slot = np.searchsorted(starts, timestamps, side="right") - 1
    hit = slot >= 0
    inside[hit] = timestamps[hit] < ends[slot[hit]]
    return inside


class DropInjector(Injector):
    """Sensor dropout: scheduled dark windows plus random packet loss."""

    name = "drop"

    def __init__(
        self,
        rate: float,
        windows: Sequence[Tuple[int, int]],
        rng: np.random.Generator,
        log: InjectionLog,
    ) -> None:
        super().__init__(rng, log)
        self.rate = rate
        self.windows = tuple(windows)
        self.window_drops = 0
        self.random_drops = 0

    def drop_mask(self, timestamps: np.ndarray) -> Tuple[np.ndarray, EventColumns]:
        """Decide which observations at ``timestamps`` are lost.

        Every decision takes one draw, window or not: an observation
        inside a dark window is lost whatever its draw, any other when
        its draw falls below ``rate``.  Returns the drop mask and one
        event per drop, in decision order.
        """
        first, draws = self._decide(len(timestamps))
        windowed = _in_windows(self.windows, timestamps)
        dropped = windowed | (draws < self.rate)
        positions = np.flatnonzero(dropped)
        self.window_drops += int(windowed.sum())
        self.random_drops += len(positions) - int(windowed.sum())
        self.injected += len(positions)
        events = EventColumns(
            self.name,
            first + 1 + positions,
            ("drop", "window-drop"),
            codes=windowed[positions].astype(np.int64),
            values=timestamps[positions],
            prefix="t=",
        )
        return dropped, events


class DuplicateInjector(Injector):
    """At-least-once delivery: the channel hands an item over twice."""

    name = "duplicate"

    def __init__(self, rate: float, rng: np.random.Generator, log: InjectionLog) -> None:
        super().__init__(rng, log)
        self.rate = rate

    def copies_mask(self, timestamps: np.ndarray) -> Tuple[np.ndarray, EventColumns]:
        """The mask of items delivered twice, one draw each."""
        first, draws = self._decide(len(timestamps))
        doubled = draws < self.rate
        positions = np.flatnonzero(doubled)
        return doubled, self._columns(
            first, positions, "duplicate", values=timestamps[positions], prefix="t="
        )


class ReorderInjector(Injector):
    """Out-of-order delivery via a bounded hold-back buffer."""

    name = "reorder"

    def __init__(
        self,
        rate: float,
        depth: int,
        rng: np.random.Generator,
        log: InjectionLog,
    ) -> None:
        super().__init__(rng, log)
        if depth < 1:
            raise ConfigError("reorder depth must be at least 1")
        self.rate = rate
        self.depth = depth
        self._held: List[T] = []

    def push_many(
        self, items: Sequence[T]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, EventColumns]:
        """Offer ``items`` to the hold-back buffer in push order.

        Works on integer positions over the items already held (oldest
        first, positions ``0..h-1``) followed by ``items`` (position
        ``h + k`` is ``items[k]``).  Returns ``(order, at, holds,
        events)``: ``order`` holds the positions released, in release
        order, ``at[j]`` is the index into ``items`` of the push that
        released ``order[j]``, and ``holds`` are the pushes that held
        their item (one event each).  Items still held at the end stay
        held for the next batch or :meth:`flush`.

        Each push takes one draw.  It holds its item while the buffer
        has room and the draw falls below ``rate``; otherwise it
        releases its own item, then every held item, oldest first.  So
        within a run of hold draws that starts with ``h0`` items
        held, the buffer before the ``j``-th push holds
        ``(h0 + j) mod (depth + 1)`` items and the push releases
        exactly when that reaches ``depth``.
        """
        count = len(items)
        held = len(self._held)
        first, draws = self._decide(count)
        wants = draws < self.rate
        index = np.arange(count)
        # Index of the last non-hold draw before each push (-1: none);
        # every non-hold draw releases, which empties the buffer.
        last_release = np.maximum.accumulate(np.where(~wants, index, -1))
        previous = np.concatenate(([-1], last_release[:-1]))
        run_start = np.where(previous < 0, held, 0)
        before = (run_start + index - previous - 1) % (self.depth + 1)
        holds = wants & (before < self.depth)
        releases = np.flatnonzero(~holds)
        # Group g collects the items the g-th release lets go: the
        # releasing item first, then the items held since the previous
        # release in hold order (the carried-in ones lead group 0).
        group = np.concatenate(
            (np.zeros(held, dtype=np.int64), np.cumsum(~holds) - ~holds)
        )
        is_held = np.concatenate((np.ones(held, dtype=bool), holds))
        released = group < len(releases)
        order = np.flatnonzero(released)
        order = order[np.argsort(2 * group[order] + is_held[order], kind="stable")]
        at = releases[group[order]]
        kept = np.flatnonzero(~released)
        self._held = [
            self._held[p] if p < held else items[p - held] for p in kept.tolist()
        ]
        hold_positions = np.flatnonzero(holds)
        events = self._columns(
            first,
            hold_positions,
            "hold",
            values=before[hold_positions] + 1,
            prefix="depth=",
        )
        return order, at, hold_positions, events

    def flush(self) -> List[T]:
        """Release everything still held (end of stream / checkpoint)."""
        released, self._held = self._held, []
        return released

    @property
    def held(self) -> int:
        return len(self._held)


class CrashInjector(Injector):
    """Subscriber crashes: a downstream consumer raising mid-fanout."""

    name = "crash"

    def __init__(self, rate: float, rng: np.random.Generator, log: InjectionLog) -> None:
        super().__init__(rng, log)
        self.rate = rate

    def failure(self, context: str = "") -> InjectedFaultError:
        """The error an injected crash at ``context`` raises."""
        return InjectedFaultError(
            f"injected subscriber crash ({context or self.name})"
        )

    def crash_mask(
        self, count: int, context: str = ""
    ) -> Tuple[np.ndarray, EventColumns]:
        """The mask of ``count`` deliveries that crash, one draw each."""
        first, draws = self._decide(count)
        crashed = draws < self.rate
        positions = np.flatnonzero(crashed)
        return crashed, self._columns(first, positions, "crash", prefix=context)


class StoreFaultInjector(Injector):
    """Transient store-write failures (the load-job that times out)."""

    name = "store"

    def __init__(self, rate: float, rng: np.random.Generator, log: InjectionLog) -> None:
        super().__init__(rng, log)
        self.rate = rate

    def failure(self, context: str = "") -> TransientStoreError:
        """The error an injected store failure at ``context`` raises."""
        return TransientStoreError(
            f"injected transient store failure ({context or self.name})"
        )

    def attempt_many(
        self, contexts: np.ndarray, texts: Sequence[str], max_attempts: int
    ) -> Tuple[np.ndarray, np.ndarray, EventColumns]:
        """Up to ``max_attempts`` write attempts per item, one draw each.

        Item ``j``'s context is ``texts[contexts[j]]``.  An attempt
        fails when its draw falls below ``rate``.  Item ``j`` is
        checked until one check passes or ``max_attempts`` have
        failed, then item ``j + 1`` is checked.
        Returns ``(failed, failure_items, events)``: ``failed[j]`` says
        whether all of item ``j``'s attempts failed, and one event per
        failed check gives its item in ``failure_items``.

        The draws are taken in refills of one per item still open:
        each open item needs at least one more draw, so a refill never
        draws past the last item's final check.
        """
        count = len(contexts)
        failed = np.zeros(count, dtype=bool)
        first = self.decisions
        fail_draws = [np.empty(0, dtype=np.int64)]
        fail_items = [np.empty(0, dtype=np.int64)]
        done = 0
        streak = 0  # failed checks of the open item so far
        offset = 0  # draws taken before this refill
        while done < count:
            _, draws = self._decide(count - done)
            fails = draws < self.rate
            index = np.arange(len(draws))
            passes = np.where(~fails, index, -1)
            previous = np.concatenate(
                ([-1], np.maximum.accumulate(passes)[:-1])
            )
            # Attempt number of each draw within its item: fails since
            # the last pass (plus the open item's carried streak),
            # wrapping when an item exhausts its attempts.
            attempt = (
                np.where(previous < 0, streak, 0) + index - previous - 1
            ) % max_attempts
            ends = ~fails | (attempt == max_attempts - 1)
            item = done + np.cumsum(ends) - ends
            failed[item[fails & ends]] = True
            fail_draws.append(offset + np.flatnonzero(fails))
            fail_items.append(item[fails])
            done += int(ends.sum())
            streak = 0 if ends[-1] else int(attempt[-1]) + 1
            offset += len(draws)
        items = np.concatenate(fail_items)
        events = self._columns(
            first,
            np.concatenate(fail_draws),
            "store-failure",
            values=contexts[items],
            texts=texts,
        )
        return failed, items, events


class BurstInjector(Injector):
    """Flood episodes: short windows where volume is amplified.

    Purely window-driven (no per-event draws), modelling an
    NXNSAttack-style query flood hitting the sensed resolvers.
    """

    name = "burst"

    def __init__(
        self,
        windows: Sequence[Tuple[int, int]],
        multiplier: int,
        rng: np.random.Generator,
        log: InjectionLog,
    ) -> None:
        super().__init__(rng, log)
        if multiplier < 1:
            raise ConfigError("burst multiplier must be at least 1")
        self.windows = tuple(windows)
        self.multiplier = multiplier

    def burst_mask(self, timestamps: np.ndarray) -> Tuple[np.ndarray, EventColumns]:
        """The mask of items inside a flood window (no draws)."""
        first, _ = self._decide(len(timestamps), draw=False)
        amplified = _in_windows(self.windows, timestamps)
        positions = np.flatnonzero(amplified)
        return amplified, self._columns(
            first,
            positions,
            "burst",
            values=timestamps[positions],
            prefix="t=",
            suffix=f" x{self.multiplier}",
        )


# ---------------------------------------------------------------------------
# serving faults: overload injectors for the query tier
# ---------------------------------------------------------------------------


class SlowWorkerInjector(Injector):
    """A worker that takes far longer on a query than its cost predicts.

    Models a page-cache miss storm, a GC pause, or a noisy neighbour:
    the query still completes correctly, just ``seconds`` later — which
    is enough to blow a deadline and back the admission queue up.
    """

    name = "slow-worker"

    def __init__(
        self,
        rate: float,
        seconds: int,
        rng: np.random.Generator,
        log: InjectionLog,
    ) -> None:
        super().__init__(rng, log)
        if seconds < 1:
            raise ConfigError("slow-worker delay must be at least 1 second")
        self.rate = rate
        self.seconds = seconds

    def delay(self, context: str = "") -> int:
        """Extra simulated service seconds for the current query."""
        self.decisions += 1
        if self._uniform() < self.rate:
            self._record("slow", f"{context} +{self.seconds}s".strip())
            return self.seconds
        return 0


class StuckWorkerInjector(Injector):
    """A worker that stops making progress entirely on one query.

    The deadlock/livelock failure mode: no result ever comes back, so
    only the deadline reaper frees the worker.  The query tier charges
    the whole remaining budget and counts the query cancelled.
    """

    name = "stuck-worker"

    def __init__(
        self, rate: float, rng: np.random.Generator, log: InjectionLog
    ) -> None:
        super().__init__(rng, log)
        self.rate = rate

    def stuck(self, context: str = "") -> bool:
        """Whether the worker wedges on the current query."""
        self.decisions += 1
        if self._uniform() < self.rate:
            self._record("stuck", context)
            return True
        return False


class QueryBurstInjector(Injector):
    """Arrival bursts: windows where each submission fans out ×N.

    The serving-side sibling of :class:`BurstInjector` — purely
    window-driven, modelling a tenant script gone hot-loop (or an
    NXNSAttack-style flood of per-client breakdown queries) hitting
    the admission controller.
    """

    name = "query-burst"

    def __init__(
        self,
        windows: Sequence[Tuple[int, int]],
        fanout: int,
        rng: np.random.Generator,
        log: InjectionLog,
    ) -> None:
        super().__init__(rng, log)
        if fanout < 1:
            raise ConfigError("query-burst fanout must be at least 1")
        self.windows = tuple(windows)
        self.fanout = fanout

    def factor(self, timestamp: int) -> int:
        """Arrival multiplier in effect at ``timestamp`` (1 = none)."""
        self.decisions += 1
        for start, end in self.windows:
            if start <= timestamp < end:
                self._record("query-burst", f"t={timestamp} x{self.fanout}")
                return self.fanout
        return 1


# ---------------------------------------------------------------------------
# storage faults: crash-at-a-write-boundary injectors for the spill store
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaultAction:
    """What the durability layer should do at one write boundary.

    Returned by :meth:`StorageFaultInjector.decide`; the spill store's
    IO layer applies it mechanically (see ``repro.passivedns.spill``).
    ``truncate_to``/``flip`` only apply to byte-writing boundaries;
    ``lose`` applies to ``fsync`` boundaries (the write is rolled back
    to its pre-write content, as if the kernel never flushed it) and to
    ``unlink`` boundaries (the directory entry never leaves the disk).
    """

    crash_before: bool = False
    crash_after: bool = False
    truncate_to: Optional[int] = None
    flip: Optional[Tuple[int, int]] = None
    lose: bool = False


#: The boundary ops a durability layer reports.  ``write`` and
#: ``append`` carry bytes; ``fsync`` flushes one file; ``replace`` is
#: the atomic rename; ``dirsync`` flushes the directory entry;
#: ``unlink`` removes a retired file (compaction's reclaim step).
STORAGE_OPS = ("write", "append", "fsync", "replace", "dirsync", "unlink")

_NO_FAULT = FaultAction()


class StorageFaultInjector(Injector):
    """Base class: counts durability boundaries, fires at a pinned one.

    Unlike the rate-driven injectors above, storage injectors are
    *positional*: the harness enumerates every write boundary of a
    spill-store workload (run once with the base class, which never
    fires, and read ``decisions``), then re-runs the workload once per
    boundary with an injector pinned to it — the deterministic
    crash-at-every-write-boundary matrix.  ``at=None`` never fires.
    """

    name = "storage-probe"

    def __init__(
        self,
        rng: np.random.Generator,
        log: InjectionLog,
        at: Optional[int] = None,
    ) -> None:
        super().__init__(rng, log)
        if at is not None and at < 0:
            raise ConfigError("boundary index must be non-negative")
        self.at = at
        #: True once the pinned boundary has fired.
        self.fired = False

    def decide(self, op: str, path: str, size: int = 0) -> FaultAction:
        """The durability layer's per-boundary hook."""
        if op not in STORAGE_OPS:
            raise ConfigError(f"unknown storage op {op!r}")
        index = self.decisions
        self.decisions += 1
        if self.fired or self.at is None or index != self.at:
            return _NO_FAULT
        self.fired = True
        return self._fire(op, path, size)

    def _fire(self, op: str, path: str, size: int) -> FaultAction:
        """Subclass hook: the action taken at the pinned boundary."""
        return _NO_FAULT

    def crash(self, context: str = "") -> None:
        """Kill the writer (called by the IO layer per the action)."""
        self._record("crash", context)
        raise InjectedCrashError(
            f"injected writer crash at boundary {self.at} ({context})"
        )


class TornWriteInjector(StorageFaultInjector):  # repro: noqa[REP105] listed by `faults --list-injectors` via vars(); fired by the spill crash matrix
    """A write lands partially, then the process dies.

    At a byte-writing boundary only a seeded fraction of the payload
    reaches the file before the crash; at any other boundary the
    process dies *before* the operation takes effect (covering
    crash-before-rename and crash-before-fsync points).
    """

    name = "torn-write"

    def _fire(self, op: str, path: str, size: int) -> FaultAction:
        if op in ("write", "append") and size > 0:
            keep = int(self._uniform() * size) % size
            self._record("torn-write", f"{path} keep={keep}/{size}")
            return FaultAction(truncate_to=keep, crash_after=True)
        self._record("crash-before", f"{op} {path}")
        return FaultAction(crash_before=True)


class BitFlipInjector(StorageFaultInjector):  # repro: noqa[REP105] listed by `faults --list-injectors` via vars(); fired by the spill crash matrix
    """Silent at-rest corruption: one bit flips inside a written file.

    The writer *survives* and completes its protocol — the flip models
    media corruption that nothing notices until the next
    :meth:`SpillStore.open` checksums the segment.  At boundaries that
    carry no bytes the process dies right after the operation instead
    (covering crash-after-rename points).
    """

    name = "bit-flip"

    def _fire(self, op: str, path: str, size: int) -> FaultAction:
        if op in ("write", "append") and size > 0:
            position = int(self._uniform() * size) % size
            bit = int(self._uniform() * 8) % 8
            self._record("bit-flip", f"{path} byte={position} bit={bit}")
            return FaultAction(flip=(position, 1 << bit))
        self._record("crash-after", f"{op} {path}")
        return FaultAction(crash_after=True)


class FsyncLossInjector(StorageFaultInjector):  # repro: noqa[REP105] listed by `faults --list-injectors` via vars(); fired by the spill crash matrix
    """An fsync reports success but the data never hits the platter.

    At an ``fsync`` boundary the file is rolled back to its pre-write
    content and the process dies — the classic lost-write window.  An
    ``unlink`` boundary is lost the same way: the removal never reaches
    the disk (the retired file survives the crash), modelling a
    directory entry whose deletion was never journalled.  At any other
    boundary the process dies right after the operation.
    """

    name = "fsync-loss"

    def _fire(self, op: str, path: str, size: int) -> FaultAction:
        if op == "fsync":
            self._record("fsync-loss", path)
            return FaultAction(lose=True, crash_after=True)
        if op == "unlink":
            self._record("unlink-loss", path)
            return FaultAction(lose=True, crash_after=True)
        self._record("crash-after", f"{op} {path}")
        return FaultAction(crash_after=True)
