"""Record-at-a-time rules of the ingest fault injectors.

The program decides ingest faults a batch at a time (``drop_mask``,
``copies_mask``, ``push_many``, ``crash_mask``, ``attempt_many``,
``burst_mask``).  The functions here take the same decisions one item
at a time over the same injector: one ``_uniform`` draw per decision,
each injected fault logged through ``_record`` as it happens.  They
are the oracle the batch forms are checked against, and they drive
:class:`tests.passivedns.reference.ReferencePipeline`.

All of them are deliberately the slow, obvious form of the rule.
"""

from typing import Callable, List, TypeVar

from repro.faults.injectors import (
    BurstInjector,
    CrashInjector,
    DropInjector,
    DuplicateInjector,
    ReorderInjector,
    StoreFaultInjector,
)

T = TypeVar("T")


def should_drop(drop: DropInjector, timestamp: int) -> bool:
    """Decide whether the observation at ``timestamp`` is lost."""
    drop.decisions += 1
    draw = drop._uniform()
    for start, end in drop.windows:
        if start <= timestamp < end:
            drop.window_drops += 1
            drop._record("window-drop", f"t={timestamp}")
            return True
    if draw < drop.rate:
        drop.random_drops += 1
        drop._record("drop", f"t={timestamp}")
        return True
    return False


def copies(duplicate: DuplicateInjector, timestamp: int) -> int:
    """How many times the current item is delivered (1 or 2)."""
    duplicate.decisions += 1
    if duplicate._uniform() < duplicate.rate:
        duplicate._record("duplicate", f"t={timestamp}")
        return 2
    return 1


def push(reorder: ReorderInjector, item: T) -> List[T]:
    """Offer one item; returns the items released (possibly [])."""
    reorder.decisions += 1
    draw = reorder._uniform()
    if draw < reorder.rate and len(reorder._held) < reorder.depth:
        reorder._held.append(item)
        reorder._record("hold", f"depth={len(reorder._held)}")
        return []
    if reorder._held:
        released = [item] + reorder._held
        reorder._held = []
        return released
    return [item]


def maybe_crash(crash: CrashInjector, context: str = "") -> None:
    """Raise the injector's :meth:`failure` with the configured rate."""
    crash.decisions += 1
    if crash._uniform() < crash.rate:
        crash._record("crash", context)
        raise crash.failure(context)


def wrap(
    crash: CrashInjector, handler: Callable[[T], None], context: str = ""
) -> Callable[[T], None]:
    """A handler that crashes per schedule before delegating."""

    def faulty(item: T) -> None:
        maybe_crash(crash, context)
        handler(item)

    return faulty


def check(store: StoreFaultInjector, context: str = "") -> None:
    """One store write attempt: raise :meth:`failure` with the rate."""
    store.decisions += 1
    if store._uniform() < store.rate:
        store._record("store-failure", context)
        raise store.failure(context)


def factor(burst: BurstInjector, timestamp: int) -> int:
    """Volume multiplier in effect at ``timestamp`` (1 = none)."""
    burst.decisions += 1
    for start, end in burst.windows:
        if start <= timestamp < end:
            burst._record("burst", f"t={timestamp} x{burst.multiplier}")
            return burst.multiplier
    return 1
