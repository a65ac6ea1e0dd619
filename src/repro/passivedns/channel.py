"""The SIE-style distribution channel.

Sensors publish observations; subscribers (the passive DNS database,
ad-hoc analysis taps) receive every observation that passes the
channel's filter.  Channel 221 — the one the paper consumes — carries
only NXDOMAIN responses and drops reverse-lookup names, so that filter
is the default here.

Fan-out is *isolated*: one crashing subscriber can no longer starve
the subscribers after it of an observation.  The channel counts the
error and, once every subscriber has been tried, re-raises the first
one (fail-fast).  A subscriber that should quarantine its failures
instead catches them itself; the columnar ingest pipeline delivers
and dead-letters its rows without subscribers at all.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from repro.errors import ReproError
from repro.passivedns.record import DnsObservation

Subscriber = Callable[[DnsObservation], None]


class SieChannel:
    """A filtered pub/sub channel for DNS observations."""

    #: SIE channel number for NXDomains, for fidelity of labels/logs.
    NXDOMAIN_CHANNEL = 221

    def __init__(
        self,
        nxdomain_only: bool = True,
        drop_reverse_lookups: bool = True,
    ) -> None:
        self.nxdomain_only = nxdomain_only
        self.drop_reverse_lookups = drop_reverse_lookups
        self._subscribers: List[Subscriber] = []
        self.published = 0
        self.dropped = 0
        self.subscriber_errors = 0

    def subscribe(self, subscriber: Subscriber) -> None:
        """Register a callback invoked for each accepted observation."""
        self._subscribers.append(subscriber)

    def publish(self, observation: DnsObservation) -> bool:
        """Offer an observation; returns True when it passed the filter.

        Every subscriber is attempted even when an earlier one raises a
        :class:`ReproError`; the first such error is re-raised after
        the last subscriber.  Programming errors outside the library's
        hierarchy still propagate immediately.
        """
        if self.nxdomain_only and not observation.is_nxdomain:
            self.dropped += 1
            return False
        if self.drop_reverse_lookups and observation.qname.is_reverse_lookup():
            self.dropped += 1
            return False
        self.published += 1
        first_error: Optional[ReproError] = None
        for subscriber in self._subscribers:
            try:
                subscriber(observation)
            except ReproError as exc:
                self.subscriber_errors += 1
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error
        return True

    def accept_many(
        self, nxdomain: np.ndarray, reverse_lookup: np.ndarray
    ) -> np.ndarray:
        """Vector form of :meth:`publish`'s filter for a batch.

        Counts the batch into ``published``/``dropped`` exactly as one
        :meth:`publish` per item would, and returns the mask of items
        that pass.  Subscribers are not called: a batch publisher
        delivers the passing items itself (and counts its delivery
        errors into ``subscriber_errors``).
        """
        accepted = np.ones(len(nxdomain), dtype=bool)
        if self.nxdomain_only:
            accepted &= nxdomain
        if self.drop_reverse_lookups:
            accepted &= ~reverse_lookup
        passed = int(accepted.sum())
        self.published += passed
        self.dropped += len(accepted) - passed
        return accepted
