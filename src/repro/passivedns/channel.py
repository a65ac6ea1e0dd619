"""The SIE-style distribution channel.

Sensors publish observations; subscribers (the passive DNS database,
ad-hoc analysis taps) receive every observation that passes the
channel's filter.  Channel 221 — the one the paper consumes — carries
only NXDOMAIN responses and drops reverse-lookup names, so that filter
is the default here.

Fan-out is *isolated*: one crashing subscriber can no longer starve
the subscribers after it of an observation.  What happens to the error
afterwards is the channel's :class:`DeliveryErrorPolicy` — re-raised
(the default, preserving fail-fast behaviour), counted, or counted
*and* pushed to a dead-letter queue for replay.
"""

from __future__ import annotations

import enum
from typing import Callable, List, Optional

import numpy as np

from repro.errors import ConfigError, ReproError, UnknownKeyError
from repro.passivedns.record import DnsObservation
from repro.resilience.dlq import DeadLetterQueue

Subscriber = Callable[[DnsObservation], None]


class DeliveryErrorPolicy(enum.Enum):
    """What the channel does with a subscriber's ``ReproError``."""

    #: Deliver to every remaining subscriber, then re-raise the first
    #: error (the pre-resilience surface, minus the lost fanout).
    RAISE = "raise"
    #: Count the error and keep going.
    COUNT = "count"
    #: Count and quarantine the observation for replay.
    DEAD_LETTER = "dead-letter"


class SieChannel:
    """A filtered pub/sub channel for DNS observations."""

    #: SIE channel number for NXDomains, for fidelity of labels/logs.
    NXDOMAIN_CHANNEL = 221

    def __init__(
        self,
        nxdomain_only: bool = True,
        drop_reverse_lookups: bool = True,
        error_policy: DeliveryErrorPolicy = DeliveryErrorPolicy.RAISE,
        dead_letters: Optional[DeadLetterQueue] = None,
    ) -> None:
        if (
            error_policy is DeliveryErrorPolicy.DEAD_LETTER
            and dead_letters is None
        ):
            raise ConfigError(
                "DEAD_LETTER policy requires a DeadLetterQueue"
            )
        self.nxdomain_only = nxdomain_only
        self.drop_reverse_lookups = drop_reverse_lookups
        self.error_policy = error_policy
        self.dead_letters = dead_letters
        self._subscribers: List[Subscriber] = []
        self.published = 0
        self.dropped = 0
        self.subscriber_errors = 0

    def subscribe(self, subscriber: Subscriber) -> None:
        """Register a callback invoked for each accepted observation."""
        self._subscribers.append(subscriber)

    def unsubscribe(self, subscriber: Subscriber) -> None:
        """Remove a previously registered callback."""
        try:
            self._subscribers.remove(subscriber)
        except ValueError:
            raise UnknownKeyError(
                f"subscriber {subscriber!r} is not registered"
            ) from None

    def publish(self, observation: DnsObservation) -> bool:
        """Offer an observation; returns True when it passed the filter.

        Every subscriber is attempted even when an earlier one raises a
        :class:`ReproError`; programming errors outside the library's
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
                if self.error_policy is DeliveryErrorPolicy.RAISE:
                    if first_error is None:
                        first_error = exc
                elif self.error_policy is DeliveryErrorPolicy.DEAD_LETTER:
                    assert self.dead_letters is not None
                    self.dead_letters.push(
                        observation,
                        reason=f"subscriber failed: {exc}",
                        timestamp=observation.timestamp,
                    )
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

    @property
    def subscriber_count(self) -> int:
        return len(self._subscribers)
