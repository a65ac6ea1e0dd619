"""Token-bucket rate limiting over simulated time.

Extracted from :mod:`repro.blocklist.store`, which modeled the paper's
blocklist-API quota with an inline fixed window.  The config half
(:class:`RateLimit`) keeps its old import path as a re-export; the
stateful half (:class:`TokenBucket`) is the reusable piece — the
serving tier hangs one bucket per tenant off its admission controller,
and the blocklist store throttles its external API with one.

``now`` is simulated epoch seconds throughout (:class:`SimClock`
discipline): the window opens on the first acquire and resets
``window_seconds`` later, so behaviour is a pure function of the
acquire sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError


@dataclass
class RateLimit:
    """A token bucket: ``capacity`` queries refilled every ``window`` s."""

    capacity: int = 10_000
    window_seconds: int = 3600

    def __post_init__(self) -> None:
        if self.capacity <= 0 or self.window_seconds <= 0:
            raise ConfigError("capacity and window must be positive")


class TokenBucket:
    """Fixed-window token state for one principal (tenant, API key).

    Not thread-safe by itself; callers that share a bucket across
    threads serialize acquires (the admission controller takes them
    under its queue lock).
    """

    def __init__(self, limit: RateLimit) -> None:
        self.limit = limit
        self._window_start: Optional[int] = None
        self._used = 0
        # Lifetime counters an operator would graph.
        self.granted = 0
        self.rejected = 0

    def _refill(self, now: int) -> None:
        """Reset an elapsed window.  Reads never *open* a window — the
        window starts at the first acquire, so probing ``retry_after``
        ahead of time has no side effect."""
        if (
            self._window_start is not None
            and now - self._window_start >= self.limit.window_seconds
        ):
            self._window_start = None
            self._used = 0

    def retry_after(self, now: int) -> int:
        """Seconds until a rejected caller should retry (0 = now)."""
        self._refill(now)
        if self._window_start is None or self._used < self.limit.capacity:
            return 0
        return max(0, self._window_start + self.limit.window_seconds - now)

    def try_acquire(self, now: int, tokens: int = 1) -> bool:
        """Take ``tokens`` from the window at ``now`` if available."""
        if tokens < 1:
            raise ConfigError("tokens must be at least 1")
        self._refill(now)
        if self._window_start is None:
            self._window_start = now
        if self._used + tokens > self.limit.capacity:
            self.rejected += 1
            return False
        self._used += tokens
        self.granted += 1
        return True
