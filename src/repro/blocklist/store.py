"""The blocklist store and its rate-limited query API.

The paper could not run its full 91 M expired NXDomains against the
commercial blocklist "due to the rate limit of querying the blocklist
database" and sampled 20 M instead.  :class:`BlocklistStore` models
that operational constraint with a token-bucket limiter on
:meth:`query`; internal bulk population and the unthrottled
:meth:`lookup` remain available to the simulation itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from repro.blocklist.categories import ThreatCategory
from repro.dns.name import DomainName
from repro.errors import RateLimitExceeded

# The limiter grew up and moved to the resilience layer (the serving
# tier shares it); ``RateLimit`` stays importable from here.
from repro.resilience.ratelimit import RateLimit, TokenBucket


@dataclass(frozen=True)
class BlocklistEntry:
    """One blocklisted domain with provenance."""

    domain: DomainName
    category: ThreatCategory
    listed_at: int
    source: str = "feed"


class BlocklistStore:
    """Categorized domain blocklist with a throttled external API."""

    def __init__(self, rate_limit: Optional[RateLimit] = None) -> None:
        self._bucket = TokenBucket(
            rate_limit if rate_limit is not None else RateLimit()
        )
        self._entries: Dict[DomainName, BlocklistEntry] = {}
        self.queries_served = 0
        self.queries_rejected = 0

    @property
    def rate_limit(self) -> RateLimit:
        return self._bucket.limit

    @rate_limit.setter
    def rate_limit(self, limit: RateLimit) -> None:
        # Swapping the limit starts a fresh window (how the study
        # harness lifts the quota between analysis phases).
        self._bucket = TokenBucket(limit)

    # -- population (registry side, unthrottled) ---------------------------

    def add(
        self,
        domain: DomainName,
        category: ThreatCategory,
        listed_at: int = 0,
        source: str = "feed",
    ) -> BlocklistEntry:
        """List a domain; re-listing keeps the earliest entry."""
        key = domain.registered_domain()
        existing = self._entries.get(key)
        if existing is not None:
            return existing
        entry = BlocklistEntry(key, category, listed_at, source)
        self._entries[key] = entry
        return entry

    def add_all(self, entries: Iterable[BlocklistEntry]) -> None:
        for entry in entries:
            self.add(entry.domain, entry.category, entry.listed_at, entry.source)

    def remove(self, domain: DomainName) -> bool:
        return self._entries.pop(domain.registered_domain(), None) is not None

    # -- internal lookup (simulation side, unthrottled) ----------------------

    def lookup(self, domain: DomainName) -> Optional[BlocklistEntry]:
        return self._entries.get(domain.registered_domain())

    def __contains__(self, domain: DomainName) -> bool:
        return domain.registered_domain() in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    # -- external API (throttled, what the study calls) -------------------------

    def query(self, domain: DomainName, now: int) -> Optional[BlocklistEntry]:
        """Rate-limited lookup; raises :class:`RateLimitExceeded`.

        ``now`` is simulation time; the token window slides with it.
        """
        if not self._bucket.try_acquire(now):
            self.queries_rejected += 1
            raise RateLimitExceeded(
                f"blocklist API limit of {self.rate_limit.capacity} queries "
                f"per {self.rate_limit.window_seconds}s exhausted",
                retry_after=self._bucket.retry_after(now),
            )
        self.queries_served += 1
        return self.lookup(domain)
