"""Resolver cache with TTL expiry and RFC 2308 negative caching.

The cache is shared between the recursive resolver (caching answers so
repeated user queries don't traverse the hierarchy, Figure 1 step ⑤)
and the passive DNS pipeline's modelling of what sensors above the
cache do or don't see.  Negative entries (NXDOMAIN and NODATA) are
cached keyed by (name, type) with the TTL derived from the authority
SOA, exactly the behaviour RFC 2308 §5 prescribes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.dns.message import RCode, ResourceRecord, RRType
from repro.dns.name import DomainName
from repro.errors import ConfigError


class CacheOutcome(enum.Enum):
    """What a cache probe found."""

    MISS = "miss"
    POSITIVE = "positive"
    NEGATIVE_NXDOMAIN = "negative-nxdomain"
    NEGATIVE_NODATA = "negative-nodata"


@dataclass
class CacheEntry:
    """One cached (name, type) outcome."""

    name: DomainName
    rtype: RRType
    stored_at: int
    ttl: int
    records: List[ResourceRecord] = field(default_factory=list)
    rcode: RCode = RCode.NOERROR

    def expires_at(self) -> int:
        return self.stored_at + self.ttl

    def is_expired(self, now: int) -> bool:
        return now >= self.expires_at()

    def remaining_ttl(self, now: int) -> int:
        return max(0, self.expires_at() - now)


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    negative_hits: int = 0
    insertions: int = 0
    evictions: int = 0


class ResolverCache:
    """A TTL-bounded positive + negative cache.

    ``max_entries`` bounds memory; eviction removes the entries that
    expire soonest (a good-enough stand-in for LRU given TTL-driven
    workloads).

    ``max_negative_ttl`` caps negative TTLs as RFC 2308 §5 recommends
    (it suggests 1-3 hours, maximum one day).
    """

    DEFAULT_MAX_NEGATIVE_TTL = 3 * 3600

    def __init__(
        self,
        max_entries: int = 100_000,
        max_negative_ttl: int = DEFAULT_MAX_NEGATIVE_TTL,
    ) -> None:
        if max_entries <= 0:
            raise ConfigError("max_entries must be positive")
        self.max_entries = max_entries
        self.max_negative_ttl = max_negative_ttl
        self._entries: Dict[Tuple[DomainName, RRType], CacheEntry] = {}
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    # -- probing --------------------------------------------------------

    def probe(
        self, name: DomainName, rtype: RRType, now: int
    ) -> Tuple[CacheOutcome, Optional[CacheEntry]]:
        """Look up (name, type), honouring TTL expiry at time ``now``.

        An NXDOMAIN entry for a name answers *any* type for that name
        (RFC 2308 §5: the name does not exist, so no type does).
        """
        entry = self._entries.get((name, rtype))
        if entry is not None and entry.is_expired(now):
            del self._entries[(name, rtype)]
            self.stats.evictions += 1
            entry = None
        if entry is None:
            # Type-independent NXDOMAIN entries are stored under ANY.
            nx = self._entries.get((name, RRType.ANY))
            if nx is not None and nx.is_expired(now):
                del self._entries[(name, RRType.ANY)]
                self.stats.evictions += 1
                nx = None
            if nx is not None and nx.rcode == RCode.NXDOMAIN:
                self.stats.negative_hits += 1
                return CacheOutcome.NEGATIVE_NXDOMAIN, nx
            self.stats.misses += 1
            return CacheOutcome.MISS, None
        if entry.rcode == RCode.NXDOMAIN:
            self.stats.negative_hits += 1
            return CacheOutcome.NEGATIVE_NXDOMAIN, entry
        if not entry.records:
            self.stats.negative_hits += 1
            return CacheOutcome.NEGATIVE_NODATA, entry
        self.stats.hits += 1
        return CacheOutcome.POSITIVE, entry

    # -- population -------------------------------------------------------

    def store_positive(
        self, name: DomainName, rtype: RRType, records: List[ResourceRecord], now: int
    ) -> CacheEntry:
        """Cache an answer; entry TTL is the minimum record TTL."""
        if not records:
            raise ConfigError("positive entries need at least one record")
        ttl = min(rr.ttl for rr in records)
        entry = CacheEntry(name, rtype, now, ttl, records=list(records))
        self._insert((name, rtype), entry)
        return entry

    def store_nxdomain(
        self, name: DomainName, negative_ttl: int, now: int
    ) -> CacheEntry:
        """Cache an NXDOMAIN for ``name`` (applies to every type)."""
        ttl = min(negative_ttl, self.max_negative_ttl)
        entry = CacheEntry(name, RRType.ANY, now, ttl, rcode=RCode.NXDOMAIN)
        self._insert((name, RRType.ANY), entry)
        return entry

    def store_nodata(
        self, name: DomainName, rtype: RRType, negative_ttl: int, now: int
    ) -> CacheEntry:
        """Cache a NODATA for the specific (name, type)."""
        ttl = min(negative_ttl, self.max_negative_ttl)
        entry = CacheEntry(name, rtype, now, ttl, rcode=RCode.NOERROR)
        self._insert((name, rtype), entry)
        return entry

    def clear(self) -> None:
        self._entries.clear()

    # -- internals -------------------------------------------------------

    def _insert(self, key: Tuple[DomainName, RRType], entry: CacheEntry) -> None:
        if key not in self._entries and len(self._entries) >= self.max_entries:
            self._evict_soonest_expiring()
        self._entries[key] = entry
        self.stats.insertions += 1

    def _evict_soonest_expiring(self) -> None:
        victim = min(self._entries, key=lambda k: self._entries[k].expires_at())
        del self._entries[victim]
        self.stats.evictions += 1
