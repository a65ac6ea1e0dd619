"""Multi-vantage collection (§3.1's caching argument, made testable).

Farsight's feed aggregates sensors at *many* resolvers.  The paper
argues DNS caching therefore doesn't significantly distort NXDomain
volume: each resolver's negative cache suppresses only that resolver's
repeat queries, and a domain polled by clients behind many resolvers
is observed once per resolver per negative-TTL window rather than once
globally.

:class:`MultiVantageCollector` builds N sensor-tapped resolvers over
one shared authoritative hierarchy and routes a client population
across them, so the suppression-vs-vantage-count relationship can be
measured instead of asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.dns.hierarchy import DnsHierarchy
from repro.dns.message import RRType
from repro.dns.name import DomainName
from repro.dns.resolver import ResolutionResult
from repro.dns.tld import TldRegistry
from repro.passivedns.channel import SieChannel
from repro.passivedns.database import PassiveDnsDatabase
from repro.passivedns.record import DnsObservation
from repro.passivedns.sensor import Sensor, SensorTappedResolver
from repro.errors import ConfigError


@dataclass
class VantageStats:
    """What one collection run observed."""

    vantage_points: int
    client_queries: int
    channel_observations: int

    @property
    def suppression(self) -> float:
        """Fraction of client queries invisible to the channel."""
        if self.client_queries == 0:
            return 0.0
        return 1.0 - self.channel_observations / self.client_queries


class MultiVantageCollector:
    """N resolvers, N sensors, one channel, one database.

    Clients are assigned to vantage points by a stable hash of their
    identifier — the "users sit behind their ISP's resolver" model —
    so moving to more vantage points re-partitions the same query
    stream rather than changing it.
    """

    def __init__(
        self,
        vantage_points: int,
        hierarchy: Optional[DnsHierarchy] = None,
        use_negative_cache: bool = True,
    ) -> None:
        if vantage_points < 1:
            raise ConfigError("need at least one vantage point")
        self.hierarchy = (
            hierarchy
            if hierarchy is not None
            else DnsHierarchy.build(TldRegistry.default())
        )
        self.channel = SieChannel()
        self.database = PassiveDnsDatabase()
        self.channel.subscribe(self._store)
        self._resolvers: List[SensorTappedResolver] = [
            SensorTappedResolver(
                self.hierarchy.make_recursive_resolver(
                    use_negative_cache=use_negative_cache
                ),
                Sensor(f"vantage-{index}", self.channel),
            )
            for index in range(vantage_points)
        ]
        self.client_queries = 0

    def _store(self, observation: DnsObservation) -> None:
        """The channel subscriber: land one (filtered) observation."""
        self.database.add_rows(
            observation.registered_domain,
            [observation.timestamp],
            [observation.count],
        )

    @property
    def vantage_points(self) -> int:
        return len(self._resolvers)

    def resolver_for(self, client_id: int) -> SensorTappedResolver:
        """The vantage point serving ``client_id`` (stable assignment)."""
        return self._resolvers[client_id % len(self._resolvers)]

    def query(
        self, client_id: int, qname: DomainName, now: int, rtype: RRType = RRType.A
    ) -> ResolutionResult:
        """One client query through its assigned vantage point."""
        self.client_queries += 1
        return self.resolver_for(client_id).resolve(qname, now, rtype)

    def stats(self) -> VantageStats:
        return VantageStats(
            vantage_points=self.vantage_points,
            client_queries=self.client_queries,
            channel_observations=self.channel.published,
        )


def replay_clients(
    collector: MultiVantageCollector,
    rng: np.random.Generator,
    clients: int = 60,
    queries: int = 2_000,
    nx_pool: int = 40,
    query_interval: int = 30,
) -> VantageStats:
    """Replay a Zipf client/domain query stream through a collector.

    The stream is derived from ``rng`` so two collectors replaying with
    identically seeded generators see the same queries — only the
    vantage partitioning differs.
    """
    names = [DomainName(f"popular-nx-{i}.com") for i in range(nx_pool)]
    now = 0
    for _ in range(queries):
        now += int(rng.integers(1, query_interval))
        client = int(rng.integers(0, clients))
        domain = names[min(int(rng.pareto(1.0)), nx_pool - 1)]
        collector.query(client, domain, now=now)
    return collector.stats()
