"""Collection sensors.

A :class:`Sensor` is a tap: it is handed resolution results and
publishes qualifying observations to its channel.
:class:`SensorTappedResolver` is the convenience deployment used by
the workload layer — a recursive resolver whose *upstream* traffic is
mirrored to a sensor, matching Farsight's dominant vantage point
(between recursive resolvers and authoritative servers, above caches).

A sensor injects no faults of its own: collection loss is modelled
downstream by the ingest pipeline's fault schedule
(:mod:`repro.passivedns.pipeline`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.dns.message import RRType
from repro.dns.name import DomainName
from repro.dns.resolver import RecursiveResolver, ResolutionResult
from repro.passivedns.channel import SieChannel
from repro.passivedns.record import DnsObservation


@dataclass
class SensorStats:
    """Per-sensor accounting of what was tapped and where it went."""

    observed: int = 0
    published: int = 0
    filtered: int = 0


class Sensor:
    """Turns resolver results into observations and publishes them."""

    def __init__(self, sensor_id: str, channel: SieChannel) -> None:
        self.sensor_id = sensor_id
        self.channel = channel
        self.stats = SensorStats()

    # -- capture -------------------------------------------------------------

    def observe_result(
        self, result: ResolutionResult, now: int, count: int = 1
    ) -> Optional[DnsObservation]:
        """Tap a resolver-level result (the aggregated fast path)."""
        self.stats.observed += 1
        observation = DnsObservation(
            qname=result.qname,
            rcode=result.rcode,
            timestamp=now,
            sensor_id=self.sensor_id,
            rtype=result.rtype,
            count=count,
        )
        return self._publish(observation)

    # -- internals -----------------------------------------------------------

    def _publish(self, observation: DnsObservation) -> Optional[DnsObservation]:
        if self.channel.publish(observation):
            self.stats.published += 1
            return observation
        self.stats.filtered += 1
        return None


class SensorTappedResolver:
    """A recursive resolver whose cache-miss traffic feeds a sensor.

    Only *upstream* resolutions are visible to the sensor — cache hits
    (positive or negative) never leave the resolver, which is exactly
    why negative caching suppresses repeat NXDomain observations and
    why the negative-caching ablation changes measured volume.
    """

    def __init__(self, resolver: RecursiveResolver, sensor: Sensor) -> None:
        self.resolver = resolver
        self.sensor = sensor

    def resolve(
        self, qname: DomainName, now: int, rtype: RRType = RRType.A
    ) -> ResolutionResult:
        result = self.resolver.resolve(qname, now, rtype)
        if not result.from_cache:
            self.sensor.observe_result(result, now)
        return result
