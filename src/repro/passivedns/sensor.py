"""Collection sensors.

A :class:`Sensor` is a wire tap: it is handed raw DNS response bytes
(exactly what a span port sees), decodes them with the library's RFC
1035 codec, and publishes qualifying observations to its channel.
:class:`SensorTappedResolver` is the convenience deployment used by
the workload layer — a recursive resolver whose *upstream* traffic is
mirrored to a sensor, matching Farsight's dominant vantage point
(between recursive resolvers and authoritative servers, above caches).

A sensor may carry a :class:`~repro.faults.plan.FaultSchedule`, in
which case the schedule's corruption injector mangles wire bytes
before decoding and its drop injector models dark windows and packet
loss — with every outcome tallied in :class:`SensorStats` rather than
lost silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

from repro.dns.message import DnsMessage, RRType
from repro.dns.name import DomainName
from repro.dns.resolver import RecursiveResolver, ResolutionResult
from repro.dns.wire import decode_message
from repro.errors import WireFormatError
from repro.passivedns.channel import SieChannel
from repro.passivedns.record import DnsObservation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.plan import FaultSchedule


@dataclass
class SensorStats:
    """Structured drop/corruption accounting for one sensor."""

    observed: int = 0
    decode_errors: int = 0
    corrupted: int = 0
    dropped: int = 0
    published: int = 0
    filtered: int = 0

    @property
    def loss(self) -> int:
        """Observations the sensor itself lost (decode + drops)."""
        return self.decode_errors + self.dropped


class Sensor:
    """Decodes wire responses and publishes observations."""

    def __init__(
        self,
        sensor_id: str,
        channel: SieChannel,
        faults: Optional["FaultSchedule"] = None,
    ) -> None:
        self.sensor_id = sensor_id
        self.channel = channel
        self.faults = faults
        self.stats = SensorStats()

    # -- capture -------------------------------------------------------------

    def observe_wire(self, response_bytes: bytes, now: int) -> Optional[DnsObservation]:
        """Tap one wire-format response; malformed packets are counted
        and dropped, never raised (a sensor must not crash on noise)."""
        if self.faults is not None:
            mangled = self.faults.corrupt.corrupt(response_bytes)
            if mangled is not response_bytes:
                self.stats.corrupted += 1
            response_bytes = mangled
        try:
            message = decode_message(response_bytes)
        except WireFormatError:
            self.stats.decode_errors += 1
            return None
        return self.observe_message(message, now)

    def observe_message(
        self, message: DnsMessage, now: int, count: int = 1
    ) -> Optional[DnsObservation]:
        """Tap an already-decoded response message."""
        if not message.is_response or not message.questions:
            return None
        self.stats.observed += 1
        if self._drops(now):
            return None
        observation = DnsObservation(
            qname=message.question.name,
            rcode=message.rcode,
            timestamp=now,
            sensor_id=self.sensor_id,
            rtype=message.question.rtype,
            count=count,
        )
        return self._publish(observation)

    def observe_result(
        self, result: ResolutionResult, now: int, count: int = 1
    ) -> Optional[DnsObservation]:
        """Tap a resolver-level result (the aggregated fast path)."""
        self.stats.observed += 1
        if self._drops(now):
            return None
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

    def _drops(self, now: int) -> bool:
        if self.faults is not None and self.faults.drop.should_drop(now):
            self.stats.dropped += 1
            return True
        return False

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
