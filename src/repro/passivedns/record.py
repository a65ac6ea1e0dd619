"""Observation schema of the NXDomain channel.

One :class:`DnsObservation` is what a sensor emits after watching a
response on the wire: the queried name, when, from which vantage
point, and — because high-volume pipelines aggregate at the edge — an
observation ``count`` (sensors batch identical (name, rcode) tuples
within a reporting interval, which is also how SIE keeps volume sane).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dns.message import RCode, RRType
from repro.dns.name import DomainName
from repro.errors import ConfigError


@dataclass(frozen=True)
class DnsObservation:
    """One (possibly pre-aggregated) response observation."""

    qname: DomainName
    rcode: RCode
    timestamp: int
    sensor_id: str = "sensor-0"
    rtype: RRType = RRType.A
    count: int = 1

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ConfigError("observation count must be at least 1")
        if self.timestamp < 0:
            raise ConfigError("timestamp must be non-negative")

    @property
    def is_nxdomain(self) -> bool:
        return self.rcode == RCode.NXDOMAIN

    @property
    def registered_domain(self) -> DomainName:
        """The registrable (SLD) projection the study operates on."""
        return self.qname.registered_domain()
