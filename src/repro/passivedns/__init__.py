"""Passive DNS collection pipeline (Farsight SIE stand-in).

Reproduces the data path of §3.1: *sensors* at vantage points observe
wire-format DNS responses, filter for NXDOMAIN (channel 221 in SIE
terms) while excluding reverse lookups, and publish observations to a
*channel*; the *database* subscribes and maintains the columnar store
the scale analyses (§4) aggregate over; *sampling* implements the
paper's 1/1,000 uniform domain sample (§4.2); *spill* is the
crash-safe on-disk segment store behind ``spill_dir=`` mode (see
``docs/RESILIENCE.md``).
"""

from repro.passivedns.channel import SieChannel
from repro.passivedns.database import DomainProfile, PassiveDnsDatabase
from repro.passivedns.record import DnsObservation
from repro.passivedns.sampling import sample_domains
from repro.passivedns.sensor import Sensor, SensorTappedResolver
from repro.passivedns.spill import (
    QuarantineEntry,
    RecoveryReport,
    SegmentInfo,
    SidecarInfo,
    SpillStore,
)
from repro.passivedns.vantage import MultiVantageCollector, replay_clients

__all__ = [  # repro: noqa[REP104] aggregation result type; exported for annotations
    "DnsObservation",
    "DomainProfile",
    "MultiVantageCollector",
    "PassiveDnsDatabase",
    "QuarantineEntry",
    "RecoveryReport",
    "SegmentInfo",
    "Sensor",
    "SensorTappedResolver",
    "SidecarInfo",
    "SieChannel",
    "SpillStore",
    "replay_clients",
    "sample_domains",
]
