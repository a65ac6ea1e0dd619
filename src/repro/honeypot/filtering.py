"""The two-stage traffic noise filter (Figure 9).

Naive filtering (keep only requests with the right hostname) fails:
Let's Encrypt and establishment-time crawlers use correct hostnames.
The paper instead measures the noise *empirically* in two dedicated
deployments and subtracts it:

1. **No-hosting baseline** — cloud instances run with no domains for a
   period; every source IP seen there is a cloud scanner, excluded
   from the experiment traffic.
2. **Control group** — freshly registered, never-before-seen domains
   with the same landing page collect *only* establishment noise
   (certificate validators, new-domain crawlers); the (source IP,
   URI, hostname-pattern) parameters observed there are excluded too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Set, Tuple

from repro.honeypot.http import HttpRequest, PacketRecord
from repro.honeypot.recorder import TrafficRecorder


@dataclass
class FilterStats:
    """How much each stage removed."""

    input_requests: int = 0
    dropped_by_ip_baseline: int = 0
    dropped_by_control_group: int = 0
    kept: int = 0

    @property
    def dropped(self) -> int:
        return self.dropped_by_ip_baseline + self.dropped_by_control_group

    def drop_fraction(self) -> float:
        return self.dropped / self.input_requests if self.input_requests else 0.0


class TwoStageFilter:
    """Learns noise signatures from the two calibration deployments."""

    def __init__(self) -> None:
        self._scanner_ips: Set[str] = set()
        self._control_ips: Set[str] = set()
        self._control_uris: Set[str] = set()

    # -- calibration ------------------------------------------------------

    def learn_no_hosting_baseline(
        self, baseline: Iterable[PacketRecord]
    ) -> int:
        """Stage 1: every source IP in no-hosting traffic is a scanner."""
        before = len(self._scanner_ips)
        for packet in baseline:
            self._scanner_ips.add(packet.src_ip)
        return len(self._scanner_ips) - before

    def learn_control_group(self, control: Iterable[HttpRequest]) -> int:
        """Stage 2: establishment-noise parameters from control domains."""
        added = 0
        for request in control:
            if request.src_ip not in self._control_ips:
                self._control_ips.add(request.src_ip)
                added += 1
            self._control_uris.add(request.uri)
        return added

    @classmethod
    def calibrated(
        cls,
        no_hosting: TrafficRecorder,
        control_group: TrafficRecorder,
    ) -> "TwoStageFilter":
        """Build a filter from the two calibration recorders."""
        instance = cls()
        instance.learn_no_hosting_baseline(no_hosting.packets())
        instance.learn_control_group(control_group.requests())
        return instance

    # -- application ---------------------------------------------------------

    def is_scanner_noise(self, request: HttpRequest) -> bool:
        return request.src_ip in self._scanner_ips

    def is_establishment_noise(self, request: HttpRequest) -> bool:
        """Matches when the source IP *and* the URI were both seen on
        the control group — either alone also appears in genuine
        traffic (Let's Encrypt probes /.well-known on everyone)."""
        return (
            request.src_ip in self._control_ips
            or (
                request.uri in self._control_uris
                and request.uri.startswith("/.well-known")
            )
        )

    def filter_packets(
        self, packets: Iterable[PacketRecord]
    ) -> List[PacketRecord]:
        """Drop transport-level packets from learned noise sources.

        Used for the port-distribution view (Figure 10a): platform
        monitoring (port 52646) and scanner probes disappear because
        their source addresses were learned from the calibration
        deployments.
        """
        return [
            packet
            for packet in packets
            if packet.src_ip not in self._scanner_ips
            and packet.src_ip not in self._control_ips
        ]

    def apply(
        self, requests: Iterable[HttpRequest]
    ) -> Tuple[List[HttpRequest], FilterStats]:
        """Split traffic into (kept, stats) per Figure 9."""
        stats = FilterStats()
        kept: List[HttpRequest] = []
        for request in requests:
            stats.input_requests += 1
            if self.is_scanner_noise(request):
                stats.dropped_by_ip_baseline += 1
            elif self.is_establishment_noise(request):
                stats.dropped_by_control_group += 1
            else:
                kept.append(request)
        stats.kept = len(kept)
        return kept, stats

    @property
    def scanner_ip_count(self) -> int:
        return len(self._scanner_ips)

    @property
    def control_signature_count(self) -> int:
        return len(self._control_ips) + len(self._control_uris)
