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

import numpy as np

from repro.honeypot.batch import PacketBatch, RequestBatch
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
        return self._learn_scanners(packet.src_ip for packet in baseline)

    def learn_control_group(self, control: Iterable[HttpRequest]) -> int:
        """Stage 2: establishment-noise parameters from control domains."""
        control = list(control)
        return self._learn_control(
            (request.src_ip for request in control),
            (request.uri for request in control),
        )

    def _learn_scanners(self, ips: Iterable[str]) -> int:
        before = len(self._scanner_ips)
        self._scanner_ips.update(ips)
        return len(self._scanner_ips) - before

    def _learn_control(self, ips: Iterable[str], uris: Iterable[str]) -> int:
        before = len(self._control_ips)
        self._control_ips.update(ips)
        self._control_uris.update(uris)
        return len(self._control_ips) - before

    @classmethod
    def calibrated(
        cls,
        no_hosting: TrafficRecorder,
        control_group: TrafficRecorder,
    ) -> "TwoStageFilter":
        """Build a filter from the two calibration recorders."""
        instance = cls()
        instance._learn_scanners(no_hosting.packet_batch().src_ip.distinct())
        control = control_group.request_batch()
        instance._learn_control(control.src_ip.distinct(), control.uris().distinct())
        return instance

    # -- application ---------------------------------------------------------

    def is_scanner_noise(self, request: HttpRequest) -> bool:
        return request.src_ip in self._scanner_ips

    def is_establishment_noise(self, request: HttpRequest) -> bool:
        """Matches when the source IP *and* the URI were both seen on
        the control group — either alone also appears in genuine
        traffic (Let's Encrypt probes /.well-known on everyone)."""
        return request.src_ip in self._control_ips or self._is_control_uri(
            request.uri
        )

    def _is_control_uri(self, uri: str) -> bool:
        return uri in self._control_uris and uri.startswith("/.well-known")

    def _is_noise_source(self, src_ip: str) -> bool:
        return src_ip in self._scanner_ips or src_ip in self._control_ips

    def filter_packets(
        self, packets: Iterable[PacketRecord]
    ) -> List[PacketRecord]:
        """Drop transport-level packets from learned noise sources.

        Used for the port-distribution view (Figure 10a): platform
        monitoring (port 52646) and scanner probes disappear because
        their source addresses were learned from the calibration
        deployments.
        """
        return [p for p in packets if not self._is_noise_source(p.src_ip)]

    def filter_packet_batch(self, packets: PacketBatch) -> PacketBatch:
        """:meth:`filter_packets` over columns, one test per distinct IP."""
        noise = packets.src_ip.lookup(self._is_noise_source, bool)
        return packets.take(~noise)

    def apply(
        self, requests: Iterable[HttpRequest]
    ) -> Tuple[List[HttpRequest], FilterStats]:
        """Split traffic into (kept, stats) per Figure 9."""
        requests = list(requests)
        keep, stats = self._keep_mask(RequestBatch.from_requests(requests))
        return [r for r, k in zip(requests, keep.tolist()) if k], stats

    def apply_batch(self, batch: RequestBatch) -> Tuple[RequestBatch, FilterStats]:
        """:meth:`apply` over columns: the kept rows, in order."""
        keep, stats = self._keep_mask(batch)
        return batch.take(keep), stats

    def _keep_mask(self, batch: RequestBatch) -> Tuple[np.ndarray, FilterStats]:
        """Stage 1 and stage 2 decided once per distinct IP and URI."""
        scanner = batch.src_ip.lookup(self._scanner_ips.__contains__, bool)
        establishment = batch.src_ip.lookup(
            self._control_ips.__contains__, bool
        ) | batch.uris().lookup(self._is_control_uri, bool)
        establishment &= ~scanner
        keep = ~(scanner | establishment)
        stats = FilterStats(
            input_requests=len(batch),
            dropped_by_ip_baseline=int(scanner.sum()),
            dropped_by_control_group=int(establishment.sum()),
            kept=int(keep.sum()),
        )
        return keep, stats

    @property
    def scanner_ip_count(self) -> int:
        return len(self._scanner_ips)

    @property
    def control_signature_count(self) -> int:
        return len(self._control_ips) + len(self._control_uris)
