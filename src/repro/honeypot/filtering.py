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
   (certificate validators, new-domain crawlers); the source IPs and
   ``/.well-known`` URIs observed there are excluded too.

The filter learns both from the calibration recorders
(:meth:`TwoStageFilter.calibrated`) and applies them to columns:
:meth:`TwoStageFilter.apply_batch` for requests,
:meth:`TwoStageFilter.filter_packet_batch` for packets.  Each test is
made once per distinct source IP or URI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Set, Tuple

import numpy as np

from repro.honeypot.batch import PacketBatch, RequestBatch
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


class TwoStageFilter:
    """Learns noise signatures from the two calibration deployments."""

    def __init__(self) -> None:
        self._scanner_ips: Set[str] = set()
        self._control_ips: Set[str] = set()
        self._control_uris: Set[str] = set()

    @classmethod
    def calibrated(
        cls,
        no_hosting: TrafficRecorder,
        control_group: TrafficRecorder,
    ) -> "TwoStageFilter":
        """Build a filter from the two calibration recorders.

        Stage 1: every source IP in no-hosting traffic is a scanner.
        Stage 2: the control group's request source IPs and URIs are
        establishment noise.
        """
        instance = cls()
        instance._scanner_ips.update(no_hosting.packet_batch().src_ip.distinct())
        control = control_group.request_batch()
        instance._control_ips.update(control.src_ip.distinct())
        instance._control_uris.update(control.uris().distinct())
        return instance

    # -- application ---------------------------------------------------------

    def _is_control_uri(self, uri: str) -> bool:
        return uri in self._control_uris and uri.startswith("/.well-known")

    def _is_noise_source(self, src_ip: str) -> bool:
        return src_ip in self._scanner_ips or src_ip in self._control_ips

    def filter_packet_batch(self, packets: PacketBatch) -> PacketBatch:
        """Drop transport-level packets from learned noise sources.

        Used for the port-distribution view (Figure 10a): platform
        monitoring (port 52646) and scanner probes disappear because
        their source addresses were learned from the calibration
        deployments.
        """
        noise = packets.src_ip.lookup(self._is_noise_source, bool)
        return packets.take(~noise)

    def apply_batch(self, batch: RequestBatch) -> Tuple[RequestBatch, FilterStats]:
        """Split traffic into the kept rows (in order) and stats, per Figure 9."""
        keep, stats = self._keep_mask(batch)
        return batch.take(keep), stats

    def _keep_mask(self, batch: RequestBatch) -> Tuple[np.ndarray, FilterStats]:
        """Stage 1 and stage 2 decided once per distinct IP and URI.

        A row is scanner noise when its source IP was seen on the
        no-hosting baseline.  Otherwise it is establishment noise when
        its source IP was seen on the control group, *or* its URI was
        seen there and starts with ``/.well-known`` (certificate
        validators probe it on every domain, hosted or not).
        Either test alone drops the row; a shared benign URI such as
        ``/`` from a new address is kept.
        """
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
