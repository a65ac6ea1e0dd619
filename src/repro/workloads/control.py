"""Calibration deployments: no-hosting baseline and control group.

§6.1's two-step filtering methodology needs two dedicated datasets:

- **no-hosting baseline** — two months of traffic to cloud instances
  hosting *no* domains: pure cloud noise, i.e. random IP scanning plus
  the platform's own monitoring (port 52646, "primarily used by Amazon
  AWS EC2 to monitor server status", which dominates Figure 10b);
- **control group** — two months of traffic to ten freshly registered,
  never-before-seen domains serving the same landing page: pure
  domain-establishment noise (certificate validation, new-domain
  crawlers).

Both generators draw scanners/validators from the *sized* IP pools of
:mod:`repro.workloads.ipspace` so the very same addresses reappear in
the main collection and the learned signatures actually fire.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.honeypot.batch import PacketBatch, RequestBatch
from repro.honeypot.recorder import TrafficRecorder
from repro.workloads import useragents as ua
from repro.workloads.ipspace import make_pool

CALIBRATION_SECONDS = 60 * 86_400
AWS_MONITOR_PORT = 52646

#: Ports random scanners probe, heavy-tailed toward the usual suspects.
SCANNED_PORTS = (22, 23, 80, 443, 445, 3389, 8080, 8443, 25, 21, 5900, 6379)

#: The ten control-group domains (never registered before; checked
#: against both WHOIS databases in the paper).
CONTROL_DOMAINS = tuple(f"control-study-{i:02d}.net" for i in range(10))


def generate_no_hosting_baseline(
    rng: np.random.Generator,
    packets: int = 3_000,
    monitor_share: float = 0.55,
) -> TrafficRecorder:
    """Two months of traffic to instances with no hosted domains.

    ``monitor_share`` is the fraction on the AWS monitoring port —
    dominant, per Figure 10b.
    """
    recorder = TrafficRecorder("no-hosting")
    scanners = make_pool("scanners", rng)
    aws = make_pool("aws-monitor", rng)
    times, ips, ports, payloads = [], [], [], []
    for _ in range(packets):
        times.append(int(rng.integers(0, CALIBRATION_SECONDS)))
        if rng.random() < monitor_share:
            ips.append(aws.address())
            ports.append(AWS_MONITOR_PORT)
            payloads.append(64)
        else:
            ports.append(SCANNED_PORTS[int(rng.integers(0, len(SCANNED_PORTS)))])
            ips.append(scanners.address())
            payloads.append(int(rng.integers(40, 400)))
    recorder.record_packet_batch(
        PacketBatch.of(
            times,
            src_ip=ips,
            port=ports,
            udp=[port == 5900 for port in ports],
            payload_size=payloads,
        )
    )
    return recorder


def generate_control_traffic(
    rng: np.random.Generator,
    requests: int = 1_500,
    domains: Optional[List[str]] = None,
    include_platform_noise: bool = True,
) -> TrafficRecorder:
    """Two months of traffic to the ten control-group domains."""
    recorder = TrafficRecorder("control-group")
    hosts = list(domains) if domains is not None else list(CONTROL_DOMAINS)
    letsencrypt = make_pool("letsencrypt", rng)
    scanners = make_pool("scanners", rng)
    aws = make_pool("aws-monitor", rng)
    times, targets, ips, paths, agents, ports = [], [], [], [], [], []
    for _ in range(requests):
        times.append(int(rng.integers(0, CALIBRATION_SECONDS)))
        targets.append(hosts[int(rng.integers(0, len(hosts)))])
        roll = rng.random()
        if roll < 0.45:
            # Certificate validation probing /.well-known.
            ips.append(letsencrypt.address())
            paths.append("/.well-known/acme-challenge/token")
            agents.append(ua.LETSENCRYPT_UA)
            ports.append(80)
        elif roll < 0.8:
            # New-domain crawlers notice the fresh registration.
            ips.append(scanners.address())
            paths.append("/" if rng.random() < 0.7 else "/robots.txt")
            agents.append("Mozilla/5.0 (compatible; NewDomainSpider/1.0 crawler)")
            ports.append(80)
        else:
            ips.append(scanners.address())
            paths.append("/")
            agents.append("")
            ports.append(443)
    recorder.record_batch(
        RequestBatch.of(
            times, src_ip=ips, host=targets, path=paths, user_agent=agents,
            port=ports,
        )
    )
    if include_platform_noise:
        # The hosting platform's monitor runs here too (Figure 10b).
        times, ips = [], []
        for _ in range(requests):
            times.append(int(rng.integers(0, CALIBRATION_SECONDS)))
            ips.append(aws.address())
        recorder.record_packet_batch(
            PacketBatch.of(times, src_ip=ips, port=AWS_MONITOR_PORT, payload_size=64)
        )
    return recorder


def generate_platform_packets(
    rng: np.random.Generator,
    count: int,
    duration: int = CALIBRATION_SECONDS * 3,
) -> PacketBatch:
    """Platform-monitor and scanner packets during the main collection.

    The same infrastructure that pollutes the calibration deployments
    keeps hitting the honeypot instances; these packets are what the
    learned filter removes, which is why port 52646 dominates Figure
    10b yet is absent from Figure 10a.
    """
    scanners = make_pool("scanners", rng)
    aws = make_pool("aws-monitor", rng)
    times, ips, ports, payloads = [], [], [], []
    for _ in range(count):
        times.append(int(rng.integers(0, duration)))
        if rng.random() < 0.7:
            ips.append(aws.address())
            ports.append(AWS_MONITOR_PORT)
            payloads.append(64)
        else:
            ports.append(SCANNED_PORTS[int(rng.integers(0, len(SCANNED_PORTS)))])
            ips.append(scanners.address())
            payloads.append(int(rng.integers(40, 400)))
    return PacketBatch.of(times, src_ip=ips, port=ports, payload_size=payloads)
