"""Reverse IP lookup table (PTR oracle).

§6.2 step ④: the source IP of a request is reverse-resolved; a PTR
hostname under a known service domain (googlebot.com, search.msn.com,
google-proxy hosts...) attests the request's origin.  The workload
registers PTR records for the infrastructure it simulates; unknown IPs
resolve to nothing, exactly like the long tail of cloud hosts.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

#: PTR suffix → service attribution.
KNOWN_SERVICE_SUFFIXES: Tuple[Tuple[str, str], ...] = (
    ("googlebot.com", "Google crawler"),
    ("google.com", "Google"),
    ("googleusercontent.com", "google-proxy"),
    ("search.msn.com", "Bing crawler"),
    ("crawl.yahoo.net", "Yahoo crawler"),
    ("yandex.com", "Yandex crawler"),
    ("crawl.baidu.com", "Baidu crawler"),
    ("mail.ru", "Mail.Ru crawler"),
    ("amazonaws.com", "Amazon AWS"),
    ("ec2.internal", "Amazon AWS"),
    ("hetzner.de", "Hetzner"),
    ("digitalocean.com", "DigitalOcean"),
    ("ovh.net", "OVH"),
    ("comcast.net", "Residential ISP"),
    ("t-ipconnect.de", "Residential ISP"),
)

#: Services that attest a *benign crawler* origin.
CRAWLER_SERVICES = frozenset(
    {"Google crawler", "Bing crawler", "Yahoo crawler", "Yandex crawler",
     "Baidu crawler", "Mail.Ru crawler"}
)


class ReverseIpTable:
    """An IP → PTR hostname table with service attribution."""

    def __init__(self) -> None:
        self._ptr: Dict[str, str] = {}

    def register(self, ip: str, hostname: str) -> None:
        self._ptr[ip] = hostname.lower().rstrip(".")

    def lookup(self, ip: str) -> Optional[str]:
        """The PTR hostname, or None (no reverse record)."""
        return self._ptr.get(ip)

    def service_of(self, ip: str) -> Optional[str]:
        """Service attribution via PTR suffix matching."""
        hostname = self.lookup(ip)
        if hostname is None:
            return None
        for suffix, service in KNOWN_SERVICE_SUFFIXES:
            if hostname == suffix or hostname.endswith("." + suffix):
                return service
        return None

    def is_known_crawler(self, ip: str) -> bool:
        """True when the PTR attests a major search/mail crawler."""
        return self.service_of(ip) in CRAWLER_SERVICES

    def hostname_histogram(self, ips) -> Dict[str, int]:
        """Count IPs per PTR *suffix group* (Figure 15's axis).

        IPs with no PTR land in the "unresolved" bucket.
        """
        histogram: Dict[str, int] = {}
        for ip in ips:
            key = self.hostname_group(ip)
            histogram[key] = histogram.get(key, 0) + 1
        return histogram

    def hostname_group(self, ip: str) -> str:
        """The Figure 15 bucket of one IP: its service, else
        "other-hosting" (a PTR no suffix matches) or "unresolved"."""
        service = self.service_of(ip)
        if service is not None:
            return service
        return "unresolved" if self.lookup(ip) is None else "other-hosting"

    def __len__(self) -> int:
        return len(self._ptr)
