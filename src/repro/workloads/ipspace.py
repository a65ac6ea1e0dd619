"""Deterministic IP address pools for workload actors.

Each actor population draws source addresses from a named pool with a
fixed prefix, so that (a) runs are reproducible, (b) populations don't
collide, and (c) the reverse-IP oracle can attribute infrastructure by
registering PTR records as addresses are handed out.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.honeypot.reverse_ip import ReverseIpTable
from repro.errors import ConfigError, UnknownKeyError


class IpPool:
    """Hands out addresses ``prefix.x.y`` inside a /16-like space."""

    def __init__(
        self,
        prefix: str,
        rng: np.random.Generator,
        reverse_ip: Optional[ReverseIpTable] = None,
        ptr_suffix: Optional[str] = None,
        size: Optional[int] = None,
    ) -> None:
        parts = prefix.split(".")
        if len(parts) != 2 or not all(p.isdigit() and 0 <= int(p) <= 255 for p in parts):
            raise ConfigError(f"prefix must be two octets like '66.249': {prefix!r}")
        if size is not None and size <= 0:
            raise ConfigError("size must be positive when given")
        self.prefix = prefix
        self._rng = rng
        self._reverse_ip = reverse_ip
        self._ptr_suffix = ptr_suffix
        # A sized pool draws from a fixed, deterministic address set —
        # used for populations whose addresses must *recur* across
        # deployments (scanners, certificate validators) so the
        # two-stage filter can learn them from the calibration runs.
        self._fixed = (
            [f"{prefix}.{i // 250}.{i % 250 + 1}" for i in range(size)]
            if size is not None
            else None
        )

    def address(self) -> str:
        """A random address in the pool (PTR registered when configured)."""
        if self._fixed is not None:
            ip = self._fixed[int(self._rng.integers(0, len(self._fixed)))]
            third, fourth = ip.split(".")[2:]
        else:
            third = int(self._rng.integers(0, 256))
            fourth = int(self._rng.integers(1, 255))
            ip = f"{self.prefix}.{third}.{fourth}"
        if self._reverse_ip is not None and self._ptr_suffix is not None:
            hostname = f"host-{third}-{fourth}.{self._ptr_suffix}"
            self._reverse_ip.register(ip, hostname)
        return ip

    def addresses(self, count: int) -> list:
        return [self.address() for _ in range(count)]


#: Pool prefixes per actor population.  Documentation prefixes
#: (TEST-NETs) are used for noise populations so nothing collides with
#: the attributed infrastructure pools.
POOL_PREFIXES = {
    "google-crawler": "66.249",
    "bing-crawler": "40.77",
    "yandex-crawler": "77.88",
    "mailru-crawler": "94.100",
    "baidu-crawler": "180.76",
    "gmail-proxy": "74.125",
    "yahoo-proxy": "98.137",
    "outlook-proxy": "52.101",
    "google-proxy": "64.233",
    "aws-cloud": "3.88",
    "aws-monitor": "52.94",
    "hetzner-cloud": "88.198",
    "digitalocean-cloud": "167.99",
    "ovh-cloud": "51.68",
    "residential": "109.252",
    "scripts": "185.220",
    "scanners": "198.51",
    "letsencrypt": "172.65",
    "users": "109.168",
    "others": "203.0",
}

#: PTR suffixes registered for attributed pools (see
#: repro.honeypot.reverse_ip.KNOWN_SERVICE_SUFFIXES).
POOL_PTR_SUFFIXES = {
    "google-crawler": "googlebot.com",
    "bing-crawler": "search.msn.com",
    "yandex-crawler": "yandex.com",
    "mailru-crawler": "mail.ru",
    "baidu-crawler": "crawl.baidu.com",
    "gmail-proxy": "googleusercontent.com",
    "yahoo-proxy": "crawl.yahoo.net",
    "outlook-proxy": "search.msn.com",
    "google-proxy": "googleusercontent.com",
    "aws-cloud": "amazonaws.com",
    "aws-monitor": "ec2.internal",
    "hetzner-cloud": "hetzner.de",
    "digitalocean-cloud": "digitalocean.com",
    "ovh-cloud": "ovh.net",
    "residential": "comcast.net",
}


#: Fixed sizes for populations that must recur across deployments.
POOL_SIZES = {
    "scanners": 150,
    "letsencrypt": 12,
    "aws-monitor": 8,
}


def make_pool(
    name: str,
    rng: np.random.Generator,
    reverse_ip: Optional[ReverseIpTable] = None,
) -> IpPool:
    """The named pool, with PTR registration when the pool is attributed."""
    try:
        prefix = POOL_PREFIXES[name]
    except KeyError:
        raise UnknownKeyError(f"unknown IP pool {name!r}; known: {sorted(POOL_PREFIXES)}")
    return IpPool(
        prefix,
        rng,
        reverse_ip,
        POOL_PTR_SUFFIXES.get(name),
        size=POOL_SIZES.get(name),
    )
