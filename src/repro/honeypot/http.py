"""Request and packet models: the honeypot's two object edges.

:class:`HttpRequest` is one HTTP request as the server receives it,
carrying exactly the header fields of Figure 11: Referer, User-Agent,
the requested URL, and the source IP.  :class:`PacketRecord` is one
transport-level packet (Figure 10's raw material).  Between the edges
everything runs on the columns of :mod:`repro.honeypot.batch`: a
request enters through ``InteractiveHoneypot.interact`` →
``NxdHoneypot.accept_request`` → ``TrafficRecorder.record_request``
or ``RequestBatch.from_requests``, and objects leave only through
``RequestBatch.to_requests`` and ``PacketBatch.to_packets``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Tuple
from repro.errors import ConfigError

HTTP_PORT = 80
HTTPS_PORT = 443


class Transport(enum.Enum):
    TCP = "tcp"
    UDP = "udp"


@dataclass(frozen=True)
class PacketRecord:
    """One transport-level packet observation."""

    timestamp: int
    src_ip: str
    dst_port: int
    transport: Transport = Transport.TCP
    payload_size: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.dst_port <= 65535:
            raise ConfigError(f"invalid port {self.dst_port}")
        if self.payload_size < 0:
            raise ConfigError("payload_size must be non-negative")


@dataclass(frozen=True)
class HttpRequest:
    """One HTTP/HTTPS request received by a hosted domain.

    ``host`` is the Host header (which domain the client *meant*);
    ``path`` is the URI path; ``query`` the raw query string without
    the leading ``?``.
    """

    timestamp: int
    src_ip: str
    host: str
    path: str = "/"
    query: str = ""
    port: int = HTTP_PORT
    user_agent: str = ""
    referer: str = ""

    def __post_init__(self) -> None:
        if not self.path.startswith("/"):
            raise ConfigError(f"path must start with '/': {self.path!r}")
        if self.port not in (HTTP_PORT, HTTPS_PORT):
            raise ConfigError("HTTP requests arrive on port 80 or 443 only")

    @property
    def uri(self) -> str:
        """Path plus query string, as logged."""
        return f"{self.path}?{self.query}" if self.query else self.path


def path_extension(path: str) -> str:
    """Lowercased extension of a path's final segment, without the dot, or ''."""
    name = path.rsplit("/", 1)[-1]
    if "." not in name:
        return ""
    return name.rsplit(".", 1)[-1].lower()


def parse_query(query: str) -> Dict[str, str]:
    """Parameters of a raw query string (last occurrence wins)."""
    return dict(pair.partition("=")[::2] for pair in query.split("&") if pair)


#: Extensions the categorizer treats as HTML page requests (search
#: engine crawling) versus file grabbing.
PAGE_EXTENSIONS: Tuple[str, ...] = ("", "html", "htm", "php", "asp", "aspx", "jsp")
