"""WHOIS record model.

A :class:`WhoisRecord` is one snapshot of a domain's registration data,
in the shape historic WHOIS providers return: registrar, creation /
expiration timestamps, status, and nameservers.  Registrant identity is
an opaque handle — the study never needs PII, and the paper's ethics
appendix stresses anonymization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.dns.name import DomainName
from repro.errors import ConfigError


@dataclass(frozen=True)
class WhoisRecord:
    """One historic WHOIS snapshot for a domain.

    ``captured_at`` orders snapshots within a domain's history;
    ``expires_at`` may lie in the snapshot's future (a live
    registration) or past (captured during the expiry pipeline).
    """

    domain: DomainName
    registrar: str
    registrant_handle: str
    status: str
    created_at: int
    expires_at: int
    captured_at: int
    updated_at: Optional[int] = None
    nameservers: Tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.expires_at < self.created_at:
            raise ConfigError(
                f"{self.domain}: expires_at precedes created_at "
                f"({self.expires_at} < {self.created_at})"
            )
        if self.captured_at < self.created_at:
            raise ConfigError(
                f"{self.domain}: snapshot captured before creation"
            )

    def __str__(self) -> str:
        return (
            f"{self.domain} [{self.status}] registrar={self.registrar} "
            f"created={self.created_at} expires={self.expires_at}"
        )
