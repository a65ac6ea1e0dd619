"""NXDomain hijacking (§7, after Weaver et al. and Chung et al.).

Some ISPs monetize NXDomain responses: the resolver intercepts the
Name Error and returns the address of an advertising server instead.
Chung et al. measured ~4.8% of NXDomain responses hijacked in the
wild.  The paper discusses this as a measurement-validity threat — a
hijacked response never reaches the passive DNS channel as an
NXDomain — and argues the effect is small at that rate.

:class:`HijackingResolver` wraps any recursive resolver with the
rewriting behaviour so the ablation bench can quantify exactly how
much of the measured NXDomain volume a given hijack rate hides.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.dns.message import RCode, ResourceRecord, RRType
from repro.dns.name import DomainName
from repro.dns.resolver import RecursiveResolver, ResolutionResult
from repro.errors import ConfigError

#: The in-the-wild hijack rate Chung et al. report.
WILD_HIJACK_RATE = 0.048


@dataclass
class HijackStats:
    """What the hijacking layer did."""

    resolutions: int = 0
    nxdomains_seen: int = 0
    nxdomains_hijacked: int = 0


class HijackingResolver:
    """A resolver whose NXDomain responses may be rewritten to ads.

    ``hijack_rate`` is the per-response probability of rewriting;
    hijacking is applied to fresh NXDOMAIN outcomes *and* negative
    cache hits (the ISP rewrites whatever leaves the resolver).
    """

    def __init__(
        self,
        inner: RecursiveResolver,
        rng: np.random.Generator,
        hijack_rate: float = WILD_HIJACK_RATE,
        ad_server_address: str = "198.18.255.1",
        ad_ttl: int = 60,
    ) -> None:
        if not 0.0 <= hijack_rate <= 1.0:
            raise ConfigError("hijack_rate must lie in [0, 1]")
        self.inner = inner
        self.rng = rng
        self.hijack_rate = hijack_rate
        self.ad_server_address = ad_server_address
        self.ad_ttl = ad_ttl
        self.stats = HijackStats()

    def resolve(
        self, qname: DomainName, now: int, rtype: RRType = RRType.A
    ) -> ResolutionResult:
        result = self.inner.resolve(qname, now, rtype)
        self.stats.resolutions += 1
        if not result.is_nxdomain:
            return result
        self.stats.nxdomains_seen += 1
        if self.rng.random() >= self.hijack_rate:
            return result
        self.stats.nxdomains_hijacked += 1
        return self._rewrite(result)

    def _rewrite(self, result: ResolutionResult) -> ResolutionResult:
        """Fabricate a NOERROR answer pointing at the ad server."""
        forged = ResourceRecord(
            result.qname, RRType.A, self.ad_ttl, self.ad_server_address
        )
        return ResolutionResult(
            qname=result.qname,
            rtype=result.rtype,
            rcode=RCode.NOERROR,
            answers=[forged],
            negative_ttl=None,
            from_cache=result.from_cache,
            trace=result.trace,
        )
