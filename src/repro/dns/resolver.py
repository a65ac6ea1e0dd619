"""Iterative and recursive (caching) resolution.

Mirrors Figure 1 of the paper: a user asks the local (recursive)
resolver; on a cache miss the resolver walks root → TLD → authoritative
servers, following referrals, and finally caches the outcome —
including negative outcomes per RFC 2308, which is what makes repeat
queries to an NXDomain invisible above the cache for the negative TTL.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.dns.cache import CacheOutcome, ResolverCache
from repro.dns.message import DnsMessage, RCode, ResourceRecord, RRType
from repro.dns.name import DomainName
from repro.dns.zone import AuthoritativeServer
from repro.errors import ResolutionError

MAX_REFERRALS = 16
MAX_CNAME_CHAIN = 8


class StepKind(enum.Enum):
    """What happened at one hop of an iterative walk."""

    CACHE_HIT = "cache-hit"
    CACHE_NEGATIVE = "cache-negative"
    REFERRAL = "referral"
    ANSWER = "answer"
    CNAME = "cname"
    NXDOMAIN = "nxdomain"
    NODATA = "nodata"
    ERROR = "error"


@dataclass(frozen=True)
class TraceStep:
    """One hop: which server was asked and what it said."""

    server: str
    qname: DomainName
    rtype: RRType
    kind: StepKind

    def __str__(self) -> str:
        return f"{self.server}: {self.qname}/{self.rtype.name} -> {self.kind.value}"


@dataclass
class ResolutionTrace:
    """The ordered hops of one resolution."""

    steps: List[TraceStep] = field(default_factory=list)

    def add(self, server: str, qname: DomainName, rtype: RRType, kind: StepKind) -> None:
        self.steps.append(TraceStep(server, qname, rtype, kind))

    def __len__(self) -> int:
        return len(self.steps)


@dataclass
class ResolutionResult:
    """The outcome of resolving one (name, type)."""

    qname: DomainName
    rtype: RRType
    rcode: RCode
    answers: List[ResourceRecord] = field(default_factory=list)
    negative_ttl: Optional[int] = None
    from_cache: bool = False
    trace: ResolutionTrace = field(default_factory=ResolutionTrace)

    @property
    def is_nxdomain(self) -> bool:
        return self.rcode == RCode.NXDOMAIN

    def addresses(self) -> List[str]:
        """All A/AAAA RDATA strings in the answer."""
        return [rr.rdata for rr in self.answers if rr.rtype in (RRType.A, RRType.AAAA)]


class IterativeResolver:
    """Walks the authoritative hierarchy from the root down.

    ``server_registry`` maps nameserver *hostnames* (the RDATA of NS
    records) to :class:`AuthoritativeServer` instances — the simulation
    analogue of resolving the nameserver's glue address and connecting
    to it.  The mapping is shared, not copied: registrations performed
    after the resolver is built (the registry delegating a new domain)
    must be reachable immediately, as on the real Internet.
    """

    def __init__(
        self,
        root_server: AuthoritativeServer,
        server_registry: Dict[str, AuthoritativeServer],
    ) -> None:
        self.root_server = root_server
        self.server_registry = server_registry
        self.queries_sent = 0

    def resolve(
        self, qname: DomainName, rtype: RRType = RRType.A, msg_id: int = 0
    ) -> ResolutionResult:
        """Resolve iteratively, following referrals and CNAMEs."""
        trace = ResolutionTrace()
        current_name = qname
        collected: List[ResourceRecord] = []
        for _ in range(MAX_CNAME_CHAIN):
            outcome = self._walk(current_name, rtype, msg_id, trace)
            rcode, answers, negative_ttl = outcome
            cname = _single_cname(answers, current_name)
            if cname is not None and rtype not in (RRType.CNAME, RRType.ANY):
                collected.extend(answers)
                current_name = cname
                continue
            return ResolutionResult(
                qname=qname,
                rtype=rtype,
                rcode=rcode,
                answers=collected + answers,
                negative_ttl=negative_ttl,
                trace=trace,
            )
        raise ResolutionError(f"CNAME chain exceeds {MAX_CNAME_CHAIN} for {qname}")

    def _walk(
        self,
        qname: DomainName,
        rtype: RRType,
        msg_id: int,
        trace: ResolutionTrace,
    ) -> Tuple[RCode, List[ResourceRecord], Optional[int]]:
        server = self.root_server
        for _ in range(MAX_REFERRALS):
            query = DnsMessage.make_query(
                qname, rtype, msg_id=msg_id, recursion_desired=False
            )
            self.queries_sent += 1
            response = server.handle_query(query)
            if response.rcode == RCode.REFUSED:
                trace.add(server.name, qname, rtype, StepKind.ERROR)
                raise ResolutionError(
                    f"{server.name} refused query for {qname} (lame delegation)"
                )
            if response.rcode == RCode.NXDOMAIN:
                trace.add(server.name, qname, rtype, StepKind.NXDOMAIN)
                return RCode.NXDOMAIN, [], response.soa_minimum_ttl()
            if response.answers:
                has_cname = any(rr.rtype == RRType.CNAME for rr in response.answers)
                kind = StepKind.CNAME if has_cname else StepKind.ANSWER
                trace.add(server.name, qname, rtype, kind)
                return RCode.NOERROR, list(response.answers), None
            if response.is_referral():
                trace.add(server.name, qname, rtype, StepKind.REFERRAL)
                server = self._follow_referral(response, qname)
                continue
            # Authoritative empty answer: NODATA.
            trace.add(server.name, qname, rtype, StepKind.NODATA)
            return RCode.NOERROR, [], response.soa_minimum_ttl()
        raise ResolutionError(f"referral chain exceeds {MAX_REFERRALS} for {qname}")

    def _follow_referral(
        self, response: DnsMessage, qname: DomainName
    ) -> AuthoritativeServer:
        for ns in response.authorities:
            if ns.rtype != RRType.NS:
                continue
            target = self.server_registry.get(ns.rdata)
            if target is not None:
                return target
        raise ResolutionError(
            f"no reachable nameserver among referrals for {qname}: "
            f"{[rr.rdata for rr in response.authorities if rr.rtype == RRType.NS]}"
        )


@dataclass
class RecursiveStats:
    """Counters a local resolver operator would graph."""

    queries: int = 0
    cache_hits: int = 0
    negative_cache_hits: int = 0
    upstream_resolutions: int = 0
    nxdomain_responses: int = 0
    nodata_responses: int = 0


class RecursiveResolver:
    """A caching local resolver (the "Local DNS" of Figure 1).

    ``use_negative_cache`` exists for the negative-caching ablation:
    with it off, every repeat query to an NXDomain goes upstream and is
    visible to passive DNS sensors sitting above the cache.
    """

    def __init__(
        self,
        iterative: IterativeResolver,
        cache: Optional[ResolverCache] = None,
        use_negative_cache: bool = True,
    ) -> None:
        self.iterative = iterative
        self.cache = cache if cache is not None else ResolverCache()
        self.use_negative_cache = use_negative_cache
        self.stats = RecursiveStats()

    def resolve(
        self, qname: DomainName, now: int, rtype: RRType = RRType.A
    ) -> ResolutionResult:
        """Resolve with caching; ``now`` drives TTL expiry."""
        self.stats.queries += 1
        outcome, entry = self.cache.probe(qname, rtype, now)
        if outcome == CacheOutcome.POSITIVE and entry is not None:
            self.stats.cache_hits += 1
            remaining = entry.remaining_ttl(now)
            result = ResolutionResult(
                qname=qname,
                rtype=rtype,
                rcode=RCode.NOERROR,
                answers=[rr.with_ttl(remaining) for rr in entry.records],
                from_cache=True,
            )
            result.trace.add("cache", qname, rtype, StepKind.CACHE_HIT)
            return result
        if (
            outcome in (CacheOutcome.NEGATIVE_NXDOMAIN, CacheOutcome.NEGATIVE_NODATA)
            and entry is not None
            and self.use_negative_cache
        ):
            self.stats.negative_cache_hits += 1
            rcode = (
                RCode.NXDOMAIN
                if outcome == CacheOutcome.NEGATIVE_NXDOMAIN
                else RCode.NOERROR
            )
            if rcode == RCode.NXDOMAIN:
                self.stats.nxdomain_responses += 1
            else:
                self.stats.nodata_responses += 1
            result = ResolutionResult(
                qname=qname,
                rtype=rtype,
                rcode=rcode,
                negative_ttl=entry.remaining_ttl(now),
                from_cache=True,
            )
            result.trace.add("cache", qname, rtype, StepKind.CACHE_NEGATIVE)
            return result

        self.stats.upstream_resolutions += 1
        result = self.iterative.resolve(qname, rtype)
        if result.rcode == RCode.NXDOMAIN:
            self.stats.nxdomain_responses += 1
            if self.use_negative_cache:
                ttl = result.negative_ttl if result.negative_ttl is not None else 900
                self.cache.store_nxdomain(qname, ttl, now)
        elif result.answers:
            self.cache.store_positive(qname, rtype, result.answers, now)
        else:
            self.stats.nodata_responses += 1
            if self.use_negative_cache:
                ttl = result.negative_ttl if result.negative_ttl is not None else 900
                self.cache.store_nodata(qname, rtype, ttl, now)
        return result


def _single_cname(
    answers: List[ResourceRecord], qname: DomainName
) -> Optional[DomainName]:
    """The CNAME target when the answer is exactly one CNAME for qname."""
    cnames = [rr for rr in answers if rr.rtype == RRType.CNAME and rr.name == qname]
    non_cnames = [rr for rr in answers if rr.rtype != RRType.CNAME]
    if cnames and not non_cnames:
        return DomainName(cnames[0].rdata)
    return None
