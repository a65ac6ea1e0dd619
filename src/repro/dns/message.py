"""DNS message, question, and resource-record model (RFC 1035 §4).

The model keeps to the subset exercised by the study: queries and
responses for A/AAAA/NS/SOA/CNAME/TXT/PTR/MX records, response codes
(NOERROR, NXDOMAIN, SERVFAIL, ...), and the header flags involved in
iterative vs recursive resolution.  The distinction the paper leans on
— an NXDOMAIN response versus a NOERROR response with an empty answer
section (NODATA) — is the response code plus the answer section;
:meth:`DnsMessage.is_nxdomain` names the first.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import List, Optional

from repro.dns.name import DomainName
from repro.errors import ConfigError


class RRType(enum.IntEnum):
    """Resource record types (subset of the IANA registry)."""

    A = 1
    NS = 2
    CNAME = 5
    SOA = 6
    PTR = 12
    MX = 15
    TXT = 16
    AAAA = 28
    ANY = 255


class RRClass(enum.IntEnum):
    """Resource record classes; the study only uses IN."""

    IN = 1
    ANY = 255


class RCode(enum.IntEnum):
    """Response codes (RFC 1035 §4.1.1, RFC 2136)."""

    NOERROR = 0
    FORMERR = 1
    SERVFAIL = 2
    NXDOMAIN = 3
    NOTIMP = 4
    REFUSED = 5


class OpCode(enum.IntEnum):
    QUERY = 0
    STATUS = 2


@dataclass(frozen=True)
class Question:
    """One entry of the question section."""

    name: DomainName
    rtype: RRType = RRType.A
    rclass: RRClass = RRClass.IN

    def __str__(self) -> str:
        return f"{self.name} {self.rclass.name} {self.rtype.name}"


@dataclass(frozen=True)
class SoaData:
    """SOA RDATA; ``minimum`` caps negative-cache TTLs (RFC 2308 §4)."""

    mname: DomainName
    rname: DomainName
    serial: int = 1
    refresh: int = 7200
    retry: int = 3600
    expire: int = 1_209_600
    minimum: int = 3600


@dataclass(frozen=True)
class ResourceRecord:
    """A resource record with presentation-format RDATA.

    RDATA is held as a string (an IP address, a target name, TXT
    payload); :class:`SoaData` rides in the optional ``soa`` slot when
    ``rtype`` is SOA because negative caching needs its fields
    structurally.
    """

    name: DomainName
    rtype: RRType
    ttl: int
    rdata: str
    rclass: RRClass = RRClass.IN
    soa: Optional[SoaData] = None

    def __post_init__(self) -> None:
        if self.ttl < 0:
            raise ConfigError("TTL must be non-negative")
        if self.rtype == RRType.SOA and self.soa is None:
            raise ConfigError("SOA records require structured SoaData")

    def with_ttl(self, ttl: int) -> "ResourceRecord":
        """Copy with a different TTL (used when serving from cache)."""
        return replace(self, ttl=ttl)

    def __str__(self) -> str:
        return f"{self.name} {self.ttl} {self.rclass.name} {self.rtype.name} {self.rdata}"


@dataclass
class DnsMessage:
    """A DNS query or response.

    The header is modelled by explicit boolean flags rather than a
    packed word; :mod:`repro.dns.wire` does the packing.
    """

    msg_id: int = 0
    is_response: bool = False
    opcode: OpCode = OpCode.QUERY
    authoritative: bool = False
    truncated: bool = False
    recursion_desired: bool = True
    recursion_available: bool = False
    rcode: RCode = RCode.NOERROR
    questions: List[Question] = field(default_factory=list)
    answers: List[ResourceRecord] = field(default_factory=list)
    authorities: List[ResourceRecord] = field(default_factory=list)
    additionals: List[ResourceRecord] = field(default_factory=list)

    # -- classification ------------------------------------------------

    @property
    def question(self) -> Question:
        """The first (and in this library, only) question."""
        if not self.questions:
            raise ConfigError("message has no question section")
        return self.questions[0]

    def is_nxdomain(self) -> bool:
        """True for a Name Error response: the *name* does not exist."""
        return self.is_response and self.rcode == RCode.NXDOMAIN

    def is_referral(self) -> bool:
        """True when a non-authoritative answer delegates via NS records."""
        return (
            self.is_response
            and self.rcode == RCode.NOERROR
            and not self.answers
            and not self.authoritative
            and any(rr.rtype == RRType.NS for rr in self.authorities)
        )

    def soa_minimum_ttl(self) -> Optional[int]:
        """Negative-cache TTL from the authority SOA, if present.

        RFC 2308 §5: the negative TTL is the minimum of the SOA's TTL
        and its MINIMUM field.
        """
        for rr in self.authorities:
            if rr.rtype == RRType.SOA and rr.soa is not None:
                return min(rr.ttl, rr.soa.minimum)
        return None

    # -- constructors ----------------------------------------------------

    @classmethod
    def make_query(
        cls,
        name: DomainName,
        rtype: RRType = RRType.A,
        msg_id: int = 0,
        recursion_desired: bool = True,
    ) -> "DnsMessage":
        """Build a standard query for ``name``/``rtype``."""
        return cls(
            msg_id=msg_id,
            recursion_desired=recursion_desired,
            questions=[Question(name, rtype)],
        )

    def make_response(
        self,
        rcode: RCode = RCode.NOERROR,
        answers: Optional[List[ResourceRecord]] = None,
        authorities: Optional[List[ResourceRecord]] = None,
        additionals: Optional[List[ResourceRecord]] = None,
        authoritative: bool = False,
        recursion_available: bool = False,
    ) -> "DnsMessage":
        """Build a response mirroring this query's id and question."""
        if self.is_response:
            raise ConfigError("cannot respond to a response")
        return DnsMessage(
            msg_id=self.msg_id,
            is_response=True,
            opcode=self.opcode,
            authoritative=authoritative,
            recursion_desired=self.recursion_desired,
            recursion_available=recursion_available,
            rcode=rcode,
            questions=list(self.questions),
            answers=list(answers or []),
            authorities=list(authorities or []),
            additionals=list(additionals or []),
        )

    def __str__(self) -> str:
        kind = "response" if self.is_response else "query"
        q = str(self.question) if self.questions else "<no question>"
        return (
            f"<DnsMessage {kind} id={self.msg_id} {q} rcode={self.rcode.name} "
            f"ans={len(self.answers)} auth={len(self.authorities)}>"
        )


def make_soa_record(
    zone_name: DomainName,
    ttl: int = 3600,
    minimum: int = 3600,
    serial: int = 1,
) -> ResourceRecord:
    """Convenience: a plausible SOA record for ``zone_name``."""
    data = SoaData(
        mname=zone_name.child("ns1"),
        rname=zone_name.child("hostmaster"),
        serial=serial,
        minimum=minimum,
    )
    rdata = (
        f"{data.mname} {data.rname} {data.serial} {data.refresh} "
        f"{data.retry} {data.expire} {data.minimum}"
    )
    return ResourceRecord(zone_name, RRType.SOA, ttl, rdata, soa=data)
