"""Zones and authoritative servers (RFC 1034 §4.3.2 answer algorithm).

A :class:`Zone` is the record database for one cut of the namespace; an
:class:`AuthoritativeServer` hosts one or more zones and answers
queries with the correct semantics for the three cases the paper's
measurement hinges on:

- **answer** — the name and type exist;
- **NODATA** — the name exists (possibly only as an empty non-terminal)
  but lacks the requested type: NOERROR with an empty answer section;
- **NXDOMAIN** — the name does not exist at all: RCODE 3 with the
  zone's SOA in the authority section so resolvers can negatively
  cache it (RFC 2308).

Delegations (NS records below the apex) produce referrals, which the
iterative resolver follows downward.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.dns.message import (
    DnsMessage,
    RCode,
    ResourceRecord,
    RRType,
    make_soa_record,
)
from repro.dns.name import DomainName
from repro.errors import ZoneError


class Zone:
    """The authoritative record set for one zone cut.

    >>> zone = Zone(DomainName("example.com"))
    >>> zone.add(ResourceRecord(DomainName("www.example.com"), RRType.A, 300, "93.184.216.34"))
    >>> zone.lookup(DomainName("www.example.com"), RRType.A)[0].rdata
    '93.184.216.34'
    """

    def __init__(self, apex: DomainName, soa: Optional[ResourceRecord] = None) -> None:
        if apex.is_root and soa is None:
            # The root zone gets a root SOA by default.
            soa = make_soa_record(apex)
        self.apex = apex
        self.soa = soa if soa is not None else make_soa_record(apex)
        if self.soa.rtype != RRType.SOA:
            raise ZoneError("zone SOA record must have type SOA")
        self._records: Dict[Tuple[DomainName, RRType], List[ResourceRecord]] = {}
        #: Every name that exists in the zone, including empty
        #: non-terminals implied by deeper records.
        self._names: Set[DomainName] = {apex}

    # -- mutation -------------------------------------------------------

    def add(self, record: ResourceRecord) -> None:
        """Insert a record; the owner must fall inside this zone."""
        if not record.name.is_subdomain_of(self.apex):
            raise ZoneError(f"{record.name} is outside zone {self.apex}")
        self._records.setdefault((record.name, record.rtype), []).append(record)
        # Register the owner and all implied empty non-terminals.
        name = record.name
        while not name.is_root and name not in self._names:
            self._names.add(name)
            if name == self.apex:
                break
            name = name.parent()

    def add_delegation(
        self, child: DomainName, nameserver: DomainName, glue_a: Optional[str] = None
    ) -> None:
        """Delegate ``child`` to ``nameserver`` with optional glue."""
        if child == self.apex:
            raise ZoneError("cannot delegate the zone apex to itself")
        self.add(ResourceRecord(child, RRType.NS, 172_800, str(nameserver)))
        if glue_a is not None:
            self.add(ResourceRecord(nameserver, RRType.A, 172_800, glue_a))

    def remove_name(self, name: DomainName) -> int:
        """Delete all records owned by ``name``; returns how many.

        Used by the registry when a domain is released: its delegation
        is withdrawn from the parent zone, after which queries for it
        yield NXDOMAIN.
        """
        removed = 0
        for key in [k for k in self._records if k[0] == name]:
            removed += len(self._records.pop(key))
        if name in self._names and name != self.apex:
            still_referenced = any(
                owner.is_subdomain_of(name) for owner, _ in self._records
            )
            if not still_referenced:
                self._names.discard(name)
        return removed

    # -- queries ----------------------------------------------------------

    def lookup(self, name: DomainName, rtype: RRType) -> List[ResourceRecord]:
        """Exact-match records for (name, type); CNAME not chased here."""
        if rtype == RRType.ANY:
            return [
                rr
                for (owner, _), records in self._records.items()
                if owner == name
                for rr in records
            ]
        return list(self._records.get((name, rtype), []))

    def name_exists(self, name: DomainName) -> bool:
        """True when the name exists in this zone (incl. empty non-terminals)."""
        return name in self._names

    def find_delegation(self, name: DomainName) -> Optional[DomainName]:
        """The deepest zone cut at or above ``name`` (below the apex)."""
        candidate = name
        best: Optional[DomainName] = None
        while candidate.is_subdomain_of(self.apex) and candidate != self.apex:
            if self._records.get((candidate, RRType.NS)):
                best = candidate
            candidate = candidate.parent()
        return best

    def records(self) -> Iterable[ResourceRecord]:
        """All records in canonical (owner, type) order, SOA excluded."""
        for (owner, rtype) in sorted(
            self._records, key=lambda key: (key[0], int(key[1]))
        ):
            yield from self._records[(owner, rtype)]

    def record_count(self) -> int:
        return sum(len(records) for records in self._records.values())

    def __contains__(self, name: DomainName) -> bool:
        return self.name_exists(name)

    def __repr__(self) -> str:
        return f"Zone({str(self.apex)!r}, records={self.record_count()})"


@dataclass
class ServerStats:
    """Per-server query accounting, used by resolver-path assertions."""

    queries: int = 0
    answers: int = 0
    referrals: int = 0
    nxdomains: int = 0
    nodatas: int = 0


class AuthoritativeServer:
    """A nameserver hosting one or more zones.

    The answer algorithm follows RFC 1034 §4.3.2 restricted to the
    in-bailiwick, single-question case the simulation needs.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._zones: Dict[DomainName, Zone] = {}
        self.stats = ServerStats()

    def host_zone(self, zone: Zone) -> Zone:
        """Attach ``zone`` to this server (replacing any same-apex zone)."""
        self._zones[zone.apex] = zone
        return zone

    def drop_zone(self, apex: DomainName) -> None:
        self._zones.pop(apex, None)

    def zone_for(self, name: DomainName) -> Optional[Zone]:
        """The most specific hosted zone enclosing ``name``."""
        best: Optional[Zone] = None
        for apex, zone in self._zones.items():
            if name.is_subdomain_of(apex):
                if best is None or apex.depth > best.apex.depth:
                    best = zone
        return best

    def handle_query(self, query: DnsMessage) -> DnsMessage:
        """Answer one query with answer / referral / NODATA / NXDOMAIN."""
        self.stats.queries += 1
        question = query.question
        zone = self.zone_for(question.name)
        if zone is None:
            return query.make_response(rcode=RCode.REFUSED)

        # Delegation below this zone?  Refer the resolver downward.
        cut = zone.find_delegation(question.name)
        if cut is not None:
            self.stats.referrals += 1
            ns_records = zone.lookup(cut, RRType.NS)
            glue = [
                rr
                for ns in ns_records
                for rr in zone.lookup(DomainName(ns.rdata), RRType.A)
            ]
            return query.make_response(
                authorities=ns_records, additionals=glue, authoritative=False
            )

        answers = zone.lookup(question.name, question.rtype)
        if not answers and question.rtype != RRType.CNAME:
            # Chase an in-zone CNAME one step; the resolver restarts.
            answers = zone.lookup(question.name, RRType.CNAME)
        if answers:
            self.stats.answers += 1
            return query.make_response(answers=answers, authoritative=True)

        if zone.name_exists(question.name):
            self.stats.nodatas += 1
            return query.make_response(
                authorities=[zone.soa], authoritative=True
            )

        self.stats.nxdomains += 1
        return query.make_response(
            rcode=RCode.NXDOMAIN, authorities=[zone.soa], authoritative=True
        )

    def __repr__(self) -> str:
        return f"AuthoritativeServer({self.name!r}, zones={len(self._zones)})"
