"""A ready-made root → TLD → authoritative hierarchy.

:class:`DnsHierarchy` wires one root server, one server per TLD, and a
shared hosting server for registered second-level domains, exposing
``register_domain`` / ``release_domain`` so the WHOIS registry can make
registration state changes *observable through actual resolution*: a
released domain's delegation disappears from its TLD zone and
subsequent queries yield NXDOMAIN from the TLD server.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.dns.message import ResourceRecord, RRType, make_soa_record
from repro.dns.name import DomainName
from repro.dns.resolver import IterativeResolver, RecursiveResolver
from repro.dns.tld import TldRegistry
from repro.dns.zone import AuthoritativeServer, Zone
from repro.errors import ZoneError


class DnsHierarchy:
    """Root, TLD, and hosting infrastructure for the simulation.

    >>> hierarchy = DnsHierarchy.build(TldRegistry.default())
    >>> hierarchy.register_domain(DomainName("example.com"), "93.184.216.34")
    >>> resolver = hierarchy.make_recursive_resolver()
    >>> resolver.resolve(DomainName("www.example.com"), now=0).addresses()
    ['93.184.216.34']
    """

    def __init__(self) -> None:
        self.root_server = AuthoritativeServer("root")
        self.root_zone = self.root_server.host_zone(Zone(DomainName.root()))
        self.tld_servers: Dict[str, AuthoritativeServer] = {}
        self.tld_zones: Dict[str, Zone] = {}
        self.hosting_server = AuthoritativeServer("hosting")
        self._registry: Dict[str, AuthoritativeServer] = {}
        self._registered: Dict[DomainName, Zone] = {}

    @classmethod
    def build(cls, tlds: TldRegistry) -> "DnsHierarchy":
        """Create the hierarchy with every TLD of ``tlds`` delegated."""
        hierarchy = cls()
        for tld in tlds.all_tlds(include_special=True):
            hierarchy.add_tld(tld)
        return hierarchy

    # -- infrastructure ---------------------------------------------------

    def add_tld(self, tld: str) -> AuthoritativeServer:
        """Stand up a TLD server/zone and delegate it from the root."""
        if tld in self.tld_servers:
            return self.tld_servers[tld]
        apex = DomainName(tld)
        server = AuthoritativeServer(f"tld-{tld}")
        zone = server.host_zone(Zone(apex, make_soa_record(apex, minimum=900)))
        ns_name = apex.child("ns").child("nic")
        self.root_zone.add_delegation(apex, ns_name, glue_a=None)
        self._registry[str(ns_name)] = server
        self.tld_servers[tld] = server
        self.tld_zones[tld] = zone
        return server

    # -- domain registration ----------------------------------------------

    def register_domain(
        self,
        domain: DomainName,
        address: str,
        extra_hosts: Optional[Iterable[str]] = None,
        server: Optional[AuthoritativeServer] = None,
    ) -> Zone:
        """Delegate ``domain`` and host a minimal zone for it.

        The zone answers A for the apex and ``www`` plus any
        ``extra_hosts``; everything else under the apex is NXDOMAIN
        from the domain's own authoritative server.
        """
        if domain.depth != 2:
            raise ZoneError(f"only second-level domains are registrable: {domain}")
        tld = domain.tld
        if tld not in self.tld_zones:
            self.add_tld(tld)
        if domain in self._registered:
            raise ZoneError(f"{domain} is already delegated")
        host = server if server is not None else self.hosting_server
        ns_name = domain.child("ns1")
        zone = host.host_zone(Zone(domain, make_soa_record(domain, minimum=900)))
        zone.add(ResourceRecord(domain, RRType.A, 300, address))
        hosts = ["www"] + list(extra_hosts or [])
        for label in hosts:
            zone.add(ResourceRecord(domain.child(label), RRType.A, 300, address))
        self.tld_zones[tld].add_delegation(domain, ns_name, glue_a=address)
        self._registry[str(ns_name)] = host
        self._registered[domain] = zone
        return zone

    def release_domain(self, domain: DomainName) -> None:
        """Withdraw the delegation: queries now yield NXDOMAIN at the TLD."""
        zone = self._registered.pop(domain, None)
        if zone is None:
            raise ZoneError(f"{domain} is not delegated")
        tld_zone = self.tld_zones[domain.tld]
        tld_zone.remove_name(domain)
        tld_zone.remove_name(domain.child("ns1"))
        self._registry.pop(str(domain.child("ns1")), None)
        self.hosting_server.drop_zone(domain)

    def is_registered(self, domain: DomainName) -> bool:
        return domain in self._registered

    # -- resolvers -------------------------------------------------------

    def make_iterative_resolver(self) -> IterativeResolver:
        return IterativeResolver(self.root_server, self._registry)

    def make_recursive_resolver(
        self, use_negative_cache: bool = True
    ) -> RecursiveResolver:
        return RecursiveResolver(
            self.make_iterative_resolver(), use_negative_cache=use_negative_cache
        )
