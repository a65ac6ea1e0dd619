#!/usr/bin/env python3
"""A domain's life, observed through live DNS resolution.

Wires the WHOIS registry to the DNS hierarchy and a sensor-tapped
resolver, then walks ``residual-traffic.com`` through the full ICANN
pipeline — registration, missed renewal notices, auto-renew grace,
redemption grace period, pending delete, release, and drop-catch
re-registration — resolving the domain at each stage to show exactly
when its queries start producing NXDOMAIN responses on the passive DNS
channel, and how negative caching hides repeat queries.

Usage::

    python examples/domain_lifecycle.py
"""

from repro.clock import SECONDS_PER_DAY
from repro.dns.hierarchy import DnsHierarchy
from repro.dns.name import DomainName
from repro.dns.tld import TldRegistry
from repro.passivedns.channel import SieChannel
from repro.passivedns.database import PassiveDnsDatabase
from repro.passivedns.sensor import Sensor, SensorTappedResolver
from repro.whois.registrar import DropCatchService
from repro.whois.registry import Registry

YEAR = 365 * SECONDS_PER_DAY
DAY = SECONDS_PER_DAY


def resolve_and_report(resolver, name, now, stage):
    result = resolver.resolve(name, now=now)
    origin = "cache" if result.from_cache else "authoritative walk"
    print(
        f"  [{stage:<28}] {name} -> {result.rcode.name:<8} via {origin} "
        f"({len(result.trace)} hops)"
    )
    return result


def main() -> int:
    hierarchy = DnsHierarchy.build(TldRegistry.default())
    dropcatch = DropCatchService()
    registry = Registry(hierarchy=hierarchy, dropcatch=dropcatch)

    channel = SieChannel()
    db = PassiveDnsDatabase()
    channel.subscribe(
        lambda o: db.add_rows(o.registered_domain, [o.timestamp], [o.count])
    )
    resolver = SensorTappedResolver(
        hierarchy.make_recursive_resolver(), Sensor("example-tap", channel)
    )

    domain = DomainName("residual-traffic.com")
    www = DomainName("www.residual-traffic.com")

    print("1) registration")
    registry.register(domain, owner="h-owner", at=0, address="203.0.113.80")
    resolve_and_report(resolver, www, now=0, stage="registered")

    print("\n2) the owner ignores the renewal notices")
    registry.tick(YEAR + 5 * DAY)
    lifecycle = registry.lifecycle_of(domain)
    print(f"  status: {lifecycle.status.value}, notices sent: {lifecycle.notices_sent}")
    resolve_and_report(resolver, www, now=YEAR + 5 * DAY, stage="auto-renew grace")

    print("\n3) the redemption grace period pulls the delegation")
    grace_end = registry.policy.grace_end(YEAR)
    registry.tick(grace_end + DAY)
    print(f"  status: {registry.status_of(domain).value}")
    resolve_and_report(resolver, www, now=grace_end + DAY, stage="redemption (now NX)")
    # Repeat queries are absorbed by the negative cache — invisible to
    # the sensor, exactly why passive DNS sits above resolver caches.
    resolve_and_report(
        resolver, www, now=grace_end + DAY + 60, stage="repeat query (neg cache)"
    )

    print("\n4) a speculator reserves the name at the drop-catcher")
    dropcatch.reserve(domain, customer="speculator-42", at=grace_end + 2 * DAY)
    release_at = registry.policy.delete_at(YEAR)
    registry.tick(release_at + DAY)
    lifecycle = registry.lifecycle_of(domain)
    print(
        f"  released and immediately re-registered by: {lifecycle.owner} "
        f"(drop-catch wins: {dropcatch.catches})"
    )
    resolve_and_report(
        resolver, www, now=release_at + 5 * DAY, stage="re-registered"
    )

    print("\n5) what the passive DNS channel saw")
    print(f"  NXDomain observations recorded: {db.total_responses()}")
    profile = db.profile(domain)
    if profile is not None:
        print(
            f"  {profile.domain}: first NX seen at day "
            f"{profile.first_seen // DAY}, {profile.total_queries} queries"
        )
    print("\nWHOIS history snapshots:")
    for record in registry.history.history(domain):
        print(f"  day {record.captured_at // DAY:>4}: {record.status}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
