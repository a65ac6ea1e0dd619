"""DNS substrate: names, messages, wire format, zones, resolution, caching.

This package implements enough of the DNS (RFC 1034/1035, with RFC 2308
negative caching) that NXDomain responses elsewhere in the library are
produced by actually resolving names through a root / TLD / authoritative
hierarchy rather than being fabricated.
"""

from repro.dns.cache import CacheEntry, CacheOutcome, ResolverCache
from repro.dns.hierarchy import DnsHierarchy
from repro.dns.hijack import HijackingResolver
from repro.dns.message import (
    DnsMessage,
    OpCode,
    Question,
    RCode,
    ResourceRecord,
    RRClass,
    RRType,
)
from repro.dns.name import DomainName
from repro.dns.resolver import (
    IterativeResolver,
    RecursiveResolver,
    ResolutionResult,
    ResolutionTrace,
)
from repro.dns.tld import TldRegistry
from repro.dns.wire import decode_message, encode_message
from repro.dns.zone import AuthoritativeServer, Zone

__all__ = [  # repro: noqa[REP104] resolver result types; exported for annotations
    "AuthoritativeServer",
    "CacheEntry",
    "CacheOutcome",
    "DnsHierarchy",
    "DnsMessage",
    "HijackingResolver",
    "DomainName",
    "IterativeResolver",
    "OpCode",
    "Question",
    "RCode",
    "RRClass",
    "RRType",
    "RecursiveResolver",
    "ResolutionResult",
    "ResolutionTrace",
    "ResolverCache",
    "ResourceRecord",
    "TldRegistry",
    "Zone",
    "decode_message",
    "encode_message",
]
