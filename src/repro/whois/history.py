"""The WHOIS history database (WhoisXML / WHOISIQ stand-in).

Stores every :class:`~repro.whois.record.WhoisRecord` snapshot ever
emitted and answers the two queries the study needs:

- *has this NXDomain ever been registered?* (§5.1: splits the 146 B
  NXDomains into 91 M expired vs. the never-registered rest), and
- *what did its registration history look like?* (used by domain
  selection in §3.3 and the per-domain profiles in §6).

The bulk-join API mirrors how the paper ran the join on BigQuery:
streaming domains through, returning hit/miss splits without
materializing per-domain state for misses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.dns.name import DomainName
from repro.whois.record import WhoisRecord


@dataclass
class JoinResult:
    """Outcome of joining a domain stream against the history DB."""

    total: int = 0
    with_history: List[DomainName] = field(default_factory=list)
    never_registered_count: int = 0

    @property
    def hit_count(self) -> int:
        return len(self.with_history)


class WhoisHistoryDatabase:
    """Append-only store of WHOIS snapshots, indexed by domain."""

    def __init__(self) -> None:
        self._by_domain: Dict[DomainName, List[WhoisRecord]] = {}
        self.record_count = 0

    def append(self, record: WhoisRecord) -> None:
        """Add one snapshot (kept sorted by capture time)."""
        snapshots = self._by_domain.setdefault(record.domain, [])
        snapshots.append(record)
        if len(snapshots) > 1 and snapshots[-2].captured_at > record.captured_at:
            snapshots.sort(key=lambda r: r.captured_at)
        self.record_count += 1

    def extend(self, records: Iterable[WhoisRecord]) -> None:
        for record in records:
            self.append(record)

    # -- point queries -----------------------------------------------------

    def has_history(self, domain: DomainName) -> bool:
        return domain.registered_domain() in self._by_domain

    def history(self, domain: DomainName) -> List[WhoisRecord]:
        """All snapshots for a domain, oldest first."""
        return list(self._by_domain.get(domain.registered_domain(), []))

    def latest(self, domain: DomainName) -> Optional[WhoisRecord]:
        snapshots = self._by_domain.get(domain.registered_domain())
        return snapshots[-1] if snapshots else None

    def domain_count(self) -> int:
        return len(self._by_domain)

    def __len__(self) -> int:
        return self.record_count

    def __contains__(self, domain: DomainName) -> bool:
        return self.has_history(domain)

    # -- the §5.1 join --------------------------------------------------------

    def join(self, domains: Iterable[DomainName]) -> JoinResult:
        """Split a domain stream into with-history vs never-registered."""
        result = JoinResult()
        for domain in domains:
            result.total += 1
            if self.has_history(domain):
                result.with_history.append(domain.registered_domain())
            else:
                result.never_registered_count += 1
        return result
