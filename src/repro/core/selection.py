"""§3.3 — domain selection criteria.

The paper registers NXDomains that (1) receive more than 10,000 DNS
queries per month in the passive database and (2) have been in
non-existent status for at least six months, mixing benign and
malicious candidates.  This module applies the same criteria to the
trace population.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.clock import SECONDS_PER_DAY
from repro.passivedns.database import PassiveDnsDatabase
from repro.workloads.trace import DomainKind, TraceDomain, TraceResult
from repro.errors import ConfigError


@dataclass(frozen=True)
class SelectionCriteria:
    """The §3.3 thresholds (paper values; scale before use).

    ``require_expired`` restricts candidates to domains with WHOIS
    history — the paper's 19 registered domains are all previously
    registered names whose pre-expiration use it then investigates.
    """

    min_monthly_queries: float = 10_000.0
    min_nx_days: int = 180
    require_expired: bool = False

    def scaled(self, factor: float) -> "SelectionCriteria":
        """The same criteria under a volume-scaled trace."""
        if factor <= 0:
            raise ConfigError("factor must be positive")
        return SelectionCriteria(
            min_monthly_queries=self.min_monthly_queries * factor,
            min_nx_days=self.min_nx_days,
            require_expired=self.require_expired,
        )


@dataclass
class SelectedDomain:
    """One candidate passing the criteria."""

    record: TraceDomain
    monthly_queries: float
    nx_days: int

    @property
    def is_malicious(self) -> bool:
        return self.record.blocklisted or self.record.kind in (
            DomainKind.EXPIRED_DGA,
            DomainKind.EXPIRED_SQUAT,
            DomainKind.NEVER_REGISTERED_DGA,
        )


def select_candidates(
    trace: TraceResult,
    criteria: SelectionCriteria,
    now: Optional[int] = None,
) -> List[SelectedDomain]:
    """All trace domains meeting both §3.3 criteria."""
    nx_db: PassiveDnsDatabase = trace.nx_db
    selected = []
    for record in trace.population:
        if criteria.require_expired and not record.kind.is_expired:
            continue
        profile = nx_db.profile(record.domain)
        if profile is None:
            continue
        reference = now if now is not None else profile.last_seen
        nx_days = max((reference - record.became_nx_at) // SECONDS_PER_DAY, 0)
        if nx_days < criteria.min_nx_days:
            continue
        if record.activity_days < criteria.min_nx_days:
            # Still queried after six months NX, per the paper's
            # "frequently queried over an extended period" reading.
            continue
        monthly = profile.monthly_rate()
        if monthly < criteria.min_monthly_queries:
            continue
        selected.append(
            SelectedDomain(record=record, monthly_queries=monthly, nx_days=nx_days)
        )
    selected.sort(key=lambda s: s.monthly_queries, reverse=True)
    return selected


def pick_study_set(
    candidates: List[SelectedDomain],
    count: int = 19,
    malicious_target: int = 8,
) -> List[SelectedDomain]:
    """The paper's mix: 19 domains, 8 malicious + 11 benign, chosen
    from the top of the traffic ranking within each class."""
    malicious = [c for c in candidates if c.is_malicious][:malicious_target]
    benign_needed = count - len(malicious)
    benign = [c for c in candidates if not c.is_malicious][:benign_needed]
    chosen = malicious + benign
    chosen.sort(key=lambda s: s.monthly_queries, reverse=True)
    return chosen[:count]
