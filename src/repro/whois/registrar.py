"""Registrars and drop-catching services.

Registrars are thin accounting entities (the paper registers its 19
domains across 101domain, GoDaddy, and Namecheap); drop-catch platforms
(DropCatch, CatchTiger, pool.com) reserve pending-delete domains and
re-register them the instant they are released — the mechanism behind
the paper's observation that domains with residual traffic get snapped
up quickly (§4.4, first 10 days).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.dns.name import DomainName


@dataclass
class Registrar:
    """A domain registrar with simple price accounting."""

    name: str
    registration_fee: float = 12.0
    renewal_fee: float = 14.0
    restore_fee: float = 90.0
    revenue: float = 0.0
    registrations: int = 0

    def charge_registration(self, years: int = 1) -> float:
        amount = self.registration_fee * years
        self.revenue += amount
        self.registrations += 1
        return amount

    def charge_renewal(self, years: int = 1) -> float:
        amount = self.renewal_fee * years
        self.revenue += amount
        return amount

    def charge_restore(self) -> float:
        amount = self.restore_fee
        self.revenue += amount
        return amount


@dataclass
class _Reservation:
    domain: DomainName
    customer: str
    placed_at: int


class DropCatchService:
    """Reserves pending-delete domains for immediate re-registration.

    The registry consults :meth:`claim` at the moment a domain is
    released; the earliest reservation wins (these platforms are
    first-come-first-served per domain).
    """

    def __init__(self, name: str = "dropcatch") -> None:
        self.name = name
        self._reservations: Dict[DomainName, List[_Reservation]] = {}
        self.catches: int = 0

    def reserve(self, domain: DomainName, customer: str, at: int) -> None:
        """Place a reservation for ``domain`` on behalf of ``customer``."""
        queue = self._reservations.setdefault(domain, [])
        queue.append(_Reservation(domain, customer, at))
        queue.sort(key=lambda r: r.placed_at)

    def claim(self, domain: DomainName) -> Optional[str]:
        """Pop the winning customer for a just-released domain."""
        queue = self._reservations.get(domain)
        if not queue:
            return None
        winner = queue.pop(0)
        if not queue:
            del self._reservations[domain]
        self.catches += 1
        return winner.customer
