"""The registry: operates lifecycles, emits WHOIS history, drives DNS.

:class:`Registry` is the integration point of the WHOIS substrate:

- registration / renewal / restore requests route through the domain's
  :class:`~repro.whois.lifecycle.DomainLifecycle` and charge the
  registrar;
- :meth:`tick` advances expiry processing for every managed domain;
- every externally visible change appends a snapshot to the
  :class:`~repro.whois.history.WhoisHistoryDatabase`;
- when wired to a :class:`repro.dns.DnsHierarchy`, delegations are
  added on registration and withdrawn when a domain stops resolving
  (entry into the redemption grace period), so the passive DNS pipeline
  observes real NXDOMAINs.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.clock import SECONDS_PER_DAY
from repro.dns.hierarchy import DnsHierarchy
from repro.dns.name import DomainName
from repro.errors import RegistryError
from repro.whois.history import WhoisHistoryDatabase
from repro.whois.lifecycle import (
    DomainLifecycle,
    DomainStatus,
    EventKind,
    LifecyclePolicy,
)
from repro.whois.record import WhoisRecord
from repro.whois.registrar import DropCatchService, Registrar


class Registry:
    """Manages registrations across all TLDs of the simulation."""

    def __init__(
        self,
        history: Optional[WhoisHistoryDatabase] = None,
        hierarchy: Optional[DnsHierarchy] = None,
        dropcatch: Optional[DropCatchService] = None,
        policy: Optional[LifecyclePolicy] = None,
        default_registrar: Optional[Registrar] = None,
    ) -> None:
        self.history = history if history is not None else WhoisHistoryDatabase()
        self.hierarchy = hierarchy
        self.dropcatch = dropcatch
        self.policy = policy if policy is not None else LifecyclePolicy()
        self.default_registrar = (
            default_registrar if default_registrar is not None else Registrar("generic")
        )
        self.registrars: Dict[str, Registrar] = {
            self.default_registrar.name: self.default_registrar
        }
        self._lifecycles: Dict[DomainName, DomainLifecycle] = {}
        self._registrar_of: Dict[DomainName, Registrar] = {}
        self._address_of: Dict[DomainName, str] = {}

    # -- registrar management ---------------------------------------------

    # -- registration operations -------------------------------------------

    def register(
        self,
        domain: DomainName,
        owner: str,
        at: int,
        years: int = 1,
        registrar: Optional[str] = None,
        address: str = "203.0.113.10",
    ) -> DomainLifecycle:
        """Register an available domain and delegate it in DNS."""
        domain = domain.registered_domain()
        lifecycle = self._lifecycles.get(domain)
        if lifecycle is not None and lifecycle.status != DomainStatus.AVAILABLE:
            raise RegistryError(
                f"{domain} is {lifecycle.status.value}, not available"
            )
        if lifecycle is None:
            lifecycle = DomainLifecycle(domain, self.policy)
            self._lifecycles[domain] = lifecycle
        agent = self._resolve_registrar(registrar)
        lifecycle.register(owner=owner, at=at, years=years)
        agent.charge_registration(years)
        self._registrar_of[domain] = agent
        self._address_of[domain] = address
        if self.hierarchy is not None and not self.hierarchy.is_registered(domain):
            self.hierarchy.register_domain(domain, address)
        self._snapshot(domain, at)
        return lifecycle

    def renew(self, domain: DomainName, at: int, years: int = 1) -> None:
        lifecycle = self._require(domain)
        was_resolving = lifecycle.status.resolves_in_dns
        lifecycle.renew(at, years)
        self._registrar_of[domain].charge_renewal(years)
        if (
            self.hierarchy is not None
            and not was_resolving
            and not self.hierarchy.is_registered(domain)
        ):
            self.hierarchy.register_domain(domain, self._address_of[domain])
        self._snapshot(domain, at)

    def restore(self, domain: DomainName, at: int) -> None:
        """Redeem a domain out of the RGP (restores its delegation)."""
        lifecycle = self._require(domain)
        lifecycle.restore(at)
        self._registrar_of[domain].charge_restore()
        if self.hierarchy is not None and not self.hierarchy.is_registered(domain):
            self.hierarchy.register_domain(domain, self._address_of[domain])
        self._snapshot(domain, at)

    # -- time processing ---------------------------------------------------

    def tick(self, now: int) -> Dict[DomainName, List[EventKind]]:
        """Advance every lifecycle to ``now``.

        Reflects transitions into DNS and WHOIS history, and hands
        released domains to the drop-catch service.  Returns the event
        kinds per domain for callers that trace activity.
        """
        activity: Dict[DomainName, List[EventKind]] = {}
        for domain, lifecycle in list(self._lifecycles.items()):
            events = lifecycle.tick(now)
            if not events:
                continue
            activity[domain] = [event.kind for event in events]
            for event in events:
                if event.kind == EventKind.ENTERED_REDEMPTION:
                    self._withdraw_delegation(domain)
                    self._snapshot(
                        domain, event.at, status=DomainStatus.REDEMPTION.value
                    )
                elif event.kind == EventKind.RELEASED:
                    self._snapshot(
                        domain, event.at, status=DomainStatus.AVAILABLE.value
                    )
                    self._offer_to_dropcatch(domain, event.at)
                elif event.kind == EventKind.EXPIRED:
                    self._snapshot(
                        domain, event.at, status=DomainStatus.AUTO_RENEW_GRACE.value
                    )
        return activity

    def _offer_to_dropcatch(self, domain: DomainName, at: int) -> None:
        if self.dropcatch is None:
            return
        customer = self.dropcatch.claim(domain)
        if customer is not None:
            # Drop-catch re-registration is immediate upon release.
            self.register(domain, owner=customer, at=at)

    def _withdraw_delegation(self, domain: DomainName) -> None:
        if self.hierarchy is not None and self.hierarchy.is_registered(domain):
            self.hierarchy.release_domain(domain)

    # -- queries -------------------------------------------------------------

    def lifecycle_of(self, domain: DomainName) -> Optional[DomainLifecycle]:
        return self._lifecycles.get(domain.registered_domain())

    def status_of(self, domain: DomainName) -> DomainStatus:
        lifecycle = self.lifecycle_of(domain)
        return lifecycle.status if lifecycle else DomainStatus.AVAILABLE

    def is_nxdomain(self, domain: DomainName) -> bool:
        """Would an A query for the domain yield NXDOMAIN right now?"""
        return not self.status_of(domain).resolves_in_dns

    # -- internals -------------------------------------------------------------

    def _require(self, domain: DomainName) -> DomainLifecycle:
        lifecycle = self._lifecycles.get(domain.registered_domain())
        if lifecycle is None:
            raise RegistryError(f"{domain} is not managed by this registry")
        return lifecycle

    def _resolve_registrar(self, name: Optional[str]) -> Registrar:
        if name is None:
            return self.default_registrar
        registrar = self.registrars.get(name)
        if registrar is None:
            raise RegistryError(f"unknown registrar {name!r}")
        return registrar

    def _snapshot(
        self, domain: DomainName, at: int, status: Optional[str] = None
    ) -> None:
        """Append a WHOIS snapshot; ``status`` overrides the live status
        when recording a historical transition mid-tick (a large time
        jump processes several transitions whose intermediate states
        would otherwise be lost)."""
        lifecycle = self._lifecycles[domain]
        if lifecycle.created_at is None or lifecycle.expires_at is None:
            return
        snapshot_status = status if status is not None else lifecycle.status.value
        nameservers = ()
        if snapshot_status in (
            DomainStatus.REGISTERED.value,
            DomainStatus.AUTO_RENEW_GRACE.value,
        ):
            nameservers = (f"ns1.{domain}",)
        self.history.append(
            WhoisRecord(
                domain=domain,
                registrar=self._registrar_of[domain].name,
                registrant_handle=lifecycle.owner or "released",
                status=snapshot_status,
                created_at=lifecycle.created_at,
                expires_at=lifecycle.expires_at,
                captured_at=max(at, lifecycle.created_at),
                nameservers=nameservers,
            )
        )


def days(count: float) -> int:
    """Readability helper for tests and examples: days → seconds."""
    return int(count * SECONDS_PER_DAY)
