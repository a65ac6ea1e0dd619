"""Referrer classification (FortiGuard Web Filter stand-in).

§6.3's referral analysis classifies the Referer URL three ways:

- **search engine** — the referring page is a known search property;
- **embedded URL/URI** — fetching the referring page finds a link to
  (or resource from) our domain: an organic referral;
- **malicious link** — the referring page is unreachable or does *not*
  reference our domain: the Referer was forged.

The "fetch the referring page" step is modelled by a registry of known
web pages with their outbound links, which the workload populates for
the referral traffic it generates; everything else is unreachable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

SEARCH_ENGINE_HOSTS: Tuple[str, ...] = (
    "google.com",
    "www.google.com",
    "bing.com",
    "www.bing.com",
    "search.yahoo.com",
    "yandex.ru",
    "duckduckgo.com",
    "baidu.com",
    "go.mail.ru",
)


class ReferralKind(enum.Enum):
    SEARCH_ENGINE = "search-engine"
    EMBEDDED = "embedded-url"
    MALICIOUS_LINK = "malicious-link"


@dataclass
class WebPage:
    """A fetchable page: its category and the domains it links to."""

    url: str
    category: str = "forums-blogs"
    linked_domains: Set[str] = field(default_factory=set)


class WebFilter:
    """Referrer classifier over a registry of known pages."""

    def __init__(self) -> None:
        self._pages: Dict[str, WebPage] = {}

    def register_page(self, page: WebPage) -> None:
        self._pages[_normalize(page.url)] = page

    def fetch(self, url: str) -> Optional[WebPage]:
        """Simulated cURL fetch of the referring page."""
        return self._pages.get(_normalize(url))

    def classify(self, referer_url: str, our_domain: str) -> ReferralKind:
        """Classify one Referer against the domain it referred to."""
        host = _host_of(referer_url)
        if host in SEARCH_ENGINE_HOSTS or any(
            host.endswith("." + s) for s in SEARCH_ENGINE_HOSTS
        ):
            return ReferralKind.SEARCH_ENGINE
        page = self.fetch(referer_url)
        if page is not None and our_domain.lower() in page.linked_domains:
            return ReferralKind.EMBEDDED
        return ReferralKind.MALICIOUS_LINK

    def __len__(self) -> int:
        return len(self._pages)


def _normalize(url: str) -> str:
    lowered = url.lower()
    for scheme in ("https://", "http://"):
        if lowered.startswith(scheme):
            lowered = lowered[len(scheme):]
            break
    return lowered.rstrip("/")


def _host_of(url: str) -> str:
    return _normalize(url).split("/", 1)[0]
