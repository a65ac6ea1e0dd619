"""Popular target domains for squatting analysis.

Squatting attacks target high-traffic brands; the detector needs the
target list as input (the paper's commercial classifier embeds one).
This synthetic top list mixes global platforms with the regional
services that show up in the paper's honeypot table (Russian search
and hosting properties, mail providers, CDNs).
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.dns.name import DomainName

#: (label, tld) pairs, roughly by global popularity.
_TOP_SITES: Tuple[Tuple[str, str], ...] = (
    ("google", "com"),
    ("youtube", "com"),
    ("facebook", "com"),
    ("twitter", "com"),
    ("instagram", "com"),
    ("wikipedia", "org"),
    ("yahoo", "com"),
    ("amazon", "com"),
    ("whatsapp", "com"),
    ("netflix", "com"),
    ("live", "com"),
    ("office", "com"),
    ("linkedin", "com"),
    ("reddit", "com"),
    ("vk", "com"),
    ("mail", "ru"),
    ("yandex", "ru"),
    ("baidu", "com"),
    ("qq", "com"),
    ("taobao", "com"),
    ("ebay", "com"),
    ("paypal", "com"),
    ("apple", "com"),
    ("microsoft", "com"),
    ("github", "com"),
    ("akamai", "com"),
    ("cloudflare", "com"),
    ("dropbox", "com"),
    ("spotify", "com"),
    ("telegram", "org"),
    ("tiktok", "com"),
    ("zoom", "us"),
    ("wordpress", "com"),
    ("adobe", "com"),
    ("bing", "com"),
    ("twitch", "tv"),
    ("steam", "com"),
    ("booking", "com"),
    ("aliexpress", "com"),
    ("wechat", "com"),
)


class PopularDomains:
    """The target list a squatting detector defends.

    >>> targets = PopularDomains.default()
    >>> DomainName("google.com") in targets
    True
    """

    def __init__(self, domains: List[DomainName]) -> None:
        self._domains = list(domains)
        self._set = set(domains)
        self._labels = {d.sld: d for d in domains}

    @classmethod
    def default(cls) -> "PopularDomains":
        return cls([DomainName(f"{label}.{tld}") for label, tld in _TOP_SITES])

    def __contains__(self, domain: DomainName) -> bool:
        return domain.registered_domain() in self._set

    def __iter__(self) -> Iterator[DomainName]:
        return iter(self._domains)

    def __len__(self) -> int:
        return len(self._domains)

    def labels(self) -> List[str]:
        """The brand labels (SLDs) of all targets."""
        return [d.sld for d in self._domains]

    def by_label(self, label: str) -> DomainName:
        """The target domain carrying ``label`` (KeyError when absent)."""
        return self._labels[label]
