"""Top-level-domain registry.

The paper's §4.3 analysis groups NXDomains by TLD and contrasts gTLDs
with country-code TLDs.  This module carries a curated registry of the
TLDs that matter for that analysis (the top gTLDs and ccTLDs by
registration volume as of the study window) plus classification
helpers.  The workload generators draw TLDs for synthetic names from
this registry with the popularity weights of Figure 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.dns.name import DomainName
from repro.errors import ConfigError

#: Generic TLDs, ordered roughly by registration volume.
GENERIC_TLDS: Tuple[str, ...] = (
    "com",
    "net",
    "org",
    "info",
    "xyz",
    "top",
    "site",
    "online",
    "biz",
    "club",
    "shop",
    "vip",
    "work",
    "app",
    "dev",
    "io",
    "me",
    "cc",
    "tv",
    "pro",
    "name",
    "mobi",
    "moda",
    "gq",
    "tk",
    "ml",
    "cf",
    "ga",
)

#: Country-code TLDs, ordered roughly by registration volume.  The top
#: five ccTLDs of the study window (.cn .ru .de .uk .nl per Domain Name
#: Stat) all appear in the paper's top-20 NXDomain TLD list.
COUNTRY_TLDS: Tuple[str, ...] = (
    "cn",
    "ru",
    "de",
    "uk",
    "nl",
    "br",
    "fr",
    "eu",
    "it",
    "au",
    "pl",
    "in",
    "jp",
    "kr",
    "us",
    "ca",
    "es",
    "ch",
    "se",
    "tw",
)

#: Infrastructure / special-use TLDs that the study excludes.
SPECIAL_TLDS: Tuple[str, ...] = ("arpa", "local", "localhost", "internal", "test")


@dataclass(frozen=True)
class TldInfo:
    """Metadata for one TLD."""

    name: str
    is_country_code: bool
    is_special: bool = False


class TldRegistry:
    """Lookup table over the known TLDs.

    >>> registry = TldRegistry.default()
    >>> registry.is_country_code("cn")
    True
    >>> registry.classify(DomainName("example.com")).name
    'com'
    """

    def __init__(self, infos: Iterable[TldInfo]) -> None:
        self._by_name: Dict[str, TldInfo] = {}
        for info in infos:
            if info.name in self._by_name:
                raise ConfigError(f"duplicate TLD {info.name!r}")
            self._by_name[info.name] = info

    @classmethod
    def default(cls) -> "TldRegistry":
        """The registry used throughout the study."""
        infos = [TldInfo(t, is_country_code=False) for t in GENERIC_TLDS]
        infos += [TldInfo(t, is_country_code=True) for t in COUNTRY_TLDS]
        infos += [
            TldInfo(t, is_country_code=False, is_special=True) for t in SPECIAL_TLDS
        ]
        return cls(infos)

    def __contains__(self, tld: str) -> bool:
        return tld.lower() in self._by_name

    def __len__(self) -> int:
        return len(self._by_name)

    def get(self, tld: str) -> Optional[TldInfo]:
        """Metadata for ``tld``, or None when unknown."""
        return self._by_name.get(tld.lower())

    def classify(self, name: DomainName) -> Optional[TldInfo]:
        """Metadata for the TLD of ``name``, or None when unknown."""
        return self.get(name.tld)

    def is_country_code(self, tld: str) -> bool:
        info = self.get(tld)
        return bool(info and info.is_country_code)

    def is_special(self, tld: str) -> bool:
        info = self.get(tld)
        return bool(info and info.is_special)

    def all_tlds(self, include_special: bool = False) -> List[str]:
        """All registered TLD strings, generic first then ccTLDs."""
        return [
            info.name
            for info in self._by_name.values()
            if include_special or not info.is_special
        ]
