"""The gpclick.com botnet (Figures 12, 14, 15).

gpclick.com — an NXDomain for years, previously a mobile-malware C&C
first reported in 2013 — received 939,420 requests during the study,
98.1% of its traffic: infected Android handsets polling
``/getTask.php`` with their IMEI, phone number, country code, and model
in the query string (Figure 12), all with the User-Agent
``Apache-HttpClient/UNAVAILABLE (java 1.4)``, routed through cloud
proxy infrastructure dominated by google-proxy hosts (56.1%,
Figure 15), with victims spread across ~40 phone models (Nexus 5X
55.9%, Nexus 5 42.3%) and country codes on four continents (Figure 14).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.honeypot.batch import RequestBatch
from repro.honeypot.reverse_ip import ReverseIpTable
from repro.workloads.ipspace import make_pool
from repro.errors import ConfigError
from repro.rand import WeightedTable

BOTNET_USER_AGENT = "Apache-HttpClient/UNAVAILABLE (java 1.4)"
TASK_PATH = "/getTask.php"

#: (country name, calling code, continent, weight) — Figure 14's
#: distribution: a handful of countries dominate, with a long tail
#: across Europe, Asia, the Americas, and Oceania.
COUNTRY_CODES: Tuple[Tuple[str, str, str, float], ...] = (
    ("ru", "+7", "Europe", 34.0),
    ("us", "+1", "America", 14.0),
    ("uy", "+598", "America", 9.0),
    ("nl", "+31", "Europe", 8.0),
    ("cn", "+86", "Asia", 7.0),
    ("ua", "+380", "Europe", 6.0),
    ("de", "+49", "Europe", 5.0),
    ("kz", "+7", "Asia", 4.0),
    ("br", "+55", "America", 3.0),
    ("in", "+91", "Asia", 2.5),
    ("id", "+62", "Asia", 2.0),
    ("pl", "+48", "Europe", 1.5),
    ("fr", "+33", "Europe", 1.2),
    ("au", "+61", "Oceania", 1.0),
    ("mx", "+52", "America", 0.8),
    ("nz", "+64", "Oceania", 0.3),
)

#: Phone models: Nexus 5X 55.9%, Nexus 5 42.3%, 1.8% across the rest.
PHONE_MODELS: Tuple[Tuple[str, float], ...] = (
    ("Nexus 5X", 55.9),
    ("Nexus 5", 42.3),
    ("Samsung Galaxy S5", 0.3),
    ("LG G3", 0.25),
    ("Vivo Y51", 0.2),
    ("HTC One M8", 0.2),
    ("HUAWEI P8", 0.2),
    ("XiaoMi Mi4", 0.2),
    ("Motorola Moto G", 0.15),
    ("Samsung Galaxy Note 4", 0.1),
    ("LG G4", 0.1),
    ("HUAWEI Mate 7", 0.1),
)

#: Proxy infrastructure: google-proxy dominates (56.1%, Figure 15).
PROXY_POOLS: Tuple[Tuple[str, float], ...] = (
    ("google-proxy", 56.1),
    ("aws-cloud", 18.0),
    ("hetzner-cloud", 12.0),
    ("digitalocean-cloud", 8.0),
    ("ovh-cloud", 5.9),
)

#: Samplers over the three pools.  Each keeps the normalization its
#: original ``rng.choice(p=...)`` call used (the countries by Python
#: ``sum``, the others by ``ndarray.sum``), so the CDFs — and therefore
#: every seeded draw — are bit-identical to it.
_COUNTRY_TABLE = WeightedTable(
    COUNTRY_CODES,
    np.asarray([w for *_, w in COUNTRY_CODES])
    / sum(w for *_, w in COUNTRY_CODES),
)
_MODEL_WEIGHTS = np.asarray([w for _, w in PHONE_MODELS])
_MODEL_TABLE = WeightedTable(
    [m for m, _ in PHONE_MODELS], _MODEL_WEIGHTS / _MODEL_WEIGHTS.sum()
)
_PROXY_WEIGHTS = np.asarray([w for _, w in PROXY_POOLS])
_PROXY_TABLE = WeightedTable(
    [n for n, _ in PROXY_POOLS], _PROXY_WEIGHTS / _PROXY_WEIGHTS.sum()
)


class GpclickBotnet:
    """Generates the getTask.php polling traffic of gpclick.com."""

    def __init__(
        self,
        rng: np.random.Generator,
        reverse_ip: Optional[ReverseIpTable] = None,
        host: str = "gpclick.com",
    ) -> None:
        self.rng = rng
        self.host = host
        self._pools = {
            name: make_pool(name, rng, reverse_ip) for name, _ in PROXY_POOLS
        }

    # -- victim synthesis -------------------------------------------------

    def _imei(self) -> str:
        """An anonymized IMEI in the paper's redacted A-BBBBBB-CCCCCC-D shape."""
        tac = int(self.rng.integers(100_000, 999_999))
        serial = int(self.rng.integers(100_000, 999_999))
        check = int(self.rng.integers(0, 10))
        return f"{int(self.rng.integers(1, 10))}-{tac}-{serial}-{check}"

    def _victim(self) -> Tuple[str, str, str, str]:
        """(country, phone, model, continent) for one infected handset."""
        country, calling_code, continent, _ = _COUNTRY_TABLE.draw(self.rng)
        subscriber = int(self.rng.integers(1_000_000_000, 9_999_999_999))
        phone = f"{calling_code}{subscriber}"
        model = _MODEL_TABLE.draw(self.rng)
        return country, phone, model, continent

    def _source_ip(self) -> str:
        return self._pools[_PROXY_TABLE.draw(self.rng)].address()

    # -- request generation ----------------------------------------------------

    def _query(self) -> str:
        """One poll's getTask.php query string (Figure 12's URL structure)."""
        country, phone, model, _ = self._victim()
        mnc = int(self.rng.integers(1, 999))
        mcc = int(self.rng.integers(200, 750))
        return (
            f"imei={self._imei()}&balance=0&country={country}"
            f"&phone={phone}&op=Android&mnc={mnc}&mcc={mcc}"
            f"&model={model.replace(' ', '%20')}&os=23"
        )

    def batch(self, count: int, start: int, end: int) -> RequestBatch:
        """``count`` polls spread uniformly over [start, end), time-ordered."""
        if count < 0:
            raise ConfigError("count must be non-negative")
        if end <= start:
            raise ConfigError("end must follow start")
        timestamps = np.sort(self.rng.integers(start, end, size=count))
        queries, ips = [], []
        for _ in range(count):
            queries.append(self._query())
            ips.append(self._source_ip())
        return RequestBatch.of(
            timestamps,
            src_ip=ips,
            host=self.host,
            path=TASK_PATH,
            query=queries,
            user_agent=BOTNET_USER_AGENT,
            port=80,
        )


def continent_of_country(country: str) -> Optional[str]:
    """Continent attribution for Figure 14's grouping."""
    for name, _, continent, _ in COUNTRY_CODES:
        if name == country:
            return continent
    return None
