"""The 19 registered NXDomains and their Table 1 traffic profiles.

This module transcribes Table 1 of the paper — HTTP/HTTPS requests per
category received by each registered domain over the 6-month
collection — and wraps it as generator calibration: the honeypot
traffic generator scales these counts and emits requests whose
header-level classification reproduces them.

Domain name fidelity note: the paper prints ``twitter-supOrt.com``
(capital O) in the table; the running text and the squatting analysis
make clear it is the digit-zero combosquat ``twitter-sup0rt.com``,
which is what we use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.honeypot.categorize import Subcategory
from repro.errors import ConfigError

#: Column order of Table 1.
TABLE1_FIELDS: Tuple[Subcategory, ...] = (
    Subcategory.SEARCH_ENGINE,
    Subcategory.FILE_GRABBER,
    Subcategory.SCRIPT_SOFTWARE,
    Subcategory.MALICIOUS_REQUEST,
    Subcategory.REFERRAL_SEARCH,
    Subcategory.REFERRAL_EMBEDDED,
    Subcategory.REFERRAL_MALICIOUS,
    Subcategory.PC_MOBILE,
    Subcategory.INAPP,
    Subcategory.OTHER,
)

#: Table 1 verbatim: domain → (counts per TABLE1_FIELDS, malicious?).
#: The paper highlights 8 of the 19 domains as malicious.
PAPER_TABLE1: Dict[str, Tuple[Tuple[int, ...], bool]] = {
    "resheba.online": ((15_223, 105_221, 1_866_523, 52_263, 1_052, 655, 265, 56, 20, 55_874), False),
    "1x-sport-bk7.com": ((4_058, 328, 1_215_606, 725, 3_054, 143, 522, 2_952, 43, 15_428), False),
    "fanserials.moda": ((2_536, 5_622, 996_968, 6_225, 1_556, 4_112, 2_189, 106, 122, 4_071), False),
    "gpclick.com": ((415, 144, 365, 939_420, 10_524, 248, 115, 1_014, 22, 5_014), True),
    "porno-komiksy.com": ((43_285, 105_412, 2_952, 7_441, 2_482, 10_244, 3_052, 25_112, 1_825, 4_552), False),
    "conf-cdn.com": ((2_653, 55_842, 10_228, 1_699, 3_455, 2_568, 623, 2_004, 652, 11_957), True),
    "pro100diplom.com": ((796, 48_868, 16_500, 9_734, 83, 261, 53, 351, 108, 1_026), False),
    "yebeda.org": ((5_509, 25_742, 26_564, 2_094, 1_993, 351, 314, 205, 30, 4_625), False),
    "oboru.work": ((1_052, 49_954, 2_651, 6_048, 50, 366, 30, 4_852, 66, 501), False),
    "kinopack.org": ((1_205, 5_624, 6_401, 3_255, 1_054, 213, 201, 83, 304, 522), False),
    "sfscl.info": ((421, 10_566, 2_946, 1_098, 152, 62, 97, 401, 65, 957), True),
    "ipservl.net": ((2_016, 7_815, 3_297, 1_552, 336, 105, 78, 105, 63, 1_192), True),
    "cservll.net": ((1_487, 263, 92, 65, 2_055, 263, 102, 198, 105, 6_234), True),
    "ipserv2.net": ((323, 52, 144, 1_486, 203, 96, 58, 98, 86, 6_811), True),
    "redirectmyquery.com": ((266, 128, 62, 1_547, 269, 75, 63, 188, 42, 5_022), False),
    "adrenali.gq": ((1_089, 357, 215, 98, 52, 144, 82, 1_096, 65, 3_054), False),
    "dns2.name": ((396, 88, 105, 93, 835, 35, 56, 48, 51, 3_987), False),
    "akamai-technology.com": ((86, 85, 85, 196, 65, 88, 352, 620, 73, 672), True),
    "twitter-sup0rt.com": ((126, 185, 58, 57, 107, 63, 65, 118, 66, 589), True),
}

#: The paper's totals, used by shape assertions.
PAPER_TOTAL_REQUESTS = 5_925_311
PAPER_CRAWLER_TOTAL = 505_238        # 82,942 search + 422,296 grabber
PAPER_AUTOMATED_TOTAL = 5_186_858    # 4,151,762 script + 1,035,096 malicious


@dataclass(frozen=True)
class RegisteredDomainProfile:
    """Calibration for one registered domain's traffic generator."""

    domain: str
    malicious: bool
    counts: Dict[Subcategory, int]
    #: Regional flavour of the domain's search/crawl ecosystem
    #: ("ru" domains attract mail.ru, "us" Google/Bing — §6.3).
    region: str = "us"
    #: Whether the file-grabber traffic is dominated by email-provider
    #: image crawlers (the conf-cdn.com pattern: 95.1%).
    email_crawler_heavy: bool = False
    #: Whether the script traffic is a fixed-UA status.json polling
    #: fleet (the 1x-sport-bk7.com pattern).
    polling_fleet: bool = False
    #: Whether malicious requests are the gpclick botnet (getTask.php).
    botnet_target: bool = False

    def total(self) -> int:
        return sum(self.counts.values())

    def scaled_counts(self, scale: float) -> Dict[Subcategory, int]:
        """Counts multiplied by ``scale``, rounded, floor 1 for nonzero."""
        if scale <= 0:
            raise ConfigError("scale must be positive")
        scaled = {}
        for subcategory, count in self.counts.items():
            value = int(round(count * scale))
            if count > 0 and value == 0:
                value = 1
            scaled[subcategory] = value
        return scaled


_REGIONS = {
    "resheba.online": "ru",
    "1x-sport-bk7.com": "ru",
    "fanserials.moda": "ru",
    "porno-komiksy.com": "ru",
    "pro100diplom.com": "ru",
    "yebeda.org": "ru",
    "oboru.work": "ru",
    "kinopack.org": "ru",
}


def registered_domain_profiles() -> List[RegisteredDomainProfile]:
    """All 19 domain profiles, in Table 1 (traffic-volume) order."""
    profiles = []
    for domain, (row, malicious) in PAPER_TABLE1.items():
        counts = dict(zip(TABLE1_FIELDS, row))
        profiles.append(
            RegisteredDomainProfile(
                domain=domain,
                malicious=malicious,
                counts=counts,
                region=_REGIONS.get(domain, "us"),
                email_crawler_heavy=(domain == "conf-cdn.com"),
                polling_fleet=(domain == "1x-sport-bk7.com"),
                botnet_target=(domain == "gpclick.com"),
            )
        )
    return profiles
