"""The traffic categorizer of Figure 11 / Table 1.

Requests are classified by four header signals in order — ① Referer,
② User-Agent, ③ Requested URL, ④ Source IP — into the paper's four
major groups with nine subcategories:

==================  ======================================
Web Crawler         Search Engine / File Grabber
Automated Process   Script & Software / Malicious Request
Referral            Search Engine / Embedded URL / Malicious Link
User Visit          PC & Mobile / In-App Browser
Others              (everything unattributable)
==================  ======================================

The categorizer works on a :class:`~repro.honeypot.batch.RequestBatch`
(:meth:`TrafficCategorizer.categorize_batch`).  A run sees a few dozen
distinct User-Agents and a few thousand distinct URIs spread over tens
of thousands of requests, so each signal is evaluated once per
distinct value — User-Agent → agent kind and name, (path, query) →
NVD verdict, page extension and bare-root test, (Referer, Host) →
web-filter verdict, and, for undeclared agents only, source IP →
PTR-attested crawler — and the Figure 11 order of precedence is one
vector select over the rows.  Stream reclassification counts
(source IP, URI) pairs with ``np.unique``.  The result is a
:class:`CategorizedBatch` of category and subcategory codes, which
Table 1 and the §6 figures count directly.

Each :class:`TrafficCategorizer` parses a User-Agent string once and
its :class:`~repro.honeypot.nvd.VulnerabilityDatabase` judges a
(path, query) once.  Both memos belong to their instance and die with
it; nothing is shared across categorizers.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional

import numpy as np

from repro.honeypot.batch import RequestBatch, StrColumn, pair_codes
from repro.honeypot.http import PAGE_EXTENSIONS, path_extension
from repro.honeypot.nvd import VulnerabilityDatabase
from repro.honeypot.reverse_ip import ReverseIpTable
from repro.honeypot.useragent import AgentKind, UserAgentInfo, parse_user_agent
from repro.honeypot.webfilter import ReferralKind, WebFilter


class Category(enum.Enum):
    WEB_CRAWLER = "web-crawler"
    AUTOMATED = "automated-process"
    REFERRAL = "referral"
    USER_VISIT = "user-visit"
    OTHERS = "others"


class Subcategory(enum.Enum):
    # Web crawler
    SEARCH_ENGINE = "search-engine"
    FILE_GRABBER = "file-grabber"
    # Automated process
    SCRIPT_SOFTWARE = "script-software"
    MALICIOUS_REQUEST = "malicious-request"
    # Referral
    REFERRAL_SEARCH = "referral-search-engine"
    REFERRAL_EMBEDDED = "referral-embedded"
    REFERRAL_MALICIOUS = "referral-malicious-link"
    # User visit
    PC_MOBILE = "pc-mobile"
    INAPP = "in-app-browser"
    # Others
    OTHER = "other"


#: Table 1's column layout: category → its subcategories, in order.
TABLE1_COLUMNS = (
    (Category.WEB_CRAWLER, (Subcategory.SEARCH_ENGINE, Subcategory.FILE_GRABBER)),
    (
        Category.AUTOMATED,
        (Subcategory.SCRIPT_SOFTWARE, Subcategory.MALICIOUS_REQUEST),
    ),
    (
        Category.REFERRAL,
        (
            Subcategory.REFERRAL_SEARCH,
            Subcategory.REFERRAL_EMBEDDED,
            Subcategory.REFERRAL_MALICIOUS,
        ),
    ),
    (Category.USER_VISIT, (Subcategory.PC_MOBILE, Subcategory.INAPP)),
    (Category.OTHERS, (Subcategory.OTHER,)),
)


#: Code order of :attr:`CategorizedBatch.categories` and
#: :attr:`CategorizedBatch.subcategories`.
CATEGORIES = tuple(Category)
SUBCATEGORIES = tuple(Subcategory)
_CATEGORY_CODE = {category: code for code, category in enumerate(CATEGORIES)}
_SUBCATEGORY_CODE = {sub: code for code, sub in enumerate(SUBCATEGORIES)}
_KIND_CODE = {kind: code for code, kind in enumerate(AgentKind)}

_REFERRAL_SUBCATEGORY = {
    ReferralKind.SEARCH_ENGINE: _SUBCATEGORY_CODE[Subcategory.REFERRAL_SEARCH],
    ReferralKind.EMBEDDED: _SUBCATEGORY_CODE[Subcategory.REFERRAL_EMBEDDED],
    ReferralKind.MALICIOUS_LINK: _SUBCATEGORY_CODE[Subcategory.REFERRAL_MALICIOUS],
}

#: The branches of Figure 11, in order of precedence, and the category
#: each one assigns.
(
    _REFERRED,
    _DECLARED_CRAWLER,
    _PTR_CRAWLER,
    _INAPP,
    _BROWSER,
    _SCRIPT,
    _MALICIOUS_URI,
    _NON_ROOT_URI,
    _UNATTRIBUTED,
) = range(9)
_BRANCH_CATEGORY = np.array(
    [
        _CATEGORY_CODE[category]
        for category in (
            Category.REFERRAL,
            Category.WEB_CRAWLER,
            Category.WEB_CRAWLER,
            Category.USER_VISIT,
            Category.USER_VISIT,
            Category.AUTOMATED,
            Category.AUTOMATED,
            Category.AUTOMATED,
            Category.OTHERS,
        )
    ],
    dtype=np.int8,
)


class CategorizedBatch:
    """A :class:`RequestBatch` with each row's classification as codes.

    ``categories`` and ``subcategories`` index :data:`CATEGORIES` and
    :data:`SUBCATEGORIES`; ``agent_names`` holds each row's agent name
    (``""`` where the categorizer names none).
    """

    __slots__ = ("requests", "categories", "subcategories", "agent_names")

    def __init__(
        self,
        requests: RequestBatch,
        categories: np.ndarray,
        subcategories: np.ndarray,
        agent_names: StrColumn,
    ) -> None:
        self.requests = requests
        self.categories = categories
        self.subcategories = subcategories
        self.agent_names = agent_names

    def __len__(self) -> int:
        return len(self.categories)

    def rows_of(self, subcategory: Subcategory) -> np.ndarray:
        """Mask of the rows classified as ``subcategory``."""
        return self.subcategories == _SUBCATEGORY_CODE[subcategory]

    def subcategory_counts(
        self, rows: Optional[np.ndarray] = None
    ) -> Dict[Subcategory, int]:
        """Requests per subcategory over ``rows`` (all rows by default)."""
        codes = self.subcategories if rows is None else self.subcategories[rows]
        counts = np.bincount(codes, minlength=len(SUBCATEGORIES)).tolist()
        return dict(zip(SUBCATEGORIES, counts))

    def category_counts(self) -> Dict[Category, int]:
        counts = np.bincount(self.categories, minlength=len(CATEGORIES)).tolist()
        return dict(zip(CATEGORIES, counts))


class TrafficCategorizer:
    """Implements the Figure 11 decision pipeline."""

    def __init__(
        self,
        nvd: Optional[VulnerabilityDatabase] = None,
        reverse_ip: Optional[ReverseIpTable] = None,
        web_filter: Optional[WebFilter] = None,
    ) -> None:
        self.nvd = nvd if nvd is not None else VulnerabilityDatabase()
        self.reverse_ip = reverse_ip if reverse_ip is not None else ReverseIpTable()
        self.web_filter = web_filter if web_filter is not None else WebFilter()
        self._agents: Dict[str, UserAgentInfo] = {}

    def _agent(self, user_agent: str) -> UserAgentInfo:
        """``parse_user_agent``, once per distinct string."""
        agent = self._agents.get(user_agent)
        if agent is None:
            agent = self._agents[user_agent] = parse_user_agent(user_agent)
        return agent

    def categorize_batch(
        self,
        batch: RequestBatch,
        stream_threshold: Optional[int] = 50,
    ) -> CategorizedBatch:
        """Classify every row, then apply stream reclassification.

        §6.3 observes that automated processes "have a repetitive
        pattern, i.e. the same URIs are frequently and periodically
        accessed ... issued as streams, meaning that the same URI is
        requested multiple times by the same IP address" — including
        fleets presenting browser User-Agents (the status.json pollers
        of 1x-sport-bk7.com).  Any (source IP, URI) pair appearing at
        least ``stream_threshold`` times is therefore reclassified
        from User Visit to Automated Process.  Pass None to disable.
        """
        names: Dict[str, int] = {"": 0}

        def name_code(name: str) -> int:
            return names.setdefault(name, len(names))

        # ① Referer: a populated Referer means the visit was referred.
        referred = batch.referer.lookup(bool, bool)
        referral_pairs, referral_rows = pair_codes(batch.referer, batch.host)
        referral_sub = np.array(
            [
                _REFERRAL_SUBCATEGORY[self.web_filter.classify(referer, host)]
                if referer
                else 0
                for referer, host in referral_pairs
            ],
            dtype=np.int8,
        )[referral_rows]

        # ② User-Agent.
        kind = batch.user_agent.lookup(
            lambda agent: _KIND_CODE[self._agent(agent).kind], np.int8
        )
        agent_name = batch.user_agent.lookup(
            lambda agent: name_code(self._agent(agent).name)
        )

        # ③ Requested URL: the NVD verdict once per distinct (path,
        # query), the page and bare-root tests once per distinct part.
        uri_pairs, uri_rows = pair_codes(batch.path, batch.query)
        malicious = np.array(
            [self.nvd.is_malicious_uri(path, query) for path, query in uri_pairs],
            dtype=bool,
        )[uri_rows]
        page = batch.path.lookup(
            lambda path: path_extension(path) in PAGE_EXTENSIONS, bool
        )
        bare = batch.path.lookup(lambda path: path == "/", bool) & ~batch.query.lookup(
            bool, bool
        )

        # ④ (pulled forward, as the paper does for crawler attestation):
        # an undeclared UA whose source PTR is a major crawler service.
        ptr_crawler = (kind == _KIND_CODE[AgentKind.UNKNOWN]) & ~referred
        service_name = np.zeros(len(batch), dtype=np.int64)
        if ptr_crawler.any():
            rows = np.flatnonzero(ptr_crawler)
            attested = batch.src_ip.take(rows).lookup(
                self.reverse_ip.is_known_crawler, bool
            )
            ptr_crawler[rows] = attested
            rows = rows[attested]
            service_name[rows] = batch.src_ip.take(rows).lookup(
                lambda ip: name_code(self.reverse_ip.service_of(ip) or "")
            )

        branch = np.select(
            [
                referred,
                (kind == _KIND_CODE[AgentKind.CRAWLER])
                | (kind == _KIND_CODE[AgentKind.EMAIL_CRAWLER]),
                ptr_crawler,
                kind == _KIND_CODE[AgentKind.INAPP_BROWSER],
                kind == _KIND_CODE[AgentKind.BROWSER],
                kind == _KIND_CODE[AgentKind.SCRIPT],
                malicious,
                ~bare,
            ],
            list(range(_UNATTRIBUTED)),
            default=_UNATTRIBUTED,
        )
        crawler_sub = np.where(
            page,
            _SUBCATEGORY_CODE[Subcategory.SEARCH_ENGINE],
            _SUBCATEGORY_CODE[Subcategory.FILE_GRABBER],
        )
        automated_sub = np.where(
            malicious,
            _SUBCATEGORY_CODE[Subcategory.MALICIOUS_REQUEST],
            _SUBCATEGORY_CODE[Subcategory.SCRIPT_SOFTWARE],
        )
        categories = _BRANCH_CATEGORY[branch]
        subcategories = _by_branch(
            branch,
            [
                referral_sub,
                crawler_sub,
                crawler_sub,
                _SUBCATEGORY_CODE[Subcategory.INAPP],
                _SUBCATEGORY_CODE[Subcategory.PC_MOBILE],
                automated_sub,
                _SUBCATEGORY_CODE[Subcategory.MALICIOUS_REQUEST],
                _SUBCATEGORY_CODE[Subcategory.SCRIPT_SOFTWARE],
                _SUBCATEGORY_CODE[Subcategory.OTHER],
            ],
            np.int8,
        )
        agent_names = _by_branch(
            branch,
            [0, agent_name, service_name, agent_name, agent_name, agent_name, 0, 0, 0],
            np.int64,
        )

        if stream_threshold is not None and len(batch):
            uris = batch.uris()
            pairs = batch.src_ip.codes * len(uris.values) + uris.codes
            _, inverse, counts = np.unique(
                pairs, return_inverse=True, return_counts=True
            )
            streamed = (categories == _CATEGORY_CODE[Category.USER_VISIT]) & (
                counts[inverse.reshape(-1)] >= stream_threshold
            )
            categories[streamed] = _CATEGORY_CODE[Category.AUTOMATED]
            subcategories[streamed] = automated_sub[streamed]
        return CategorizedBatch(
            batch, categories, subcategories, StrColumn(agent_names, tuple(names))
        )


def _by_branch(branch: np.ndarray, choices: list, dtype) -> np.ndarray:
    """Per row, ``choices[branch]`` — a constant, or that row of an array."""
    out = np.empty(len(branch), dtype=dtype)
    for index, choice in enumerate(choices):
        rows = branch == index
        out[rows] = choice[rows] if isinstance(choice, np.ndarray) else choice
    return out

