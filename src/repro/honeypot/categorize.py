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

A run sees a few dozen distinct User-Agents and a few thousand
distinct URIs spread over tens of thousands of requests, so each
:class:`TrafficCategorizer` parses a User-Agent string once and its
:class:`~repro.honeypot.nvd.VulnerabilityDatabase` judges a
(path, query) once.  Both memos belong to their instance and die with
it; nothing is shared across categorizers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.honeypot.http import PAGE_EXTENSIONS, HttpRequest
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


@dataclass(frozen=True)
class CategorizedRequest:
    """One request with its classification."""

    request: HttpRequest
    category: Category
    subcategory: Subcategory
    agent_name: str = ""


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

    def categorize(self, request: HttpRequest) -> CategorizedRequest:
        """Classify one request."""
        # ① Referer: a populated Referer means the visit was referred.
        if request.referer:
            kind = self.web_filter.classify(request.referer, request.host)
            subcategory = {
                ReferralKind.SEARCH_ENGINE: Subcategory.REFERRAL_SEARCH,
                ReferralKind.EMBEDDED: Subcategory.REFERRAL_EMBEDDED,
                ReferralKind.MALICIOUS_LINK: Subcategory.REFERRAL_MALICIOUS,
            }[kind]
            return CategorizedRequest(request, Category.REFERRAL, subcategory)

        # ② User-Agent.
        agent = self._agent(request.user_agent)
        if agent.kind in (AgentKind.CRAWLER, AgentKind.EMAIL_CRAWLER):
            return CategorizedRequest(
                request, Category.WEB_CRAWLER, self._crawler_subtype(request),
                agent.name,
            )
        # ④ (pulled forward, as the paper does for crawler attestation):
        # an undeclared UA whose source PTR is a major crawler service.
        if agent.kind == AgentKind.UNKNOWN and self.reverse_ip.is_known_crawler(
            request.src_ip
        ):
            return CategorizedRequest(
                request,
                Category.WEB_CRAWLER,
                self._crawler_subtype(request),
                self.reverse_ip.service_of(request.src_ip) or "",
            )
        if agent.kind == AgentKind.INAPP_BROWSER:
            return CategorizedRequest(
                request, Category.USER_VISIT, Subcategory.INAPP, agent.name
            )
        if agent.kind == AgentKind.BROWSER:
            return CategorizedRequest(
                request, Category.USER_VISIT, Subcategory.PC_MOBILE, agent.name
            )
        if agent.kind == AgentKind.SCRIPT:
            return CategorizedRequest(
                request,
                Category.AUTOMATED,
                self._automated_subtype(request),
                agent.name,
            )

        # ③ Requested URL: no usable UA — decide on the URI alone.
        if self.nvd.is_malicious_uri(request.path, request.query):
            return CategorizedRequest(
                request, Category.AUTOMATED, Subcategory.MALICIOUS_REQUEST
            )
        if request.path != "/" or request.has_query_string:
            return CategorizedRequest(
                request, Category.AUTOMATED, Subcategory.SCRIPT_SOFTWARE
            )
        # Bare "/" with no UA and no referral: unattributable.
        return CategorizedRequest(request, Category.OTHERS, Subcategory.OTHER)

    def categorize_many(
        self,
        requests: Iterable[HttpRequest],
        stream_threshold: Optional[int] = 50,
    ) -> List[CategorizedRequest]:
        """Classify a batch, then apply stream reclassification.

        §6.3 observes that automated processes "have a repetitive
        pattern, i.e. the same URIs are frequently and periodically
        accessed ... issued as streams, meaning that the same URI is
        requested multiple times by the same IP address" — including
        fleets presenting browser User-Agents (the status.json pollers
        of 1x-sport-bk7.com).  Any (source IP, URI) pair appearing at
        least ``stream_threshold`` times is therefore reclassified
        from User Visit to Automated Process.  Pass None to disable.
        """
        categorized = [self.categorize(request) for request in requests]
        if stream_threshold is None:
            return categorized
        keys = [(item.request.src_ip, item.request.uri) for item in categorized]
        pair_counts: Dict[tuple, int] = {}
        for key in keys:
            pair_counts[key] = pair_counts.get(key, 0) + 1
        reclassified = []
        for item, key in zip(categorized, keys):
            if (
                item.category == Category.USER_VISIT
                and pair_counts[key] >= stream_threshold
            ):
                item = CategorizedRequest(
                    item.request,
                    Category.AUTOMATED,
                    self._automated_subtype(item.request),
                    item.agent_name,
                )
            reclassified.append(item)
        return reclassified

    # -- subtype helpers ---------------------------------------------------

    @staticmethod
    def _crawler_subtype(request: HttpRequest) -> Subcategory:
        """Search engines crawl pages; file grabbers fetch assets."""
        if request.extension in PAGE_EXTENSIONS:
            return Subcategory.SEARCH_ENGINE
        return Subcategory.FILE_GRABBER

    def _automated_subtype(self, request: HttpRequest) -> Subcategory:
        if self.nvd.is_malicious_uri(request.path, request.query):
            return Subcategory.MALICIOUS_REQUEST
        return Subcategory.SCRIPT_SOFTWARE


def subcategory_counts(
    categorized: Iterable[CategorizedRequest],
) -> Dict[Subcategory, int]:
    """Requests per subcategory (one Table 1 row's cells)."""
    counts: Dict[Subcategory, int] = {s: 0 for s in Subcategory}
    for item in categorized:
        counts[item.subcategory] += 1
    return counts


def category_counts(
    categorized: Iterable[CategorizedRequest],
) -> Dict[Category, int]:
    counts: Dict[Category, int] = {c: 0 for c in Category}
    for item in categorized:
        counts[item.category] += 1
    return counts
