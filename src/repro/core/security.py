"""§6 — security implications via the NXD-Honeypot.

Runs the complete §6 deployment end to end: generate six months of raw
traffic for the 19 registered domains (plus contamination), run the two
calibration deployments, learn the Figure 9 filter, record everything
in the honeypot, and derive the evaluation artifacts:

- :attr:`SecurityRunResult.table1` — the per-domain categorization;
- :func:`port_distribution` — Figures 10a/10b;
- :func:`inapp_browser_distribution` — Figure 13;
- :func:`botnet_country_distribution` — Figure 14;
- :func:`botnet_hostname_distribution` — Figure 15;
- :func:`botnet_victim_analysis` — the §6.4 botnet-takeover findings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.honeypot.categorize import (
    CategorizedRequest,
    Category,
    Subcategory,
    TrafficCategorizer,
    category_counts,
)
from repro.honeypot.filtering import FilterStats, TwoStageFilter
from repro.honeypot.recorder import TrafficRecorder
from repro.honeypot.reverse_ip import ReverseIpTable
from repro.honeypot.server import HoneypotReport, NxdHoneypot
from repro.honeypot.webfilter import WebFilter
from repro.workloads.botnet import TASK_PATH, continent_of_country
from repro.workloads.control import (
    generate_control_traffic,
    generate_no_hosting_baseline,
    generate_platform_packets,
)
from repro.workloads.domains import registered_domain_profiles
from repro.workloads.honeytraffic import HoneypotTrafficGenerator


@dataclass
class SecurityRunResult:
    """Everything §6's figures read."""

    honeypot: NxdHoneypot
    no_hosting: TrafficRecorder
    control_group: TrafficRecorder
    noise_filter: TwoStageFilter
    filter_stats: FilterStats
    categorized: List[CategorizedRequest]
    table1: List[HoneypotReport]
    reverse_ip: ReverseIpTable

    def total_requests(self) -> int:
        return self.filter_stats.input_requests

    def category_totals(self) -> Dict[Category, int]:
        return category_counts(self.categorized)

    def shape_checks(self) -> Dict[str, bool]:
        """Table 1's qualitative shape."""
        totals = self.category_totals()
        ordered = sorted(totals, key=totals.get, reverse=True)
        by_domain = {report.domain: report.total for report in self.table1}
        return {
            "automated-largest": ordered[0] == Category.AUTOMATED,
            "crawler-substantial": totals[Category.WEB_CRAWLER]
            > totals[Category.USER_VISIT],
            "resheba-top-domain": self.table1[0].domain == "resheba.online",
            "gpclick-mostly-malicious": _gpclick_malicious_share(self.table1) > 0.9,
            "all-19-domains-reported": len(by_domain) == 19,
        }


def _gpclick_malicious_share(table1: List[HoneypotReport]) -> float:
    for report in table1:
        if report.domain == "gpclick.com" and report.total:
            return report.count(Subcategory.MALICIOUS_REQUEST) / report.total
    return 0.0


def run_security_experiment(
    rng: np.random.Generator,
    scale: float = 0.005,
    include_noise: bool = True,
) -> SecurityRunResult:
    """The full §6 pipeline, from raw traffic to Table 1."""
    reverse_ip = ReverseIpTable()
    web_filter = WebFilter()
    profiles = registered_domain_profiles()

    # Calibration deployments (two months each, §6.1).
    no_hosting = generate_no_hosting_baseline(rng, packets=3_000)
    control_group = generate_control_traffic(rng, requests=1_500)

    # The main collection (six months).
    generator = HoneypotTrafficGenerator(
        rng, scale=scale, reverse_ip=reverse_ip, web_filter=web_filter
    )
    categorizer = TrafficCategorizer(reverse_ip=reverse_ip, web_filter=web_filter)
    honeypot = NxdHoneypot([p.domain for p in profiles], categorizer)
    for request in generator.generate(include_noise=include_noise):
        honeypot.accept_request(request)
    if include_noise:
        for packet in generate_platform_packets(rng, count=2_000):
            honeypot.accept_packet(packet)

    honeypot.calibrate(no_hosting, control_group)
    kept, stats = honeypot.filtered_requests()
    categorized = categorizer.categorize_many(kept)
    table1 = honeypot.reports_from(categorized)
    return SecurityRunResult(
        honeypot=honeypot,
        no_hosting=no_hosting,
        control_group=control_group,
        noise_filter=honeypot.noise_filter,
        filter_stats=stats,
        categorized=categorized,
        table1=table1,
        reverse_ip=reverse_ip,
    )


# ---------------------------------------------------------------------------
# Figure 10 — port distributions
# ---------------------------------------------------------------------------


@dataclass
class PortDistribution:
    """Top ports for the honeypot (filtered) and the control group."""

    honeypot_ports: List[Tuple[int, int]]
    control_ports: List[Tuple[int, int]]

    def shape_checks(self) -> Dict[str, bool]:
        """Figure 10: 80/443 dominate the NXDomain traffic; the AWS
        monitor port dominates the control group but is absent from
        the filtered NXDomain view."""
        honeypot_top = [port for port, _ in self.honeypot_ports[:2]]
        control_top = self.control_ports[0][0] if self.control_ports else None
        return {
            "http-https-dominate": set(honeypot_top) == {80, 443},
            "monitor-port-dominates-control": control_top == 52646,
            "monitor-port-filtered-out": all(
                port != 52646 for port, _ in self.honeypot_ports
            ),
        }


def port_distribution(result: SecurityRunResult, top_n: int = 8) -> PortDistribution:
    """Figures 10a/10b from the two recorders, post-filtering."""
    filtered_packets = result.noise_filter.filter_packets(
        result.honeypot.recorder.packets()
    )
    histogram: Dict[int, int] = {}
    for packet in filtered_packets:
        histogram[packet.dst_port] = histogram.get(packet.dst_port, 0) + 1
    honeypot_ports = sorted(histogram.items(), key=lambda kv: kv[1], reverse=True)
    return PortDistribution(
        honeypot_ports=honeypot_ports[:top_n],
        control_ports=result.control_group.top_ports(top_n),
    )


# ---------------------------------------------------------------------------
# Traffic concentration (Table 1's skew)
# ---------------------------------------------------------------------------


@dataclass
class TrafficConcentration:
    """How skewed the per-domain traffic distribution is.

    Table 1's totals are extremely concentrated — resheba.online alone
    holds ~35% of all requests and the top three domains ~74% — which
    is why the paper can study 19 domains and still capture most of
    the traffic phenomenon.
    """

    totals: List[int]

    @property
    def grand_total(self) -> int:
        return sum(self.totals)

    def top_share(self, k: int) -> float:
        if not self.totals or self.grand_total == 0:
            return 0.0
        ranked = sorted(self.totals, reverse=True)
        return sum(ranked[:k]) / self.grand_total

    def gini(self) -> float:
        """Gini coefficient of per-domain request counts."""
        values = sorted(self.totals)
        n = len(values)
        total = sum(values)
        if n == 0 or total == 0:
            return 0.0
        cumulative = 0
        weighted = 0
        for index, value in enumerate(values, start=1):
            cumulative += value
            weighted += cumulative
        # Standard formula: G = (n + 1 - 2 * sum(cum)/total) / n
        return (n + 1 - 2 * weighted / total) / n

    def shape_checks(self) -> Dict[str, bool]:
        return {
            "top1-over-25pct": self.top_share(1) > 0.25,
            "top3-over-60pct": self.top_share(3) > 0.60,
            "high-gini": self.gini() > 0.6,
        }


def traffic_concentration(result: SecurityRunResult) -> TrafficConcentration:
    return TrafficConcentration([report.total for report in result.table1])


# ---------------------------------------------------------------------------
# §6.3 narrative findings — email crawlers and regional search engines
# ---------------------------------------------------------------------------


@dataclass
class EmailCrawlerBreakdown:
    """§6.3: conf-cdn.com's file-grabber traffic is email providers.

    Paper: 53,094 of conf-cdn.com's file-grabber requests (95.1%) come
    from email-provider image crawlers — Gmail 30,884, Yahoo 13,528,
    Outlook 5,483 — implying the domain's assets are still embedded in
    circulating email.
    """

    domain: str
    file_grabber_total: int
    email_crawler_total: int
    by_provider: Dict[str, int]

    @property
    def email_share(self) -> float:
        if self.file_grabber_total == 0:
            return 0.0
        return self.email_crawler_total / self.file_grabber_total

    def shape_checks(self) -> Dict[str, bool]:
        gmail = self.by_provider.get("GmailImageProxy", 0)
        others = [
            count
            for name, count in self.by_provider.items()
            if name != "GmailImageProxy"
        ]
        return {
            "email-dominates-grabbers": self.email_share > 0.85,
            "gmail-largest-provider": bool(self.by_provider)
            and gmail >= max(others, default=0),
        }


def email_crawler_breakdown(
    result: SecurityRunResult, domain: str = "conf-cdn.com"
) -> EmailCrawlerBreakdown:
    """Provider split of one domain's file-grabber traffic."""
    from repro.honeypot.useragent import AgentKind, parse_user_agent

    lowered = domain.lower()
    grabbers = [
        item
        for item in result.categorized
        if item.request.host.lower() == lowered
        and item.subcategory == Subcategory.FILE_GRABBER
    ]
    by_provider: Dict[str, int] = {}
    email_total = 0
    for item in grabbers:
        agent = parse_user_agent(item.request.user_agent)
        if agent.kind == AgentKind.EMAIL_CRAWLER:
            email_total += 1
            by_provider[agent.name] = by_provider.get(agent.name, 0) + 1
    return EmailCrawlerBreakdown(
        domain=lowered,
        file_grabber_total=len(grabbers),
        email_crawler_total=email_total,
        by_provider=by_provider,
    )


def search_engine_breakdown(
    result: SecurityRunResult, domain: str
) -> Dict[str, int]:
    """Crawler-service split of one domain's search-engine traffic.

    §6.3's geographic correlation: previously-Russian domains are
    crawled predominantly by mail.ru/Yandex, US-hosted ones by
    Google/Bing.
    """
    lowered = domain.lower()
    histogram: Dict[str, int] = {}
    for item in result.categorized:
        if (
            item.request.host.lower() == lowered
            and item.subcategory == Subcategory.SEARCH_ENGINE
        ):
            name = item.agent_name or "unknown"
            histogram[name] = histogram.get(name, 0) + 1
    return dict(sorted(histogram.items(), key=lambda kv: kv[1], reverse=True))


def regional_correlation_checks(result: SecurityRunResult) -> Dict[str, bool]:
    """§6.3: regional search engines track the domains' former homes.

    Aggregated over all domains of each region — most individual
    non-Russian domains receive only a handful of search-engine visits
    at laptop scales.
    """
    regions = {p.domain: p.region for p in registered_domain_profiles()}
    ru_histogram: Dict[str, int] = {}
    us_histogram: Dict[str, int] = {}
    for domain, region in regions.items():
        histogram = search_engine_breakdown(result, domain)
        target = ru_histogram if region == "ru" else us_histogram
        for name, count in histogram.items():
            target[name] = target.get(name, 0) + count
    ru_regional = ru_histogram.get("Mail.Ru", 0) + ru_histogram.get("Yandex", 0)
    ru_total = sum(ru_histogram.values())
    us_global = us_histogram.get("Google", 0) + us_histogram.get("Bing", 0)
    us_total = sum(us_histogram.values())
    return {
        "ru-domains-crawled-regionally": ru_total > 0
        and ru_regional / ru_total > 0.5,
        "us-domains-crawled-globally": us_total > 0
        and us_global / us_total > 0.5,
    }


# ---------------------------------------------------------------------------
# Figure 13 — in-app browsers
# ---------------------------------------------------------------------------


def inapp_browser_distribution(result: SecurityRunResult) -> Dict[str, int]:
    """Requests per in-app browser across all domains (Figure 13)."""
    histogram: Dict[str, int] = {}
    for item in result.categorized:
        if item.subcategory == Subcategory.INAPP:
            name = item.agent_name or "Others"
            histogram[name] = histogram.get(name, 0) + 1
    return dict(sorted(histogram.items(), key=lambda kv: kv[1], reverse=True))


def inapp_shape_checks(histogram: Dict[str, int]) -> Dict[str, bool]:
    """Figure 13: WhatsApp leads (26%); messaging + social dominate.

    The check is sample-size aware: the paper's 3,808 in-app requests
    shrink to a few dozen at honeypot scales below 1%, where "WhatsApp
    is first" flips on single requests.  Below 60 samples WhatsApp only
    has to be present; above, it must hold a prominent (≥10%) share.
    """
    if not histogram:
        return {"nonempty": False}
    total = sum(histogram.values())
    whatsapp = histogram.get("WhatsApp", 0)
    messaging_social = sum(
        histogram.get(name, 0)
        for name in ("WhatsApp", "WeChat", "Facebook", "Twitter", "Instagram")
    )
    if total >= 60:
        whatsapp_ok = whatsapp / total >= 0.10
    else:
        whatsapp_ok = whatsapp >= 1
    return {
        "nonempty": True,
        "whatsapp-prominent": whatsapp_ok,
        "messaging-social-majority": messaging_social / total > 0.6,
    }


# ---------------------------------------------------------------------------
# Figures 14/15 + §6.4 — the gpclick botnet
# ---------------------------------------------------------------------------


@dataclass
class BotnetAnalysis:
    """§6.4's botnet-takeover findings, parsed from captured requests."""

    request_count: int
    user_agents: Dict[str, int]
    model_histogram: Dict[str, int]
    country_histogram: Dict[str, int]
    continent_histogram: Dict[str, int]
    hostname_histogram: Dict[str, int]
    distinct_phones: int

    def shape_checks(self) -> Dict[str, bool]:
        total_models = max(sum(self.model_histogram.values()), 1)
        nexus = sum(
            count
            for model, count in self.model_histogram.items()
            if model.startswith("Nexus")
        )
        total_hosts = max(sum(self.hostname_histogram.values()), 1)
        return {
            "single-user-agent": len(self.user_agents) == 1,
            "nexus-dominates": nexus / total_models > 0.9,
            "multi-continent": len(
                {c for c in self.continent_histogram if c}
            )
            >= 3,
            "google-proxy-majority": self.hostname_histogram.get("google-proxy", 0)
            / total_hosts
            > 0.45,
        }


def botnet_victim_analysis(result: SecurityRunResult) -> BotnetAnalysis:
    """Parse the gpclick getTask.php stream (Figures 12/14/15)."""
    requests = [
        item.request
        for item in result.categorized
        if item.request.host == "gpclick.com" and item.request.path == TASK_PATH
    ]
    user_agents: Dict[str, int] = {}
    models: Dict[str, int] = {}
    countries: Dict[str, int] = {}
    continents: Dict[str, int] = {}
    phones = set()
    for request in requests:
        user_agents[request.user_agent] = user_agents.get(request.user_agent, 0) + 1
        params = request.query_parameters()
        model = params.get("model", "").replace("%20", " ")
        if model:
            models[model] = models.get(model, 0) + 1
        country = params.get("country", "")
        if country:
            countries[country] = countries.get(country, 0) + 1
            continent = continent_of_country(country)
            if continent:
                continents[continent] = continents.get(continent, 0) + 1
        if "phone" in params:
            phones.add(params["phone"])
    hostnames = result.reverse_ip.hostname_histogram(
        [request.src_ip for request in requests]
    )
    return BotnetAnalysis(
        request_count=len(requests),
        user_agents=user_agents,
        model_histogram=models,
        country_histogram=countries,
        continent_histogram=continents,
        hostname_histogram=hostnames,
        distinct_phones=len(phones),
    )


def botnet_country_distribution(result: SecurityRunResult) -> Dict[str, int]:
    """Figure 14's axis: victims per phone country code."""
    return botnet_victim_analysis(result).country_histogram


def botnet_hostname_distribution(result: SecurityRunResult) -> Dict[str, int]:
    """Figure 15's axis: requests per source PTR group."""
    return botnet_victim_analysis(result).hostname_histogram
