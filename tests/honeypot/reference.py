"""Reference models the columnar §6 path is checked against.

- :class:`ReferenceCategorizer` is the per-request Figure 11
  categorizer: one :class:`CategorizedRequest` per request through an
  if/elif chain, then stream reclassification over a dict of
  (source IP, URI) counts.  :meth:`TrafficCategorizer.categorize_batch`
  must classify every row the same way; :func:`categorized_items`
  decodes its result into the same objects for comparison.
- :func:`reference_apply` is the per-request Figure 9 filter loop
  :meth:`TwoStageFilter.apply_batch` must match.  It reads only the
  filter's learned sets and applies its own predicates to them.
- :func:`reference_shadow` is a request's transport-level shadow,
  the packet :meth:`RequestBatch.packet_shadow` must derive.
- :class:`ReferenceTrafficGenerator` (with
  :func:`reference_botnet_requests`) builds one :class:`HttpRequest`
  per draw, in the draw order the columnar generator must keep:
  ``generate_batch`` yields the same requests and leaves the
  generator in the same state.  The ``reference_*`` calibration
  generators do the same for :mod:`repro.workloads.control`.

All of them are deliberately the slow, obvious form of the computation.
"""

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.honeypot.batch import RequestBatch
from repro.honeypot.categorize import (
    CATEGORIES,
    SUBCATEGORIES,
    CategorizedBatch,
    Category,
    Subcategory,
    TrafficCategorizer,
)
from repro.honeypot.filtering import FilterStats, TwoStageFilter
from repro.honeypot.http import (
    PAGE_EXTENSIONS,
    HttpRequest,
    PacketRecord,
    Transport,
    path_extension,
)
from repro.honeypot.nvd import VulnerabilityDatabase
from repro.honeypot.reverse_ip import ReverseIpTable
from repro.honeypot.useragent import AgentKind, UserAgentInfo, parse_user_agent
from repro.honeypot.webfilter import ReferralKind, WebFilter, WebPage
from repro.workloads import useragents as ua
from repro.workloads.botnet import BOTNET_USER_AGENT, TASK_PATH, GpclickBotnet
from repro.workloads.control import (
    AWS_MONITOR_PORT,
    CALIBRATION_SECONDS,
    CONTROL_DOMAINS,
    SCANNED_PORTS,
)
from repro.workloads.domains import registered_domain_profiles
from repro.workloads.honeytraffic import (
    COLLECTION_SECONDS,
    _ASSET_PATHS,
    _EMAIL_ASSET_PATHS,
    _PAGE_PATHS,
    _PROBE_PATHS,
    _SCRIPT_PATHS,
    _SEARCH_REFERERS_GLOBAL,
    _SEARCH_REFERERS_RU,
)
from repro.workloads.ipspace import make_pool

# -- categorizer -----------------------------------------------------------


@dataclass(frozen=True)
class CategorizedRequest:
    """One request with its classification."""

    request: HttpRequest
    category: Category
    subcategory: Subcategory
    agent_name: str = ""


def categorized_items(categorized: CategorizedBatch) -> List[CategorizedRequest]:
    """A categorized batch's rows, decoded into objects."""
    return [
        CategorizedRequest(request, CATEGORIES[category], SUBCATEGORIES[sub], name)
        for request, category, sub, name in zip(
            categorized.requests.to_requests(),
            categorized.categories.tolist(),
            categorized.subcategories.tolist(),
            categorized.agent_names.decode(),
        )
    ]


def categorize_requests(
    categorizer: TrafficCategorizer,
    requests: Iterable[HttpRequest],
    stream_threshold: Optional[int] = 50,
) -> List[CategorizedRequest]:
    """``categorizer.categorize_batch`` over request objects, decoded."""
    batch = RequestBatch.from_requests(requests)
    return categorized_items(categorizer.categorize_batch(batch, stream_threshold))


class ReferenceCategorizer:
    """Figure 11, one request at a time."""

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
        agent = self._agents.get(user_agent)
        if agent is None:
            agent = self._agents[user_agent] = parse_user_agent(user_agent)
        return agent

    def categorize(self, request: HttpRequest) -> CategorizedRequest:
        if request.referer:
            kind = self.web_filter.classify(request.referer, request.host)
            subcategory = {
                ReferralKind.SEARCH_ENGINE: Subcategory.REFERRAL_SEARCH,
                ReferralKind.EMBEDDED: Subcategory.REFERRAL_EMBEDDED,
                ReferralKind.MALICIOUS_LINK: Subcategory.REFERRAL_MALICIOUS,
            }[kind]
            return CategorizedRequest(request, Category.REFERRAL, subcategory)
        agent = self._agent(request.user_agent)
        if agent.kind in (AgentKind.CRAWLER, AgentKind.EMAIL_CRAWLER):
            return CategorizedRequest(
                request, Category.WEB_CRAWLER, self.crawler_subtype(request),
                agent.name,
            )
        if agent.kind == AgentKind.UNKNOWN and self.reverse_ip.is_known_crawler(
            request.src_ip
        ):
            return CategorizedRequest(
                request,
                Category.WEB_CRAWLER,
                self.crawler_subtype(request),
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
                request, Category.AUTOMATED, self.automated_subtype(request),
                agent.name,
            )
        if self.nvd.is_malicious_uri(request.path, request.query):
            return CategorizedRequest(
                request, Category.AUTOMATED, Subcategory.MALICIOUS_REQUEST
            )
        if request.path != "/" or bool(request.query):
            return CategorizedRequest(
                request, Category.AUTOMATED, Subcategory.SCRIPT_SOFTWARE
            )
        return CategorizedRequest(request, Category.OTHERS, Subcategory.OTHER)

    def categorize_many(
        self,
        requests: Iterable[HttpRequest],
        stream_threshold: Optional[int] = 50,
    ) -> List[CategorizedRequest]:
        categorized = [self.categorize(request) for request in requests]
        if stream_threshold is None:
            return categorized
        keys = [(item.request.src_ip, item.request.uri) for item in categorized]
        pair_counts: Dict[Tuple[str, str], int] = {}
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
                    self.automated_subtype(item.request),
                    item.agent_name,
                )
            reclassified.append(item)
        return reclassified

    @staticmethod
    def crawler_subtype(request: HttpRequest) -> Subcategory:
        if path_extension(request.path) in PAGE_EXTENSIONS:
            return Subcategory.SEARCH_ENGINE
        return Subcategory.FILE_GRABBER

    def automated_subtype(self, request: HttpRequest) -> Subcategory:
        if self.nvd.is_malicious_uri(request.path, request.query):
            return Subcategory.MALICIOUS_REQUEST
        return Subcategory.SCRIPT_SOFTWARE


# -- filter ------------------------------------------------------------------


def reference_apply(
    noise_filter: TwoStageFilter, requests: Iterable[HttpRequest]
) -> Tuple[List[HttpRequest], FilterStats]:
    """Figure 9, one request at a time, over the filter's learned sets:
    a baseline IP is scanner noise; a control IP, or a ``/.well-known``
    URI seen on the control group, is establishment noise."""
    stats = FilterStats()
    kept: List[HttpRequest] = []
    for request in requests:
        stats.input_requests += 1
        if request.src_ip in noise_filter._scanner_ips:
            stats.dropped_by_ip_baseline += 1
        elif request.src_ip in noise_filter._control_ips or (
            request.uri in noise_filter._control_uris
            and request.uri.startswith("/.well-known")
        ):
            stats.dropped_by_control_group += 1
        else:
            kept.append(request)
    stats.kept = len(kept)
    return kept, stats


def reference_shadow(request: HttpRequest) -> PacketRecord:
    """The transport-level shadow of one request."""
    return PacketRecord(
        timestamp=request.timestamp,
        src_ip=request.src_ip,
        dst_port=request.port,
        transport=Transport.TCP,
        payload_size=len(request.uri) + len(request.user_agent) + 64,
    )


# -- traffic generators ----------------------------------------------------------


def reference_botnet_requests(
    botnet: GpclickBotnet, count: int, start: int, end: int
) -> List[HttpRequest]:
    """``GpclickBotnet.batch`` one request object per poll."""
    timestamps = np.sort(botnet.rng.integers(start, end, size=count))
    requests = []
    for timestamp in timestamps:
        country, phone, model, _ = botnet._victim()
        mnc = int(botnet.rng.integers(1, 999))
        mcc = int(botnet.rng.integers(200, 750))
        query = (
            f"imei={botnet._imei()}&balance=0&country={country}"
            f"&phone={phone}&op=Android&mnc={mnc}&mcc={mcc}"
            f"&model={model.replace(' ', '%20')}&os=23"
        )
        requests.append(
            HttpRequest(
                timestamp=int(timestamp),
                src_ip=botnet._source_ip(),
                host=botnet.host,
                path=TASK_PATH,
                query=query,
                user_agent=BOTNET_USER_AGENT,
                port=80,
            )
        )
    return requests


class ReferenceTrafficGenerator:
    """``HoneypotTrafficGenerator`` building one object per request."""

    def __init__(self, rng, scale=0.01, reverse_ip=None, web_filter=None):
        self.rng = rng
        self.scale = scale
        self.reverse_ip = reverse_ip if reverse_ip is not None else ReverseIpTable()
        self.web_filter = web_filter if web_filter is not None else WebFilter()
        self.profiles = registered_domain_profiles()
        self._pools = {
            name: make_pool(name, rng, self.reverse_ip)
            for name in (
                "google-crawler", "bing-crawler", "yandex-crawler",
                "mailru-crawler", "baidu-crawler", "gmail-proxy",
                "yahoo-proxy", "outlook-proxy", "scripts", "users",
                "others", "scanners", "letsencrypt", "residential",
            )
        }
        self._botnet = GpclickBotnet(rng, self.reverse_ip)
        self.emitters = {
            Subcategory.SEARCH_ENGINE: self._emit_search_engine,
            Subcategory.FILE_GRABBER: self._emit_file_grabber,
            Subcategory.SCRIPT_SOFTWARE: self._emit_script_software,
            Subcategory.MALICIOUS_REQUEST: self._emit_malicious_request,
            Subcategory.REFERRAL_SEARCH: self._emit_referral_search,
            Subcategory.REFERRAL_EMBEDDED: self._emit_referral_embedded,
            Subcategory.REFERRAL_MALICIOUS: self._emit_referral_malicious,
            Subcategory.PC_MOBILE: self._emit_pc_mobile,
            Subcategory.INAPP: self._emit_inapp,
            Subcategory.OTHER: self._emit_other,
        }

    def generate(self, include_noise: bool = True) -> List[HttpRequest]:
        requests: List[HttpRequest] = []
        for profile in self.profiles:
            for subcategory, count in profile.scaled_counts(self.scale).items():
                if count > 0:
                    requests.extend(self.emitters[subcategory](profile, count))
        if include_noise:
            requests.extend(self._emit_contamination())
        requests.sort(key=lambda r: r.timestamp)
        return requests

    def _times(self, count):
        return [int(t) for t in self.rng.integers(0, COLLECTION_SECONDS, size=count)]

    def _port(self):
        return 443 if self.rng.random() < 0.55 else 80

    def _pick_path(self, paths):
        return paths[int(self.rng.integers(0, len(paths)))]

    def _crawler_identity(self, profile):
        pool = (
            ua.SEARCH_CRAWLERS_RU if profile.region == "ru" else ua.SEARCH_CRAWLERS_GLOBAL
        )
        agent = ua.pick(self.rng, pool)
        lowered = agent.lower()
        if "mail.ru_bot" in lowered:
            ip_pool = "mailru-crawler"
        elif "yandex" in lowered:
            ip_pool = "yandex-crawler"
        elif "bingbot" in lowered:
            ip_pool = "bing-crawler"
        elif "baiduspider" in lowered:
            ip_pool = "baidu-crawler"
        else:
            ip_pool = "google-crawler"
        return agent, self._pools[ip_pool].address()

    def _emit_search_engine(self, profile, count):
        requests = []
        for timestamp in self._times(count):
            agent, src_ip = self._crawler_identity(profile)
            requests.append(
                HttpRequest(
                    timestamp=timestamp, src_ip=src_ip, host=profile.domain,
                    path=self._pick_path(_PAGE_PATHS), user_agent=agent,
                    port=self._port(),
                )
            )
        return requests

    def _emit_file_grabber(self, profile, count):
        requests = []
        for timestamp in self._times(count):
            if profile.email_crawler_heavy and self.rng.random() < 0.951:
                agent = ua.pick(self.rng, ua.EMAIL_CRAWLERS)
                lowered = agent.lower()
                if "yahoo" in lowered:
                    src_ip = self._pools["yahoo-proxy"].address()
                elif "outlook" in lowered:
                    src_ip = self._pools["outlook-proxy"].address()
                else:
                    src_ip = self._pools["gmail-proxy"].address()
                path = self._pick_path(_EMAIL_ASSET_PATHS)
            else:
                agent = ua.pick(self.rng, ua.FILE_GRABBERS)
                src_ip = self._pools["google-crawler"].address()
                path = self._pick_path(_ASSET_PATHS)
            requests.append(
                HttpRequest(
                    timestamp=timestamp, src_ip=src_ip, host=profile.domain,
                    path=path, user_agent=agent, port=self._port(),
                )
            )
        return requests

    def _emit_script_software(self, profile, count):
        requests = []
        if profile.polling_fleet:
            fleet_size = max(count // 120, 1)
            fleet = self._pools["scripts"].addresses(fleet_size)
            per_bot = max(count // fleet_size, 1)
            emitted = 0
            for bot_ip in fleet:
                if emitted >= count:
                    break
                period = COLLECTION_SECONDS / per_bot
                start = float(self.rng.integers(0, max(int(period), 1)))
                for poll in range(per_bot):
                    if emitted >= count:
                        break
                    jitter = float(self.rng.normal(0, period * 0.02))
                    timestamp = int(
                        min(max(start + poll * period + jitter, 0), COLLECTION_SECONDS - 1)
                    )
                    requests.append(
                        HttpRequest(
                            timestamp=timestamp, src_ip=bot_ip, host=profile.domain,
                            path="/status.json", user_agent=ua.POLLING_FLEET_UA,
                            port=80,
                        )
                    )
                    emitted += 1
            return requests[:count]
        for timestamp in self._times(count):
            requests.append(
                HttpRequest(
                    timestamp=timestamp,
                    src_ip=self._pools["scripts"].address(),
                    host=profile.domain,
                    path=self._pick_path(_SCRIPT_PATHS),
                    user_agent=ua.pick(self.rng, ua.SCRIPT_TOOLS),
                    port=self._port(),
                )
            )
        return requests

    def _emit_malicious_request(self, profile, count):
        if profile.botnet_target:
            return reference_botnet_requests(self._botnet, count, 0, COLLECTION_SECONDS)
        requests = []
        for timestamp in self._times(count):
            agent = (
                ua.pick(self.rng, ua.SCRIPT_TOOLS) if self.rng.random() < 0.5 else ""
            )
            requests.append(
                HttpRequest(
                    timestamp=timestamp,
                    src_ip=self._pools["scripts"].address(),
                    host=profile.domain,
                    path=self._pick_path(_PROBE_PATHS),
                    user_agent=agent,
                    port=self._port(),
                )
            )
        return requests

    def _emit_referral_search(self, profile, count):
        templates = (
            _SEARCH_REFERERS_RU if profile.region == "ru" else _SEARCH_REFERERS_GLOBAL
        )
        requests = []
        for timestamp in self._times(count):
            template = templates[int(self.rng.integers(0, len(templates)))]
            requests.append(
                HttpRequest(
                    timestamp=timestamp,
                    src_ip=self._pools["users"].address(),
                    host=profile.domain,
                    path=self._pick_path(_PAGE_PATHS),
                    user_agent=ua.pick(self.rng, ua.PC_MOBILE_BROWSERS),
                    referer=template.format(d=profile.domain),
                    port=self._port(),
                )
            )
        return requests

    def _emit_referral_embedded(self, profile, count):
        page_count = max(min(count // 10, 12), 1)
        pages = []
        for index in range(page_count):
            url = f"https://forum-{index}.discuss-{profile.domain.split('.')[0]}.org/thread"
            self.web_filter.register_page(
                WebPage(url, category="forums-blogs", linked_domains={profile.domain})
            )
            pages.append(url)
        requests = []
        for timestamp in self._times(count):
            requests.append(
                HttpRequest(
                    timestamp=timestamp,
                    src_ip=self._pools["users"].address(),
                    host=profile.domain,
                    path=self._pick_path(_PAGE_PATHS),
                    user_agent=ua.pick(self.rng, ua.PC_MOBILE_BROWSERS),
                    referer=pages[int(self.rng.integers(0, page_count))],
                    port=self._port(),
                )
            )
        return requests

    def _emit_referral_malicious(self, profile, count):
        decoy_url = f"https://pages.decoy-{profile.domain.split('.')[0]}.net/article"
        self.web_filter.register_page(
            WebPage(decoy_url, category="forums-blogs", linked_domains=set())
        )
        requests = []
        for timestamp in self._times(count):
            if self.rng.random() < 0.18:
                referer = decoy_url
            else:
                referer = (
                    f"https://dead-link-{int(self.rng.integers(0, 1_000_000))}"
                    ".example-gone.net/x"
                )
            requests.append(
                HttpRequest(
                    timestamp=timestamp,
                    src_ip=self._pools["scripts"].address(),
                    host=profile.domain,
                    path=self._pick_path(_PAGE_PATHS),
                    user_agent=ua.pick(self.rng, ua.PC_MOBILE_BROWSERS),
                    referer=referer,
                    port=self._port(),
                )
            )
        return requests

    def _emit_pc_mobile(self, profile, count):
        return [
            HttpRequest(
                timestamp=timestamp,
                src_ip=self._pools["users"].address(),
                host=profile.domain,
                path=f"/page/{index % 37}",
                user_agent=ua.pick(self.rng, ua.PC_MOBILE_BROWSERS),
                port=self._port(),
            )
            for index, timestamp in enumerate(self._times(count))
        ]

    def _emit_inapp(self, profile, count):
        return [
            HttpRequest(
                timestamp=timestamp,
                src_ip=self._pools["users"].address(),
                host=profile.domain,
                path=f"/shared/{index % 23}",
                user_agent=ua.pick(self.rng, ua.INAPP_BROWSERS),
                port=self._port(),
            )
            for index, timestamp in enumerate(self._times(count))
        ]

    def _emit_other(self, profile, count):
        return [
            HttpRequest(
                timestamp=timestamp,
                src_ip=self._pools["others"].address(),
                host=profile.domain,
                path="/",
                user_agent="",
                port=self._port(),
            )
            for timestamp in self._times(count)
        ]

    def _emit_contamination(self):
        requests = []
        hosts = [p.domain for p in self.profiles]
        noise_count = max(
            int(sum(p.total() for p in self.profiles) * self.scale * 0.05), 10
        )
        for timestamp in self._times(noise_count):
            host = hosts[int(self.rng.integers(0, len(hosts)))]
            if self.rng.random() < 0.6:
                requests.append(
                    HttpRequest(
                        timestamp=timestamp,
                        src_ip=self._pools["scanners"].address(),
                        host=host,
                        path=self._pick_path(("/", "/robots.txt", "/admin")),
                        user_agent="",
                        port=80,
                    )
                )
            else:
                requests.append(
                    HttpRequest(
                        timestamp=timestamp,
                        src_ip=self._pools["letsencrypt"].address(),
                        host=host,
                        path="/.well-known/acme-challenge/token",
                        user_agent=ua.LETSENCRYPT_UA,
                        port=80,
                    )
                )
        return requests


# -- calibration deployments -----------------------------------------------------


def reference_no_hosting_baseline(rng, packets=3_000, monitor_share=0.55):
    """The no-hosting recorder's packets, in recording order."""
    scanners = make_pool("scanners", rng)
    aws = make_pool("aws-monitor", rng)
    recorded = []
    for _ in range(packets):
        timestamp = int(rng.integers(0, CALIBRATION_SECONDS))
        if rng.random() < monitor_share:
            recorded.append(
                PacketRecord(
                    timestamp, aws.address(), AWS_MONITOR_PORT, Transport.TCP, 64
                )
            )
        else:
            port = SCANNED_PORTS[int(rng.integers(0, len(SCANNED_PORTS)))]
            recorded.append(
                PacketRecord(
                    timestamp,
                    scanners.address(),
                    port,
                    Transport.TCP if port != 5900 else Transport.UDP,
                    int(rng.integers(40, 400)),
                )
            )
    return recorded


def reference_control_traffic(rng, requests=1_500):
    """The control recorder's (requests, packets), in recording order:
    each request's shadow, then the platform monitor's packets."""
    hosts = list(CONTROL_DOMAINS)
    letsencrypt = make_pool("letsencrypt", rng)
    scanners = make_pool("scanners", rng)
    aws = make_pool("aws-monitor", rng)
    recorded = []
    for _ in range(requests):
        timestamp = int(rng.integers(0, CALIBRATION_SECONDS))
        host = hosts[int(rng.integers(0, len(hosts)))]
        roll = rng.random()
        if roll < 0.45:
            request = HttpRequest(
                timestamp=timestamp, src_ip=letsencrypt.address(), host=host,
                path="/.well-known/acme-challenge/token",
                user_agent=ua.LETSENCRYPT_UA, port=80,
            )
        elif roll < 0.8:
            request = HttpRequest(
                timestamp=timestamp, src_ip=scanners.address(), host=host,
                path="/" if rng.random() < 0.7 else "/robots.txt",
                user_agent="Mozilla/5.0 (compatible; NewDomainSpider/1.0 crawler)",
                port=80,
            )
        else:
            request = HttpRequest(
                timestamp=timestamp, src_ip=scanners.address(), host=host,
                path="/", user_agent="", port=443,
            )
        recorded.append(request)
    packets = [reference_shadow(request) for request in recorded]
    for _ in range(requests):
        packets.append(
            PacketRecord(
                int(rng.integers(0, CALIBRATION_SECONDS)),
                aws.address(),
                AWS_MONITOR_PORT,
                Transport.TCP,
                64,
            )
        )
    return recorded, packets


def reference_platform_packets(rng, count, duration=CALIBRATION_SECONDS * 3):
    scanners = make_pool("scanners", rng)
    aws = make_pool("aws-monitor", rng)
    packets = []
    for _ in range(count):
        timestamp = int(rng.integers(0, duration))
        if rng.random() < 0.7:
            packets.append(
                PacketRecord(
                    timestamp, aws.address(), AWS_MONITOR_PORT, Transport.TCP, 64
                )
            )
        else:
            port = SCANNED_PORTS[int(rng.integers(0, len(SCANNED_PORTS)))]
            packets.append(
                PacketRecord(
                    timestamp,
                    scanners.address(),
                    port,
                    Transport.TCP,
                    int(rng.integers(40, 400)),
                )
            )
    return packets
