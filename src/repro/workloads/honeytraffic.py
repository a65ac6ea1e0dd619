"""Per-domain honeypot traffic generation calibrated to Table 1.

For each of the 19 registered domains, the generator emits — per
Table 1 subcategory, scaled by ``scale`` — requests whose *headers*
carry the signals that the Figure 11 categorizer keys on.  The
end-to-end claim of the reproduction is exactly this loop: generate
raw traffic from actor models, push it through recording, filtering,
and categorization, and recover Table 1's shape.

Also emitted (``include_noise=True``) is the contamination the filter
exists to remove: cloud-scanner probes from the same address space as
the no-hosting baseline and certificate-validation traffic matching the
control group's signatures.

Every emitter returns a :class:`~repro.honeypot.batch.RequestBatch`.
Its per-request draws (``rng.integers``, ``rng.random`` and UA picks)
are scalar calls in a fixed order per row: bounded-integer and
``random()`` draws consume the generator's words differently, so they
cannot be batched without changing the stream.  Only the polling
fleet's jitter is one vector ``normal`` per bot, which equals the
scalar calls value for value.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

import numpy as np

from repro.honeypot.batch import RequestBatch, StrColumn
from repro.honeypot.categorize import Subcategory
from repro.honeypot.reverse_ip import ReverseIpTable
from repro.honeypot.webfilter import WebFilter, WebPage
from repro.workloads import useragents as ua
from repro.workloads.botnet import GpclickBotnet
from repro.workloads.domains import (
    RegisteredDomainProfile,
    registered_domain_profiles,
)
from repro.workloads.ipspace import make_pool
from repro.errors import ConfigError

#: Six months of collection, in seconds (timestamps are study-relative).
COLLECTION_SECONDS = 180 * 86_400

_PAGE_PATHS = (
    "/", "/index.html", "/news.html", "/catalog.php", "/video.php",
    "/article-2021.html", "/course/math.html", "/serial/ep1.html",
)
_ASSET_PATHS = (
    "/img/banner.jpeg", "/img/logo.png", "/sitemap.xml", "/feed.xml",
    "/img/photo1.jpeg", "/img/photo2.png", "/video/preview.jpeg",
    "/static/style.css.map", "/files/catalog.pdf",
)
_EMAIL_ASSET_PATHS = (
    "/newsletter/pixel.png", "/mail/banner.jpeg", "/promo/image1.png",
    "/campaign/header.jpeg",
)
_SCRIPT_PATHS = (
    "/status.json", "/api/feed.json", "/video/lesson1.mp4.torrent",
    "/files/course-algebra.mp4", "/data/export.xml", "/update/manifest.json",
)
_PROBE_PATHS = (
    "/wp-login.php", "/xmlrpc.php", "/changepassword.php", "/admin.php",
    "/phpmyadmin/index.php", "/.env", "/cgi-bin/test.sh", "/config.php",
)
_SEARCH_REFERERS_GLOBAL = (
    "https://www.google.com/search?q={d}",
    "https://www.bing.com/search?q={d}",
)
_SEARCH_REFERERS_RU = (
    "https://go.mail.ru/search?q={d}",
    "https://yandex.ru/search/?text={d}",
    "https://www.google.com/search?q={d}",
)


class HoneypotTrafficGenerator:
    """Generates the full 6-month request stream for the 19 domains."""

    def __init__(
        self,
        rng: np.random.Generator,
        scale: float = 0.01,
        reverse_ip: Optional[ReverseIpTable] = None,
        web_filter: Optional[WebFilter] = None,
        profiles: Optional[List[RegisteredDomainProfile]] = None,
    ) -> None:
        if scale <= 0:
            raise ConfigError("scale must be positive")
        self.rng = rng
        self.scale = scale
        self.reverse_ip = reverse_ip if reverse_ip is not None else ReverseIpTable()
        self.web_filter = web_filter if web_filter is not None else WebFilter()
        self.profiles = (
            profiles if profiles is not None else registered_domain_profiles()
        )
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
        self._emitters = {
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

    # -- top-level -----------------------------------------------------------

    def generate_batch(self, include_noise: bool = True) -> RequestBatch:
        """All requests of the collection period, time-ordered (equal
        ticks keep emission order)."""
        parts = [
            part for profile in self.profiles for part in self._parts_for(profile)
        ]
        if include_noise:
            parts.append(self._emit_contamination())
        batch = RequestBatch.concat(parts)
        return batch.take(np.argsort(batch.timestamps, kind="stable"))

    def _parts_for(self, profile: RegisteredDomainProfile) -> Iterator[RequestBatch]:
        """The 6-month stream for one domain, per its Table 1 row."""
        for subcategory, count in profile.scaled_counts(self.scale).items():
            if count > 0:
                yield self._emitters[subcategory](profile, count)

    # -- shared helpers ------------------------------------------------------

    def _times(self, count: int) -> np.ndarray:
        return self.rng.integers(0, COLLECTION_SECONDS, size=count)

    def _port(self) -> int:
        return 443 if self.rng.random() < 0.55 else 80

    def _pick_path(self, paths) -> str:
        return paths[int(self.rng.integers(0, len(paths)))]

    # -- subcategory emitters ----------------------------------------------------

    def _emit_search_engine(self, profile, count) -> RequestBatch:
        pool = (
            ua.SEARCH_CRAWLERS_RU if profile.region == "ru" else ua.SEARCH_CRAWLERS_GLOBAL
        )
        table = ua.table(pool)
        ip_pools = {agent: self._pools[_crawler_pool(agent)] for agent in table.items}
        times = self._times(count)
        agents, ips, paths, ports = [], [], [], []
        for _ in range(count):
            agent = table.draw(self.rng)
            agents.append(agent)
            ips.append(ip_pools[agent].address())
            paths.append(self._pick_path(_PAGE_PATHS))
            ports.append(self._port())
        return RequestBatch.of(
            times, src_ip=ips, host=profile.domain, path=paths,
            user_agent=agents, port=ports,
        )

    def _emit_file_grabber(self, profile, count) -> RequestBatch:
        email = ua.table(ua.EMAIL_CRAWLERS)
        proxies = {agent: self._pools[_email_proxy_pool(agent)] for agent in email.items}
        draw_grabber = ua.table(ua.FILE_GRABBERS).draw
        times = self._times(count)
        agents, ips, paths, ports = [], [], [], []
        for _ in range(count):
            if profile.email_crawler_heavy and self.rng.random() < 0.951:
                agent = email.draw(self.rng)
                ips.append(proxies[agent].address())
                paths.append(self._pick_path(_EMAIL_ASSET_PATHS))
            else:
                agent = draw_grabber(self.rng)
                ips.append(self._pools["google-crawler"].address())
                paths.append(self._pick_path(_ASSET_PATHS))
            agents.append(agent)
            ports.append(self._port())
        return RequestBatch.of(
            times, src_ip=ips, host=profile.domain, path=paths,
            user_agent=agents, port=ports,
        )

    def _emit_script_software(self, profile, count) -> RequestBatch:
        if profile.polling_fleet:
            return self._emit_polling_fleet(profile, count)
        scripts = self._pools["scripts"]
        draw_agent = ua.table(ua.SCRIPT_TOOLS).draw
        times = self._times(count)
        agents, ips, paths, ports = [], [], [], []
        for _ in range(count):
            ips.append(scripts.address())
            paths.append(self._pick_path(_SCRIPT_PATHS))
            agents.append(draw_agent(self.rng))
            ports.append(self._port())
        return RequestBatch.of(
            times, src_ip=ips, host=profile.domain, path=paths,
            user_agent=agents, port=ports,
        )

    def _emit_polling_fleet(self, profile, count) -> RequestBatch:
        """The status.json fleet: many addresses, one UA, one URI.

        Each address polls on its own fixed period (with small jitter)
        — the periodic-stream signature that both the stream
        reclassifier and the interactive honeypot's session analysis
        key on.  Every bot polls ``count // fleet_size`` times, so the
        fleet emits at most ``count`` polls.
        """
        fleet_size = max(count // 120, 1)
        fleet = self._pools["scripts"].addresses(fleet_size)
        per_bot = max(count // fleet_size, 1)
        period = COLLECTION_SECONDS / per_bot
        times: List[np.ndarray] = []
        for _ in fleet:
            start = float(self.rng.integers(0, max(int(period), 1)))
            jitter = self.rng.normal(0, period * 0.02, size=per_bot)
            ticks = start + np.arange(per_bot) * period + jitter
            times.append(np.clip(ticks, 0, COLLECTION_SECONDS - 1).astype(np.int64))
        ips = StrColumn.encode(fleet).take(np.repeat(np.arange(fleet_size), per_bot))
        return RequestBatch.of(
            np.concatenate(times), src_ip=ips, host=profile.domain,
            path="/status.json", user_agent=ua.POLLING_FLEET_UA, port=80,
        )

    def _emit_malicious_request(self, profile, count) -> RequestBatch:
        if profile.botnet_target:
            return self._botnet.batch(count, 0, COLLECTION_SECONDS)
        scripts = self._pools["scripts"]
        draw_agent = ua.table(ua.SCRIPT_TOOLS).draw
        times = self._times(count)
        agents, ips, paths, ports = [], [], [], []
        for _ in range(count):
            # Vulnerability probes; half disclose a script tool, half
            # send no UA at all — both routes end in Malicious Request.
            agents.append(draw_agent(self.rng) if self.rng.random() < 0.5 else "")
            ips.append(scripts.address())
            paths.append(self._pick_path(_PROBE_PATHS))
            ports.append(self._port())
        return RequestBatch.of(
            times, src_ip=ips, host=profile.domain, path=paths,
            user_agent=agents, port=ports,
        )

    def _emit_referral_search(self, profile, count) -> RequestBatch:
        templates = (
            _SEARCH_REFERERS_RU if profile.region == "ru" else _SEARCH_REFERERS_GLOBAL
        )
        referer_urls = [template.format(d=profile.domain) for template in templates]
        users = self._pools["users"]
        draw_agent = ua.table(ua.PC_MOBILE_BROWSERS).draw
        times = self._times(count)
        referers, agents, ips, paths, ports = [], [], [], [], []
        for _ in range(count):
            referers.append(referer_urls[int(self.rng.integers(0, len(templates)))])
            ips.append(users.address())
            paths.append(self._pick_path(_PAGE_PATHS))
            agents.append(draw_agent(self.rng))
            ports.append(self._port())
        return RequestBatch.of(
            times, src_ip=ips, host=profile.domain, path=paths,
            user_agent=agents, referer=referers, port=ports,
        )

    def _emit_referral_embedded(self, profile, count) -> RequestBatch:
        # Forum/blog pages that genuinely link to the domain; register
        # them with the web filter so its fetch-and-check passes.
        page_count = max(min(count // 10, 12), 1)
        pages = []
        for index in range(page_count):
            url = f"https://forum-{index}.discuss-{profile.domain.split('.')[0]}.org/thread"
            self.web_filter.register_page(
                WebPage(url, category="forums-blogs", linked_domains={profile.domain})
            )
            pages.append(url)
        users = self._pools["users"]
        draw_agent = ua.table(ua.PC_MOBILE_BROWSERS).draw
        times = self._times(count)
        referers, agents, ips, paths, ports = [], [], [], [], []
        for _ in range(count):
            ips.append(users.address())
            paths.append(self._pick_path(_PAGE_PATHS))
            agents.append(draw_agent(self.rng))
            referers.append(pages[int(self.rng.integers(0, page_count))])
            ports.append(self._port())
        return RequestBatch.of(
            times, src_ip=ips, host=profile.domain, path=paths,
            user_agent=agents, referer=referers, port=ports,
        )

    def _emit_referral_malicious(self, profile, count) -> RequestBatch:
        # Forged Referers: ~18% point at real pages that do NOT link to
        # us (the paper's 1,524 valid-URL subset); the rest at dead URLs.
        decoy_url = f"https://pages.decoy-{profile.domain.split('.')[0]}.net/article"
        self.web_filter.register_page(
            WebPage(decoy_url, category="forums-blogs", linked_domains=set())
        )
        scripts = self._pools["scripts"]
        draw_agent = ua.table(ua.PC_MOBILE_BROWSERS).draw
        times = self._times(count)
        referers, agents, ips, paths, ports = [], [], [], [], []
        for _ in range(count):
            if self.rng.random() < 0.18:
                referers.append(decoy_url)
            else:
                referers.append(
                    f"https://dead-link-{int(self.rng.integers(0, 1_000_000))}"
                    ".example-gone.net/x"
                )
            ips.append(scripts.address())
            paths.append(self._pick_path(_PAGE_PATHS))
            agents.append(draw_agent(self.rng))
            ports.append(self._port())
        return RequestBatch.of(
            times, src_ip=ips, host=profile.domain, path=paths,
            user_agent=agents, referer=referers, port=ports,
        )

    def _emit_pc_mobile(self, profile, count) -> RequestBatch:
        # Distinct URIs keep organic visits off the stream reclassifier's
        # radar.
        return self._emit_user_visits(
            profile, count, ua.PC_MOBILE_BROWSERS, "/page/{}", 37
        )

    def _emit_inapp(self, profile, count) -> RequestBatch:
        return self._emit_user_visits(
            profile, count, ua.INAPP_BROWSERS, "/shared/{}", 23
        )

    def _emit_user_visits(
        self, profile, count, agent_pool, path_template: str, path_cycle: int
    ) -> RequestBatch:
        """Visitors from the users pool; the n-th visit requests path
        ``path_template`` of ``n % path_cycle``."""
        users = self._pools["users"]
        draw_agent = ua.table(agent_pool).draw
        times = self._times(count)
        agents, ips, ports = [], [], []
        for _ in range(count):
            ips.append(users.address())
            agents.append(draw_agent(self.rng))
            ports.append(self._port())
        paths = StrColumn(
            np.arange(count, dtype=np.int64) % path_cycle,
            tuple(path_template.format(index) for index in range(path_cycle)),
        )
        return RequestBatch.of(
            times, src_ip=ips, host=profile.domain, path=paths,
            user_agent=agents, port=ports,
        )

    def _emit_other(self, profile, count) -> RequestBatch:
        others = self._pools["others"]
        times = self._times(count)
        ips, ports = [], []
        for _ in range(count):
            ips.append(others.address())
            ports.append(self._port())
        return RequestBatch.of(times, src_ip=ips, host=profile.domain, port=ports)

    # -- contamination (what the Figure 9 filter removes) ---------------------------

    def _emit_contamination(self) -> RequestBatch:
        """Scanner and establishment noise hitting the real deployment."""
        hosts = [p.domain for p in self.profiles]
        noise_count = max(int(sum(p.total() for p in self.profiles) * self.scale * 0.05), 10)
        times = self._times(noise_count)
        targets, agents, ips, paths = [], [], [], []
        for _ in range(noise_count):
            targets.append(hosts[int(self.rng.integers(0, len(hosts)))])
            if self.rng.random() < 0.6:
                # Cloud scanners (same pool as the no-hosting baseline).
                ips.append(self._pools["scanners"].address())
                paths.append(self._pick_path(("/", "/robots.txt", "/admin")))
                agents.append("")
            else:
                # Certificate validation (control-group signature).
                ips.append(self._pools["letsencrypt"].address())
                paths.append("/.well-known/acme-challenge/token")
                agents.append(ua.LETSENCRYPT_UA)
        return RequestBatch.of(
            times, src_ip=ips, host=targets, path=paths, user_agent=agents, port=80
        )


def _crawler_pool(agent: str) -> str:
    """The IP pool a search-engine crawler UA visits from."""
    lowered = agent.lower()
    if "mail.ru_bot" in lowered:
        return "mailru-crawler"
    if "yandex" in lowered:
        return "yandex-crawler"
    if "bingbot" in lowered:
        return "bing-crawler"
    if "baiduspider" in lowered:
        return "baidu-crawler"
    return "google-crawler"


def _email_proxy_pool(agent: str) -> str:
    """The IP pool an email-provider image crawler UA fetches from."""
    lowered = agent.lower()
    if "yahoo" in lowered:
        return "yahoo-proxy"
    if "outlook" in lowered:
        return "outlook-proxy"
    return "gmail-proxy"
