"""User-Agent parsing and classification.

The categorizer's step ② (Figure 11) reads three things out of the
User-Agent header: declared crawler identities, scripting tools, and
device/browser information — including the in-app browsers of
Figure 13 (WhatsApp, WeChat, Facebook, ...).  This module is a small
rule table, not a full UA parser: it covers exactly the populations the
workload generates and the paper reports.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple


class AgentKind(enum.Enum):
    """Coarse class of the requesting agent."""

    CRAWLER = "crawler"
    EMAIL_CRAWLER = "email-crawler"
    SCRIPT = "script"
    BROWSER = "browser"
    INAPP_BROWSER = "in-app-browser"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class UserAgentInfo:
    """Parsed User-Agent facts."""

    kind: AgentKind
    name: str = ""
    device: str = ""


#: (token, crawler name) — declared web crawler services.
_CRAWLER_TOKENS: Tuple[Tuple[str, str], ...] = (
    ("googlebot", "Google"),
    ("bingbot", "Bing"),
    ("yandexbot", "Yandex"),
    ("mail.ru_bot", "Mail.Ru"),
    ("baiduspider", "Baidu"),
    ("duckduckbot", "DuckDuckGo"),
    ("slurp", "Yahoo"),
    ("ahrefsbot", "Ahrefs"),
    ("semrushbot", "Semrush"),
    ("mj12bot", "Majestic"),
    ("petalbot", "Petal"),
    ("applebot", "Apple"),
    ("crawler", "GenericCrawler"),
    ("spider", "GenericSpider"),
)

#: Email-provider content crawlers (the conf-cdn.com population).
_EMAIL_CRAWLER_TOKENS: Tuple[Tuple[str, str], ...] = (
    ("googleimageproxy", "GmailImageProxy"),
    ("ggpht.com", "GmailImageProxy"),
    ("yahoomailproxy", "YahooMailProxy"),
    ("outlookimageproxy", "OutlookImageProxy"),
    ("mail crawler", "GenericMailCrawler"),
)

#: Scripting tools and HTTP libraries.
_SCRIPT_TOKENS: Tuple[Tuple[str, str], ...] = (
    ("python-requests", "python-requests"),
    ("python-urllib", "python-urllib"),
    ("curl/", "curl"),
    ("wget/", "wget"),
    ("apache-httpclient", "Apache-HttpClient"),
    ("java/", "Java"),
    ("go-http-client", "Go-http-client"),
    ("okhttp", "okhttp"),
    ("libwww-perl", "libwww-perl"),
    ("aiohttp", "aiohttp"),
    ("scrapy", "Scrapy"),
    ("node-fetch", "node-fetch"),
    ("axios", "axios"),
    ("httpie", "HTTPie"),
)

#: In-app browser tokens (Figure 13 populations).
_INAPP_TOKENS: Tuple[Tuple[str, str], ...] = (
    ("whatsapp", "WhatsApp"),
    ("micromessenger", "WeChat"),
    ("fbav", "Facebook"),
    ("fb_iab", "Facebook"),
    ("twitterandroid", "Twitter"),
    ("twitter for", "Twitter"),
    ("instagram", "Instagram"),
    ("dingtalk", "DingTalk"),
    ("qq/", "QQ"),
    ("line/", "Line"),
    ("telegrambot", "Telegram"),
    ("snapchat", "Snapchat"),
)

_DEVICE_TOKENS: Tuple[Tuple[str, str], ...] = (
    ("windows nt", "Windows PC"),
    ("macintosh", "Mac"),
    ("android", "Android"),
    ("iphone", "iPhone"),
    ("ipad", "iPad"),
    ("linux", "Linux PC"),
)

_BROWSER_TOKENS: Tuple[Tuple[str, str], ...] = (
    ("edg/", "Edge"),
    ("opr/", "Opera"),
    ("chrome/", "Chrome"),
    ("firefox/", "Firefox"),
    ("safari/", "Safari"),
)


def parse_user_agent(user_agent: str) -> UserAgentInfo:
    """Classify one User-Agent string.

    Precedence: email crawlers and declared crawlers first (they often
    embed browser-like tokens), then in-app browsers (which embed the
    host browser's token), then scripting tools, then plain browsers.
    An empty or unmatched string is UNKNOWN — the categorizer routes
    those through the Requested-URL and Source-IP steps.
    """
    lowered = user_agent.lower()
    if not lowered.strip():
        return UserAgentInfo(AgentKind.UNKNOWN)
    for token, name in _EMAIL_CRAWLER_TOKENS:
        if token in lowered:
            return UserAgentInfo(AgentKind.EMAIL_CRAWLER, name)
    for token, name in _CRAWLER_TOKENS:
        if token in lowered:
            return UserAgentInfo(AgentKind.CRAWLER, name)
    device = _first_match(lowered, _DEVICE_TOKENS)
    for token, name in _INAPP_TOKENS:
        if token in lowered:
            return UserAgentInfo(AgentKind.INAPP_BROWSER, name, device)
    for token, name in _SCRIPT_TOKENS:
        if token in lowered:
            return UserAgentInfo(AgentKind.SCRIPT, name)
    browser = _first_match(lowered, _BROWSER_TOKENS)
    if browser and device:
        return UserAgentInfo(AgentKind.BROWSER, browser, device)
    if browser or lowered.startswith("mozilla/"):
        return UserAgentInfo(AgentKind.BROWSER, browser or "Mozilla", device)
    return UserAgentInfo(AgentKind.UNKNOWN)


def _first_match(lowered: str, table: Tuple[Tuple[str, str], ...]) -> str:
    for token, name in table:
        if token in lowered:
            return name
    return ""
