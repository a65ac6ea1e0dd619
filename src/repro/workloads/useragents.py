"""User-Agent string pools for workload actors.

These strings are built to round-trip through
:func:`repro.honeypot.useragent.parse_user_agent` into the intended
class — the generator and categorizer must agree on the header
dialect, exactly as real crawlers and browsers publish theirs.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.rand import WeightedTable

SEARCH_CRAWLERS_GLOBAL: Tuple[Tuple[str, float], ...] = (
    ("Mozilla/5.0 (compatible; Googlebot/2.1; +http://www.google.com/bot.html)", 45),
    ("Mozilla/5.0 (compatible; bingbot/2.0; +http://www.bing.com/bingbot.htm)", 25),
    ("Mozilla/5.0 (compatible; DuckDuckBot/1.0; +http://duckduckgo.com/duckduckbot.html)", 5),
    ("Mozilla/5.0 (compatible; YandexBot/3.0; +http://yandex.com/bots)", 10),
    ("Mozilla/5.0 (compatible; Baiduspider/2.0; +http://www.baidu.com/search/spider.html)", 5),
    ("Mozilla/5.0 (compatible; Applebot/0.1; +http://www.apple.com/go/applebot)", 5),
    ("Mozilla/5.0 (compatible; SemrushBot/7~bl; +http://www.semrush.com/bot.html)", 5),
)

#: Regional mix for previously-Russian-hosted domains: mail.ru and
#: Yandex dominate (the porno-komiksy.com observation in §6.3).
SEARCH_CRAWLERS_RU: Tuple[Tuple[str, float], ...] = (
    ("Mozilla/5.0 (compatible; Mail.RU_Bot/2.0; +http://go.mail.ru/help/robots)", 45),
    ("Mozilla/5.0 (compatible; YandexBot/3.0; +http://yandex.com/bots)", 30),
    ("Mozilla/5.0 (compatible; Googlebot/2.1; +http://www.google.com/bot.html)", 15),
    ("Mozilla/5.0 (compatible; bingbot/2.0; +http://www.bing.com/bingbot.htm)", 10),
)

FILE_GRABBERS: Tuple[Tuple[str, float], ...] = (
    ("Mozilla/5.0 (compatible; Googlebot-Image/1.0 crawler)", 35),
    ("Mozilla/5.0 (compatible; YandexImages/3.0 crawler; +http://yandex.com/bots)", 20),
    ("Mozilla/5.0 (compatible; MJ12bot/v1.4.8; http://mj12bot.com/)", 15),
    ("Mozilla/5.0 (compatible; AhrefsBot/7.0; +http://ahrefs.com/robot/)", 15),
    ("Mozilla/5.0 (compatible; PetalBot;+https://webmaster.petalsearch.com/site/petalbot)", 15),
)

#: Email-provider image crawlers: Gmail 58%, Yahoo 25%, Outlook 10%
#: (conf-cdn.com's 30,884 / 13,528 / 5,483 split), rest generic.
EMAIL_CRAWLERS: Tuple[Tuple[str, float], ...] = (
    ("Mozilla/5.0 (Windows NT 5.1; rv:11.0) Gecko Firefox/11.0 (via ggpht.com GoogleImageProxy)", 58),
    ("YahooMailProxy; https://help.yahoo.com/kb/yahoo-mail-proxy-SLN28749.html", 25),
    ("OutlookImageProxy (Microsoft Office Outlook)", 10),
    ("Mozilla/5.0 (compatible; mail crawler)", 7),
)

SCRIPT_TOOLS: Tuple[Tuple[str, float], ...] = (
    ("python-requests/2.28.1", 30),
    ("curl/7.85.0", 20),
    ("Wget/1.21.3 (linux-gnu)", 15),
    ("Java/1.8.0_271", 12),
    ("Go-http-client/1.1", 10),
    ("okhttp/4.9.3", 8),
    ("python-urllib/3.9", 5),
)

#: The 1x-sport-bk7.com polling fleet's single fixed UA (§6.3 quotes
#: it verbatim).
POLLING_FLEET_UA = (
    "Mozilla/5.0 (Windows NT 6.3; WOW64) AppleWebKit/537.36 "
    "(KHTML, like Gecko) Chrome/41.0.2272.118 Safari/537.36"
)

PC_MOBILE_BROWSERS: Tuple[Tuple[str, float], ...] = (
    ("Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/103.0.0.0 Safari/537.36", 30),
    ("Mozilla/5.0 (Macintosh; Intel Mac OS X 12_4) AppleWebKit/605.1.15 (KHTML, like Gecko) Version/15.5 Safari/605.1.15", 12),
    ("Mozilla/5.0 (Windows NT 10.0; Win64; x64; rv:102.0) Gecko/20100101 Firefox/102.0", 10),
    ("Mozilla/5.0 (iPhone; CPU iPhone OS 15_5 like Mac OS X) AppleWebKit/605.1.15 (KHTML, like Gecko) Version/15.5 Mobile/15E148 Safari/604.1", 15),
    ("Mozilla/5.0 (Linux; Android 12; HUAWEI P50) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/101.0 Mobile Safari/537.36", 10),
    ("Mozilla/5.0 (Linux; Android 11; XiaoMi Mi 11) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/100.0 Mobile Safari/537.36", 10),
    ("Mozilla/5.0 (Linux; Android 12; Samsung SM-G991B) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/102.0 Mobile Safari/537.36", 13),
)

#: Figure 13's in-app browser mix (counts reconstructed from the pie:
#: WhatsApp 1,008; Facebook 624; WeChat 576; Twitter 444; Instagram
#: 408; Others 328; DingTalk 252; QQ 168 — of 3,808 total).
INAPP_BROWSERS: Tuple[Tuple[str, float], ...] = (
    ("Mozilla/5.0 (iPhone; CPU iPhone OS 15_0 like Mac OS X) WhatsApp/2.21.1", 1008),
    ("Mozilla/5.0 (Linux; Android 11) [FB_IAB/FB4A;FBAV/350.0;]", 624),
    ("Mozilla/5.0 (Linux; Android 10) MicroMessenger/8.0.16", 576),
    ("Mozilla/5.0 (Linux; Android 11) TwitterAndroid/9.0", 444),
    ("Mozilla/5.0 (Linux; Android 11) Instagram 200.0.0", 408),
    ("Mozilla/5.0 (Linux; Android 9) DingTalk/6.0.12", 252),
    ("Mozilla/5.0 (Linux; Android 10) QQ/8.8.0", 168),
    ("Mozilla/5.0 (Linux; Android 10) Line/11.0", 164),
    ("Mozilla/5.0 (iPhone) Snapchat/11.0", 164),
)

LETSENCRYPT_UA = (
    "Mozilla/5.0 (compatible; Let's Encrypt validation server crawler; "
    "+https://www.letsencrypt.org/)"
)


def _table(pool: Tuple[Tuple[str, float], ...]) -> WeightedTable[str]:
    return WeightedTable.from_weights([ua for ua, _ in pool], [w for _, w in pool])


#: One precomputed sampler per constant pool above.
_TABLES: Dict[Tuple[Tuple[str, float], ...], WeightedTable[str]] = {
    pool: _table(pool)
    for pool in (
        SEARCH_CRAWLERS_GLOBAL,
        SEARCH_CRAWLERS_RU,
        FILE_GRABBERS,
        EMAIL_CRAWLERS,
        SCRIPT_TOOLS,
        PC_MOBILE_BROWSERS,
        INAPP_BROWSERS,
    )
}


def table(pool: Tuple[Tuple[str, float], ...]) -> WeightedTable[str]:
    """The sampler of a pool: prebuilt for the module's own pools."""
    prebuilt = _TABLES.get(pool)
    return prebuilt if prebuilt is not None else _table(pool)


def pick(rng: np.random.Generator, pool: Tuple[Tuple[str, float], ...]) -> str:
    """Draw one UA string from a weighted pool.

    The draw equals ``WeightedTable.from_weights`` over the pool's
    strings and weights.
    """
    return table(pool).draw(rng)
