"""Tests for User-Agent classification."""

import pytest

from repro.honeypot.useragent import AgentKind, parse_user_agent

CHROME_WIN = (
    "Mozilla/5.0 (Windows NT 6.3; WOW64) AppleWebKit/537.36 "
    "(KHTML, like Gecko) Chrome/41.0.2272.118 Safari/537.36"
)


class TestCrawlers:
    def test_googlebot(self):
        info = parse_user_agent(
            "Mozilla/5.0 (compatible; Googlebot/2.1; +http://www.google.com/bot.html)"
        )
        assert info.kind == AgentKind.CRAWLER
        assert info.name == "Google"

    def test_mailru_bot(self):
        info = parse_user_agent("Mozilla/5.0 (compatible; Mail.RU_Bot/2.0)")
        assert info.kind == AgentKind.CRAWLER
        assert info.name == "Mail.Ru"

    def test_email_crawlers(self):
        info = parse_user_agent(
            "Mozilla/5.0 (Windows NT 5.1; rv:11.0) Gecko Firefox/11.0 "
            "(via ggpht.com GoogleImageProxy)"
        )
        assert info.kind == AgentKind.EMAIL_CRAWLER
        assert info.name == "GmailImageProxy"

    def test_crawler_beats_browser_tokens(self):
        # Crawler UAs embed Mozilla/Chrome tokens; crawler must win.
        info = parse_user_agent(
            "Mozilla/5.0 AppleWebKit/537.36 (KHTML, like Gecko; compatible; "
            "bingbot/2.0) Chrome/103.0 Safari/537.36"
        )
        assert info.kind == AgentKind.CRAWLER


class TestScripts:
    @pytest.mark.parametrize(
        "ua,name",
        [
            ("python-requests/2.28.1", "python-requests"),
            ("curl/7.85.0", "curl"),
            ("Wget/1.21", "wget"),
            ("Apache-HttpClient/UNAVAILABLE (java 1.4)", "Apache-HttpClient"),
            ("Java/1.8.0_271", "Java"),
            ("Go-http-client/1.1", "Go-http-client"),
        ],
    )
    def test_script_tools(self, ua, name):
        info = parse_user_agent(ua)
        assert info.kind == AgentKind.SCRIPT
        assert info.name == name


class TestBrowsers:
    def test_chrome_windows(self):
        info = parse_user_agent(CHROME_WIN)
        assert info.kind == AgentKind.BROWSER
        assert info.name == "Chrome"
        assert info.device == "Windows PC"

    def test_safari_iphone(self):
        info = parse_user_agent(
            "Mozilla/5.0 (iPhone; CPU iPhone OS 15_0 like Mac OS X) "
            "AppleWebKit/605.1.15 Version/15.0 Mobile/15E148 Safari/604.1"
        )
        assert info.kind == AgentKind.BROWSER
        assert info.device == "iPhone"

    def test_bare_mozilla_is_browser(self):
        assert parse_user_agent("Mozilla/4.0").kind == AgentKind.BROWSER


class TestInApp:
    @pytest.mark.parametrize(
        "ua,name",
        [
            ("Mozilla/5.0 (iPhone) WhatsApp/2.21.1", "WhatsApp"),
            (
                "Mozilla/5.0 (Linux; Android 10) MicroMessenger/8.0.1",
                "WeChat",
            ),
            (
                "Mozilla/5.0 (iPhone) [FB_IAB/FB4A;FBAV/350.0;]",
                "Facebook",
            ),
            ("Mozilla/5.0 (Linux; Android 11) Instagram 200.0", "Instagram"),
            ("Mozilla/5.0 (Linux; Android 9) DingTalk/6.0", "DingTalk"),
        ],
    )
    def test_inapp_browsers(self, ua, name):
        info = parse_user_agent(ua)
        assert info.kind == AgentKind.INAPP_BROWSER
        assert info.name == name

    def test_inapp_beats_host_browser(self):
        info = parse_user_agent(CHROME_WIN + " WhatsApp/2.0")
        assert info.kind == AgentKind.INAPP_BROWSER


class TestUnknown:
    def test_empty(self):
        assert parse_user_agent("").kind == AgentKind.UNKNOWN
        assert parse_user_agent("   ").kind == AgentKind.UNKNOWN

    def test_gibberish(self):
        assert parse_user_agent("x").kind == AgentKind.UNKNOWN
