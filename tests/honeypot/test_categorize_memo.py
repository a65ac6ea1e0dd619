"""The categorizer's per-instance memos never change a verdict.

``TrafficCategorizer`` parses each distinct User-Agent once and its
``VulnerabilityDatabase`` judges each distinct (path, query) once.  The
per-request reference categorizer with empty memos — a fresh one per
request — is the reference: a long-lived categorizer must classify every request the
same way, including after ``VulnerabilityDatabase.add`` changes what
counts as sensitive.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.honeypot.categorize import Category, TrafficCategorizer
from repro.honeypot.http import HttpRequest
from repro.honeypot.nvd import SENSITIVE_FILES, Severity, VulnerabilityDatabase
from repro.honeypot.reverse_ip import ReverseIpTable
from repro.honeypot.webfilter import WebFilter, WebPage
from repro.workloads import useragents as ua

from tests.honeypot.reference import (
    CategorizedRequest,
    ReferenceCategorizer,
    categorize_requests,
)

USER_AGENTS = (
    "",
    "   ",
    "SomethingOdd/1.0",
    ua.POLLING_FLEET_UA,
    ua.LETSENCRYPT_UA,
    "Apache-HttpClient/UNAVAILABLE (java 1.4)",
    "Mozilla/5.0",
) + tuple(
    agent
    for pool in (
        ua.SEARCH_CRAWLERS_GLOBAL,
        ua.SEARCH_CRAWLERS_RU,
        ua.FILE_GRABBERS,
        ua.EMAIL_CRAWLERS,
        ua.SCRIPT_TOOLS,
        ua.PC_MOBILE_BROWSERS,
        ua.INAPP_BROWSERS,
    )
    for agent, _ in pool
)
PATHS = (
    "/", "/index.html", "/img/logo.png", "/wp-login.php", "/phpmyadmin/x.php",
    "/status.json", "/getTask.php", "/newprobe.php", "/files/newprobe.php",
    "/.git/config", "/page/3", "/.well-known/acme-challenge/token",
    "/Feed.HTML", "/archive.tar.gz", "/page/3?x", "/dir.d/",
)
QUERIES = (
    "", "page=2", "cmd=ls", "CMD=ls", "a=1&imei=3-1&os=23", "x", "&&", "redirect=",
    "q=newprobe",
)
REFERERS = (
    "https://www.google.com/search?q=x",
    "https://forum.example.org/thread",
    "https://dead.example-gone.net/x",
    "http://go.mail.ru/search?q=resheba",
    "https://forum.example.org/thread/",
)
IPS = (
    "10.0.0.1", "10.0.0.2", "66.249.66.1", "192.0.2.7", "40.77.1.2",
    "3.88.4.5", "52.101.0.9",
)
HOSTS = ("resheba.online", "gpclick.com", "Conf-CDN.com", "RESHEBA.online")


def _context():
    reverse_ip = ReverseIpTable()
    reverse_ip.register("66.249.66.1", "crawl-66-249-66-1.googlebot.com")
    reverse_ip.register("40.77.1.2", "msnbot-40-77-1-2.search.msn.com")
    reverse_ip.register("3.88.4.5", "ec2-3-88-4-5.amazonaws.com")
    reverse_ip.register("52.101.0.9", "unlisted.example.net")
    web_filter = WebFilter()
    web_filter.register_page(
        WebPage(
            "https://forum.example.org/thread",
            category="forums-blogs",
            linked_domains={"resheba.online"},
        )
    )
    return reverse_ip, web_filter


requests_strategy = st.builds(
    HttpRequest,
    timestamp=st.integers(0, 1000),
    src_ip=st.sampled_from(IPS),
    host=st.sampled_from(HOSTS),
    path=st.sampled_from(PATHS),
    query=st.sampled_from(QUERIES),
    port=st.sampled_from((80, 443)),
    user_agent=st.sampled_from(USER_AGENTS),
    referer=st.one_of(st.just(""), st.just(""), st.sampled_from(REFERERS)),
)


def _reference(requests, files, threshold):
    """Fresh categorizer per request, then the stream rule by hand."""
    reverse_ip, web_filter = _context()

    def fresh():
        return ReferenceCategorizer(
            nvd=VulnerabilityDatabase(files=files),
            reverse_ip=reverse_ip,
            web_filter=web_filter,
        )

    items = [fresh().categorize(request) for request in requests]
    if threshold is None:
        return items
    counts = Counter((r.src_ip, r.uri) for r in requests)
    out = []
    for item in items:
        request = item.request
        if (
            item.category == Category.USER_VISIT
            and counts[(request.src_ip, request.uri)] >= threshold
        ):
            item = CategorizedRequest(
                request,
                Category.AUTOMATED,
                fresh().automated_subtype(request),
                item.agent_name,
            )
        out.append(item)
    return out


@settings(max_examples=150, deadline=None)
@given(
    first=st.lists(requests_strategy, max_size=60),
    second=st.lists(requests_strategy, max_size=60),
    threshold=st.sampled_from((None, 1, 2, 3, 50)),
)
def test_memoized_categorize_many_matches_fresh_categorize(first, second, threshold):
    reverse_ip, web_filter = _context()
    nvd = VulnerabilityDatabase()
    categorizer = TrafficCategorizer(
        nvd=nvd, reverse_ip=reverse_ip, web_filter=web_filter
    )
    files = dict(SENSITIVE_FILES)
    assert categorize_requests(categorizer, first, threshold) == _reference(
        first, files, threshold
    )
    # A database update between batches must reach remembered verdicts.
    nvd.add("newprobe.php", Severity.HIGH)
    files["newprobe.php"] = Severity.HIGH
    assert categorize_requests(categorizer, second, threshold) == _reference(
        second, files, threshold
    )
    # And a replay of the first batch sees the new database too.
    assert categorize_requests(categorizer, first, threshold) == _reference(
        first, files, threshold
    )


def _subcategory(categorizer, request):
    """The one request's subcategory, without stream reclassification."""
    [item] = categorize_requests(categorizer, [request], stream_threshold=None)
    return item.subcategory.value


def test_add_flips_a_remembered_verdict():
    nvd = VulnerabilityDatabase()
    categorizer = TrafficCategorizer(nvd=nvd)
    probe = HttpRequest(
        timestamp=0, src_ip="10.0.0.1", host="a.com", path="/newprobe.php",
        user_agent="curl/7.85.0",
    )
    assert _subcategory(categorizer, probe) == "script-software"
    assert nvd.is_malicious_uri("/newprobe.php", "") is False
    nvd.add("newprobe.php", Severity.HIGH)
    assert nvd.is_malicious_uri("/newprobe.php", "") is True
    assert _subcategory(categorizer, probe) == "malicious-request"


def test_memos_belong_to_their_instance():
    """Two categorizers share no memo: one's update never reaches the other."""
    left = TrafficCategorizer()
    right = TrafficCategorizer()
    probe = HttpRequest(
        timestamp=0, src_ip="10.0.0.1", host="a.com", path="/newprobe.php",
        user_agent="curl/7.85.0",
    )
    _subcategory(left, probe)
    _subcategory(right, probe)
    left.nvd.add("newprobe.php", Severity.HIGH)
    assert _subcategory(left, probe) == "malicious-request"
    assert _subcategory(right, probe) == "script-software"
