"""The columnar §6 path equals the per-request reference models.

- Filter plus categorizer: ``TwoStageFilter.apply_batch`` followed by
  ``TrafficCategorizer.categorize_batch`` classifies every row exactly
  as :func:`reference_apply` plus :class:`ReferenceCategorizer` do —
  category, subcategory and agent name, with and without stream
  reclassification.
- Draw stream: ``HoneypotTrafficGenerator.generate_batch`` yields the
  reference generator's requests field for field and leaves the
  honeypot generator in the same state; so do the calibration
  generators.
- Structure: a whole study report builds no request, packet or
  categorized-request object (``test_edges.py`` checks the same
  statically: where ``src`` may build or accept one).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.study import NxdomainStudy, StudyConfig
from repro.honeypot import categorize as categorize_mod
from repro.honeypot import http as http_mod
from repro.honeypot.batch import PacketBatch, RequestBatch
from repro.honeypot.categorize import TrafficCategorizer
from repro.honeypot.filtering import TwoStageFilter
from repro.honeypot.http import HttpRequest
from repro.honeypot.recorder import TrafficRecorder
from repro.honeypot.reverse_ip import ReverseIpTable
from repro.honeypot.webfilter import WebFilter
from repro.rand import make_rng
from repro.workloads.control import (
    generate_control_traffic,
    generate_no_hosting_baseline,
    generate_platform_packets,
)
from repro.workloads.domains import registered_domain_profiles
from repro.workloads.honeytraffic import HoneypotTrafficGenerator

from tests.honeypot import reference as reference_mod
from tests.honeypot.reference import (
    ReferenceCategorizer,
    ReferenceTrafficGenerator,
    categorize_requests,
    categorized_items,
    reference_apply,
    reference_control_traffic,
    reference_no_hosting_baseline,
    reference_platform_packets,
)
from tests.honeypot.test_categorize_memo import IPS, _context, requests_strategy


def _filter():
    no_hosting = TrafficRecorder("no-hosting")
    no_hosting.record_packet_batch(PacketBatch.of([0], src_ip=IPS[3], port=22))
    control = TrafficRecorder("control-group")
    control.record_batch(
        RequestBatch.of(
            [0, 0], src_ip=[IPS[1], "203.0.113.9"], host="ctrl.example",
            path=["/.well-known/acme-challenge/token", "/page/3"], query=["", "x"],
        )
    )
    return TwoStageFilter.calibrated(no_hosting, control)


def _rows(items):
    return [(i.request, i.category, i.subcategory, i.agent_name) for i in items]


@settings(max_examples=200, deadline=None)
@given(
    requests=st.lists(requests_strategy, max_size=80),
    threshold=st.sampled_from((None, 1, 50)),
)
def test_columnar_filter_and_categorizer_match_reference(requests, threshold):
    noise_filter = _filter()
    kept, stats = noise_filter.apply_batch(RequestBatch.from_requests(requests))
    reference_kept, reference_stats = reference_apply(noise_filter, requests)
    assert stats == reference_stats
    assert kept.to_requests() == reference_kept

    reverse_ip, web_filter = _context()
    columnar = TrafficCategorizer(reverse_ip=reverse_ip, web_filter=web_filter)
    reference = ReferenceCategorizer(reverse_ip=reverse_ip, web_filter=web_filter)
    categorized = columnar.categorize_batch(kept, threshold)
    assert _rows(categorized_items(categorized)) == _rows(
        reference.categorize_many(reference_kept, threshold)
    )


def test_every_branch_matches_reference():
    """One request per Figure 11 branch, plus a reclassified stream."""
    from repro.workloads import useragents as ua

    chrome = ua.PC_MOBILE_BROWSERS[0][0]
    branches = [
        dict(referer="https://www.google.com/search?q=x"),
        dict(referer="https://forum.example.org/thread"),
        dict(referer="https://dead.example-gone.net/x"),
        dict(user_agent=ua.SEARCH_CRAWLERS_GLOBAL[0][0], path="/index.html"),
        dict(user_agent=ua.EMAIL_CRAWLERS[0][0], path="/img/logo.png"),
        dict(src_ip="66.249.66.1", path="/Feed.HTML"),
        dict(src_ip="40.77.1.2", path="/archive.tar.gz"),
        dict(user_agent=ua.INAPP_BROWSERS[0][0], path="/shared/1"),
        dict(user_agent=chrome, path="/page/1"),
        dict(user_agent="curl/7.85.0", path="/status.json"),
        dict(user_agent="curl/7.85.0", path="/wp-login.php"),
        dict(path="/getTask.php", query="imei=1&os=23"),
        dict(path="/data/feed.xml"),
        dict(path="/"),
    ] + [dict(src_ip="10.0.0.9", user_agent=chrome, path="/status.json")] * 3
    requests = [
        HttpRequest(**{"timestamp": 0, "src_ip": "10.0.0.1",
                       "host": "resheba.online", **fields})
        for fields in branches
    ]
    reverse_ip, web_filter = _context()
    columnar = TrafficCategorizer(reverse_ip=reverse_ip, web_filter=web_filter)
    reference = ReferenceCategorizer(reverse_ip=reverse_ip, web_filter=web_filter)
    items = categorize_requests(columnar, requests, stream_threshold=3)
    assert _rows(items) == _rows(reference.categorize_many(requests, 3))
    assert {item.subcategory for item in items} == set(categorize_mod.Subcategory)
    assert items[-1].category == categorize_mod.Category.AUTOMATED
    assert [item.agent_name for item in items[5:7]] == ["Google crawler", "Bing crawler"]


def test_stream_threshold_counts_equal_uris_from_different_fields():
    """``/page/3?x`` with no query and ``/page/3`` with query ``x`` are
    one URI to the stream rule."""
    reverse_ip, web_filter = _context()
    agent = "Mozilla/5.0 (Windows NT 10.0) Chrome/100.0 Safari/537.36"
    requests = [
        HttpRequest(timestamp=0, src_ip="10.0.0.1", host="a.com", path="/page/3?x",
                    user_agent=agent),
        HttpRequest(timestamp=1, src_ip="10.0.0.1", host="a.com", path="/page/3",
                    query="x", user_agent=agent),
    ]
    columnar = TrafficCategorizer(reverse_ip=reverse_ip, web_filter=web_filter)
    reference = ReferenceCategorizer(reverse_ip=reverse_ip, web_filter=web_filter)
    items = categorize_requests(columnar, requests, stream_threshold=2)
    assert _rows(items) == _rows(reference.categorize_many(requests, 2))
    assert {item.category.value for item in items} == {"automated-process"}


def _generators(seed, scale):
    pair = []
    for cls in (HoneypotTrafficGenerator, ReferenceTrafficGenerator):
        reverse_ip, web_filter = ReverseIpTable(), WebFilter()
        rng = make_rng(seed)
        pair.append((cls(rng, scale=scale, reverse_ip=reverse_ip, web_filter=web_filter),
                     rng, reverse_ip, web_filter))
    return pair


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("scale", [0.001, 0.005])
def test_generate_batch_keeps_the_draw_stream(seed, scale):
    (ours, our_rng, our_ptr, our_pages), (theirs, their_rng, their_ptr, their_pages) = (
        _generators(seed, scale)
    )
    batch = ours.generate_batch(include_noise=True)
    assert batch.to_requests() == theirs.generate(include_noise=True)
    assert our_rng.bit_generator.state == their_rng.bit_generator.state
    # The side tables the categorizer reads are filled the same way.
    assert our_ptr._ptr == their_ptr._ptr
    assert our_pages._pages == their_pages._pages


@pytest.mark.parametrize("count", [1, 119, 600, 601, 719, 1_000])
def test_polling_fleet_keeps_the_draw_stream(count):
    """One vector ``normal`` per bot equals the reference's scalar
    draws.  ``count // 120`` bots (at least one) poll ``count //
    fleet_size`` times each: a count that is no multiple of the fleet
    leaves the remainder unemitted, in both."""
    (ours, our_rng, *_), (theirs, their_rng, *_) = _generators(5, 0.001)
    profile = next(p for p in registered_domain_profiles() if p.polling_fleet)
    fleet_size = max(count // 120, 1)
    batch = ours._emit_script_software(profile, count)
    assert len(batch) == fleet_size * max(count // fleet_size, 1)
    assert batch.to_requests() == theirs._emit_script_software(profile, count)
    assert our_rng.bit_generator.state == their_rng.bit_generator.state


@pytest.mark.parametrize("seed", [0, 4])
def test_calibration_generators_keep_the_draw_stream(seed):
    ours, theirs = make_rng(seed), make_rng(seed)
    recorder = generate_no_hosting_baseline(ours, 400)
    expected_packets = reference_no_hosting_baseline(theirs, 400)
    assert recorder.request_batch().to_requests() == []
    assert recorder.packet_batch().to_packets() == expected_packets
    recorder = generate_control_traffic(ours, 400)
    expected_requests, expected_packets = reference_control_traffic(theirs, 400)
    assert recorder.request_batch().to_requests() == expected_requests
    assert recorder.packet_batch().to_packets() == expected_packets
    packets = generate_platform_packets(ours, 300)
    assert packets.to_packets() == reference_platform_packets(theirs, 300)
    assert ours.bit_generator.state == theirs.bit_generator.state


def test_full_report_builds_no_per_request_objects(monkeypatch):
    built = {"HttpRequest": 0, "PacketRecord": 0, "CategorizedRequest": 0}
    for module, name in (
        (http_mod, "HttpRequest"),
        (http_mod, "PacketRecord"),
        (reference_mod, "CategorizedRequest"),
    ):
        cls = getattr(module, name)
        original = cls.__init__

        def counting(self, *args, __original=original, __name=name, **kwargs):
            built[__name] += 1
            __original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    config = StudyConfig(trace_domains=300, squat_count=50)
    report = NxdomainStudy(0, config).full_report()
    assert "Table 1" in report
    assert built == {"HttpRequest": 0, "PacketRecord": 0, "CategorizedRequest": 0}
    # The counters do see objects when a caller asks for them.
    HttpRequest(timestamp=0, src_ip="10.0.0.1", host="a.com")
    assert built["HttpRequest"] == 1
