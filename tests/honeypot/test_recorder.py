"""TrafficRecorder views over its columns: windows and per-host requests.

:meth:`window` cuts both streams to a time range whether or not they
arrived time-ordered, and nested windows cut again.
``requests_for_host`` matches the Host header case-insensitively and
sees every append made before the call.
"""

from repro.honeypot.http import HttpRequest, PacketRecord
from repro.honeypot.recorder import TrafficRecorder


def _packet(ts, port=80, src="10.0.0.1"):
    return PacketRecord(timestamp=ts, src_ip=src, dst_port=port)


def _request(ts, host="a.example", src="10.0.0.2"):
    return HttpRequest(timestamp=ts, src_ip=src, host=host)


def _fill_sorted(recorder, n=50):
    for i in range(n):
        recorder.record_packet(_packet(100 + i, port=22 + i % 3))
        recorder.record_request(_request(100 + i, host=f"h{i % 4}.example"))
    return recorder


def _window_contents(view):
    return (
        [(p.timestamp, p.dst_port) for p in view.packets()],
        [(r.timestamp, r.host) for r in view.requests()],
    )


def test_window_bisected_matches_linear_scan():
    recorder = _fill_sorted(TrafficRecorder())
    for start, end in [(100, 150), (110, 120), (0, 99), (149, 1_000), (5, 5)]:
        packets, requests = _window_contents(recorder.window(start, end))
        assert requests == [
            (r.timestamp, r.host)
            for r in recorder.requests()
            if start <= r.timestamp < end
        ]
        assert packets == [
            (p.timestamp, p.dst_port)
            for p in recorder.packets()
            if start <= p.timestamp < end
        ]


def test_out_of_order_append_falls_back_to_scan():
    recorder = _fill_sorted(TrafficRecorder())
    recorder.record_packet(_packet(50))  # before everything: unsorted now
    recorder.record_request(_request(60, host="late.example"))
    view = recorder.window(40, 115)
    timestamps = [p.timestamp for p in view.packets()]
    assert 50 in timestamps and 60 in timestamps
    assert [r.timestamp for r in view.requests()] == [
        r.timestamp for r in recorder.requests() if 40 <= r.timestamp < 115
    ]


def test_nested_windows_keep_bisecting():
    recorder = _fill_sorted(TrafficRecorder(), n=80)
    outer = recorder.window(110, 170)
    inner = outer.window(120, 130)
    assert _window_contents(inner) == (
        [
            (p.timestamp, p.dst_port)
            for p in recorder.packets()
            if 120 <= p.timestamp < 130
        ],
        [
            (r.timestamp, r.host)
            for r in recorder.requests()
            if 120 <= r.timestamp < 130
        ],
    )


def test_window_of_unsorted_view_resorts_when_filtered_sorted():
    """A scan-built view whose surviving records happen to be sorted
    regains the bisection path for its own nested windows."""
    recorder = TrafficRecorder()
    for ts in (10, 30, 20, 40, 50):
        recorder.record_packet(_packet(ts))
    view = recorder.window(35, 60)  # survivors 40, 50: sorted again
    nested = view.window(45, 60)
    assert [p.timestamp for p in nested.packets()] == [50]


def test_requests_for_host_matches_filter_and_preserves_order():
    recorder = _fill_sorted(TrafficRecorder())
    for host in ("h0.example", "h3.example", "H1.EXAMPLE", "missing.example"):
        assert recorder.requests_for_host(host) == [
            r
            for r in recorder.requests()
            if r.host.lower() == host.lower()
        ]


def test_host_index_invalidated_by_append():
    recorder = TrafficRecorder()
    recorder.record_request(_request(1, host="a.example"))
    assert len(recorder.requests_for_host("a.example")) == 1
    # The next query must see the post-index append.
    recorder.record_request(_request(2, host="a.example"))
    assert len(recorder.requests_for_host("a.example")) == 2
    recorder.record_request(_request(3, host="b.example"))
    assert len(recorder.requests_for_host("b.example")) == 1


def test_columns_round_trip_method_headers_and_packet_order():
    """The recorder stores columns only: every recorded request and
    packet, including a non-GET request with headers, comes back equal
    and in arrival order, with each request's packet shadow in place."""
    recorder = TrafficRecorder()
    post = HttpRequest(
        timestamp=5, src_ip="10.0.0.3", host="a.example", path="/form",
        query="x=1", method="POST", port=443, user_agent="curl/7.85.0",
        headers={"Content-Type": "text/plain"},
    )
    recorder.record_packet(_packet(1))
    recorder.record_request(_request(2))
    recorder.record_request(post)
    recorder.record_packet(_packet(3, port=22))
    assert recorder.requests() == [_request(2), post]
    assert recorder.packets() == [
        _packet(1), _request(2).to_packet(), post.to_packet(), _packet(3, port=22)
    ]
    assert recorder.request_count == 2 and recorder.packet_count == 4


def test_batches_validate_like_requests():
    import pytest

    from repro.errors import ConfigError
    from repro.honeypot.batch import PacketBatch, RequestBatch

    with pytest.raises(ConfigError):
        RequestBatch.of([0], src_ip="10.0.0.1", host="a.example", path="nope")
    with pytest.raises(ConfigError):
        RequestBatch.of([0], src_ip="10.0.0.1", host="a.example", port=8080)
    with pytest.raises(ConfigError):
        PacketBatch.of([0], src_ip="10.0.0.1", port=70_000)
    with pytest.raises(ConfigError):
        PacketBatch.of([0], src_ip="10.0.0.1", port=22, payload_size=-1)
