"""TrafficRecorder views over its columns: windows and per-host rows.

:meth:`window` cuts both streams to a time range whether or not they
arrived time-ordered, and nested windows cut again.  Buffered single
requests interleaved with packet batches keep their arrival order, with
each request's packet shadow in place.  ``host_rows`` matches the Host
header case-insensitively and sees every append made before the read.
"""

from repro.honeypot.batch import PacketBatch
from repro.honeypot.http import HttpRequest
from repro.honeypot.recorder import TrafficRecorder

from tests.honeypot.reference import reference_shadow


def _packet(ts, port=80, src="10.0.0.1"):
    return PacketBatch.of([ts], src_ip=src, port=port)


def _request(ts, host="a.example", src="10.0.0.2"):
    return HttpRequest(timestamp=ts, src_ip=src, host=host)


def _requests(recorder):
    return recorder.request_batch().to_requests()


def _packets(recorder):
    return recorder.packet_batch().to_packets()


def _fill_sorted(recorder, n=50):
    for i in range(n):
        recorder.record_packet_batch(_packet(100 + i, port=22 + i % 3))
        recorder.record_request(_request(100 + i, host=f"h{i % 4}.example"))
    return recorder


def _window_contents(view):
    return (
        [(p.timestamp, p.dst_port) for p in _packets(view)],
        [(r.timestamp, r.host) for r in _requests(view)],
    )


def test_window_bisected_matches_linear_scan():
    recorder = _fill_sorted(TrafficRecorder())
    for start, end in [(100, 150), (110, 120), (0, 99), (149, 1_000), (5, 5)]:
        packets, requests = _window_contents(recorder.window(start, end))
        assert requests == [
            (r.timestamp, r.host)
            for r in _requests(recorder)
            if start <= r.timestamp < end
        ]
        assert packets == [
            (p.timestamp, p.dst_port)
            for p in _packets(recorder)
            if start <= p.timestamp < end
        ]


def test_out_of_order_append_falls_back_to_scan():
    recorder = _fill_sorted(TrafficRecorder())
    recorder.record_packet_batch(_packet(50))  # before everything: unsorted now
    recorder.record_request(_request(60, host="late.example"))
    view = recorder.window(40, 115)
    timestamps = [p.timestamp for p in _packets(view)]
    assert 50 in timestamps and 60 in timestamps
    assert [r.timestamp for r in _requests(view)] == [
        r.timestamp for r in _requests(recorder) if 40 <= r.timestamp < 115
    ]


def test_nested_windows_keep_bisecting():
    recorder = _fill_sorted(TrafficRecorder(), n=80)
    outer = recorder.window(110, 170)
    inner = outer.window(120, 130)
    assert _window_contents(inner) == (
        [
            (p.timestamp, p.dst_port)
            for p in _packets(recorder)
            if 120 <= p.timestamp < 130
        ],
        [
            (r.timestamp, r.host)
            for r in _requests(recorder)
            if 120 <= r.timestamp < 130
        ],
    )


def test_window_of_unsorted_view_resorts_when_filtered_sorted():
    """A scan-built view whose surviving records happen to be sorted
    regains the bisection path for its own nested windows."""
    recorder = TrafficRecorder()
    for ts in (10, 30, 20, 40, 50):
        recorder.record_packet_batch(_packet(ts))
    view = recorder.window(35, 60)  # survivors 40, 50: sorted again
    nested = view.window(45, 60)
    assert [p.timestamp for p in _packets(nested)] == [50]


def test_host_rows_match_filter_and_preserve_order():
    recorder = _fill_sorted(TrafficRecorder())
    batch = recorder.request_batch()
    for host in ("h0.example", "h3.example", "H1.EXAMPLE", "missing.example"):
        assert batch.take(batch.host_rows(host)).to_requests() == [
            r
            for r in _requests(recorder)
            if r.host.lower() == host.lower()
        ]


def test_host_index_invalidated_by_append():
    recorder = TrafficRecorder()
    recorder.record_request(_request(1, host="a.example"))
    assert recorder.request_batch().host_rows("a.example").sum() == 1
    # The next read must see the post-read append.
    recorder.record_request(_request(2, host="a.example"))
    assert recorder.request_batch().host_rows("a.example").sum() == 2
    recorder.record_request(_request(3, host="b.example"))
    assert recorder.request_batch().host_rows("b.example").sum() == 1


def test_buffered_requests_interleave_with_packet_batches():
    """Single requests are buffered and columnized on the next batch
    write or read: requests and packets come back in arrival order,
    each request's packet shadow where the request arrived."""
    recorder = TrafficRecorder()
    tls = HttpRequest(
        timestamp=5, src_ip="10.0.0.3", host="a.example", path="/form",
        query="x=1", port=443, user_agent="curl/7.85.0",
    )
    recorder.record_packet_batch(_packet(1))
    recorder.record_request(_request(2))
    recorder.record_request(tls)
    assert recorder.request_count == 2 and len(recorder.packet_batch()) == 3
    recorder.record_packet_batch(_packet(3, port=22))
    recorder.record_request(_request(4, host="b.example"))
    assert recorder.request_count == 3 and len(recorder.packet_batch()) == 5
    assert _requests(recorder) == [_request(2), tls, _request(4, host="b.example")]
    assert _packets(recorder) == [
        *_packet(1).to_packets(),
        reference_shadow(_request(2)),
        reference_shadow(tls),
        *_packet(3, port=22).to_packets(),
        reference_shadow(_request(4, host="b.example")),
    ]
    # A read flushes the buffer; later writes append after it.
    recorder.record_request(_request(6))
    recorder.record_packet_batch(_packet(7, port=53))
    assert _requests(recorder)[-1] == _request(6)
    assert _packets(recorder)[-2:] == [
        reference_shadow(_request(6)),
        *_packet(7, port=53).to_packets(),
    ]


def test_batches_validate_like_requests():
    import pytest

    from repro.errors import ConfigError
    from repro.honeypot.batch import RequestBatch

    with pytest.raises(ConfigError):
        RequestBatch.of([0], src_ip="10.0.0.1", host="a.example", path="nope")
    with pytest.raises(ConfigError):
        RequestBatch.of([0], src_ip="10.0.0.1", host="a.example", port=8080)
    with pytest.raises(ConfigError):
        PacketBatch.of([0], src_ip="10.0.0.1", port=70_000)
    with pytest.raises(ConfigError):
        PacketBatch.of([0], src_ip="10.0.0.1", port=22, payload_size=-1)
