"""Honeypot survival of recorder failures.

The §6 deployment must keep serving its landing page even when the
capture side wedges — a visibly broken host would perturb the very
traffic being measured — and quarantined traffic must be recoverable
once the recorder comes back.
"""

from repro.errors import TransientStoreError
from repro.honeypot.batch import PacketBatch
from repro.honeypot.http import HttpRequest
from repro.honeypot.server import LANDING_PAGE, NxdHoneypot
from repro.resilience import DeadLetterQueue


def _request(i=0):
    return HttpRequest(timestamp=1_000 + i, src_ip="203.0.113.9", host="x.com")


def _packet(i=0):
    return PacketBatch.of([1_000 + i], src_ip="203.0.113.9", port=22)


def _fail_writes(monkeypatch, recorder):
    """Make every recorder write raise, as a full disk would."""

    def fail(item):
        raise TransientStoreError("disk full")

    for method in ("record_request", "record_batch", "record_packet_batch"):
        monkeypatch.setattr(recorder, method, fail)


def test_recorder_failure_still_serves_the_landing_page(monkeypatch):
    honeypot = NxdHoneypot(["x.com"])
    _fail_writes(monkeypatch, honeypot.recorder)
    assert honeypot.accept_request(_request()) == LANDING_PAGE
    honeypot.accept_packet_batch(_packet())
    assert honeypot.recorder_errors == 2
    assert honeypot.recorder.request_count == 0
    assert honeypot.pages_served == 1


def test_dead_lettered_traffic_replays_after_recovery(monkeypatch):
    queue = DeadLetterQueue(capacity=16)
    honeypot = NxdHoneypot(["x.com"], dead_letters=queue)
    _fail_writes(monkeypatch, honeypot.recorder)
    honeypot.accept_request(_request(0))
    honeypot.accept_packet_batch(_packet(1))
    assert len(queue) == 2
    monkeypatch.undo()  # the recorder recovers
    stats = honeypot.replay_dead_letters()
    assert stats.succeeded == 2
    assert honeypot.recorder.request_count == 1
    # The replayed request also re-creates its transport-level shadow.
    assert len(honeypot.recorder.packet_batch()) == 2


def test_replay_without_queue_is_a_noop():
    honeypot = NxdHoneypot(["x.com"])
    assert honeypot.replay_dead_letters().replayed == 0


def test_healthy_capture_path_is_unchanged():
    honeypot = NxdHoneypot(["x.com"])
    assert honeypot.accept_request(_request()) == LANDING_PAGE
    honeypot.accept_packet_batch(_packet())
    assert honeypot.recorder.request_count == 1
    assert len(honeypot.recorder.packet_batch()) == 2
    assert honeypot.recorder_errors == 0
