"""Honeypot survival of recorder failures.

The §6 deployment must keep serving its landing page even when the
capture side wedges — a visibly broken host would perturb the very
traffic being measured — and quarantined traffic must be recoverable
once the recorder comes back.
"""

import pytest

from repro.errors import TransientStoreError
from repro.faults import FaultPlan
from repro.honeypot.batch import PacketBatch
from repro.honeypot.http import HttpRequest
from repro.honeypot.server import LANDING_PAGE, NxdHoneypot
from repro.resilience import DeadLetterQueue

from tests.faults.reference import check


def _request(i=0):
    return HttpRequest(timestamp=1_000 + i, src_ip="203.0.113.9", host="x.com")


def _packet(i=0):
    return PacketBatch.of([1_000 + i], src_ip="203.0.113.9", port=22)


def _always_fail(context):
    raise TransientStoreError(f"disk full ({context})")


def test_recorder_failure_still_serves_the_landing_page():
    honeypot = NxdHoneypot(["x.com"])
    honeypot.recorder.fault_hook = _always_fail
    assert honeypot.accept_request(_request()) == LANDING_PAGE
    honeypot.accept_packet_batch(_packet())
    assert honeypot.recorder_errors == 2
    assert honeypot.recorder.request_count == 0
    assert honeypot.pages_served == 1


def test_dead_lettered_traffic_replays_after_recovery():
    queue = DeadLetterQueue(capacity=16)
    honeypot = NxdHoneypot(["x.com"], dead_letters=queue)
    honeypot.recorder.fault_hook = _always_fail
    honeypot.accept_request(_request(0))
    honeypot.accept_packet_batch(_packet(1))
    assert len(queue) == 2
    honeypot.recorder.fault_hook = None  # the recorder recovers
    stats = honeypot.replay_dead_letters()
    assert stats.succeeded == 2
    assert honeypot.recorder.request_count == 1
    # The replayed request also re-creates its transport-level shadow.
    assert honeypot.recorder.packet_count == 2


def test_replay_without_queue_is_a_noop():
    honeypot = NxdHoneypot(["x.com"])
    assert honeypot.replay_dead_letters().replayed == 0


def test_store_injector_drives_the_recorder_hook():
    """The fault schedule's store injector plugs straight in."""
    schedule = FaultPlan(store_failure_rate=1.0).schedule(3)
    honeypot = NxdHoneypot(["x.com"])
    honeypot.recorder.fault_hook = lambda context: check(schedule.store, context)
    assert honeypot.accept_request(_request()) == LANDING_PAGE
    assert honeypot.recorder_errors == 1
    assert schedule.store.injected == 1


def test_healthy_capture_path_is_unchanged():
    honeypot = NxdHoneypot(["x.com"])
    assert honeypot.accept_request(_request()) == LANDING_PAGE
    honeypot.accept_packet_batch(_packet())
    assert honeypot.recorder.request_count == 1
    assert honeypot.recorder.packet_count == 2
    assert honeypot.recorder_errors == 0
