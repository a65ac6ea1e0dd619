"""Admission control: bounded queue, tenant buckets, shed ladder."""

import pytest

from repro.errors import ConfigError
from repro.resilience.ratelimit import RateLimit
from repro.serving import (
    AdmissionController,
    AdmissionPolicy,
    Decision,
    QueryRequest,
    TopDomainsQuery,
)


def _request(priority=1, tenant="default", budget=None, n=10):
    return QueryRequest(
        query=TopDomainsQuery(n=n), tenant=tenant, priority=priority,
        budget=budget,
    )


def test_policy_and_request_validation():
    with pytest.raises(ConfigError):
        AdmissionPolicy(queue_capacity=0)
    with pytest.raises(ConfigError):
        AdmissionPolicy(shed_start=0.9, shed_hard=0.5)
    with pytest.raises(ConfigError):
        QueryRequest(query=TopDomainsQuery(), priority=7)
    with pytest.raises(ConfigError):
        QueryRequest(query=TopDomainsQuery(), budget=0)


def test_bounded_queue_refuses_past_capacity():
    controller = AdmissionController(
        AdmissionPolicy(queue_capacity=2, tenant_limit=None, shed_hard=1.0,
                        shed_start=0.99)
    )
    assert controller.offer(_request(), cost=1, now=0)[0] is Decision.ADMITTED
    assert controller.offer(_request(), cost=1, now=0)[0] is Decision.ADMITTED
    decision, ticket, _ = controller.offer(_request(), cost=1, now=0)
    assert decision is Decision.QUEUE_FULL and ticket is None
    assert controller.counters()["queue_full"] == 1


def test_tenant_buckets_are_isolated_and_carry_retry_after():
    controller = AdmissionController(
        AdmissionPolicy(
            queue_capacity=100,
            tenant_limit=RateLimit(capacity=2, window_seconds=60),
            shed_start=0.99,
            shed_hard=1.0,
        )
    )
    for _ in range(2):
        assert (
            controller.offer(_request(tenant="noisy"), 1, now=10)[0]
            is Decision.ADMITTED
        )
    decision, _, retry_after = controller.offer(
        _request(tenant="noisy"), 1, now=30
    )
    assert decision is Decision.RATE_LIMITED
    assert retry_after == 40  # window opened at 10, resets at 70
    # The noisy tenant's exhaustion never touches the quiet tenant.
    assert (
        controller.offer(_request(tenant="quiet"), 1, now=30)[0]
        is Decision.ADMITTED
    )


def test_shed_ladder_raises_the_priority_floor():
    policy = AdmissionPolicy(
        queue_capacity=10, cost_capacity=10_000, shed_start=0.3,
        shed_hard=0.6, tenant_limit=None,
    )
    controller = AdmissionController(policy)
    # Below shed_start: everything admitted.
    assert controller.offer(_request(priority=0), 1, now=0)[0] is Decision.ADMITTED
    assert controller.shed_floor() == 0
    for _ in range(2):
        controller.offer(_request(priority=1), 1, now=0)
    # 3 of 10 queued -> pressure 0.3 >= shed_start: best-effort sheds.
    assert controller.shed_floor() == 1
    assert controller.offer(_request(priority=0), 1, now=0)[0] is Decision.SHED
    assert controller.offer(_request(priority=1), 1, now=0)[0] is Decision.ADMITTED
    for _ in range(2):
        controller.offer(_request(priority=1), 1, now=0)
    # 6 of 10 queued -> pressure 0.6 >= shed_hard: only interactive.
    assert controller.shed_floor() == 2
    assert controller.offer(_request(priority=1), 1, now=0)[0] is Decision.SHED
    assert controller.offer(_request(priority=2), 1, now=0)[0] is Decision.ADMITTED


def test_cost_pressure_alone_can_raise_the_floor():
    controller = AdmissionController(
        AdmissionPolicy(queue_capacity=1_000, cost_capacity=100,
                        shed_start=0.5, shed_hard=0.9, tenant_limit=None)
    )
    controller.offer(_request(priority=2), cost=60, now=0)
    assert controller.pressure() == 0.6  # 60 of 100 cost units queued
    assert controller.shed_floor() == 1
    assert controller.offer(_request(priority=0), 1, now=0)[0] is Decision.SHED


def test_pop_order_and_deadline_stamping():
    controller = AdmissionController(
        AdmissionPolicy(queue_capacity=10, tenant_limit=None,
                        shed_start=0.99, shed_hard=1.0, default_budget=77)
    )
    controller.offer(_request(priority=1, n=1), 1, now=100)
    controller.offer(_request(priority=2, n=2), 1, now=100)
    controller.offer(_request(priority=1, n=3, budget=30), 1, now=100)
    first = controller.pop()
    assert first.request.priority == 2
    second = controller.pop()
    assert second.request.query.n == 1  # FIFO within a class
    assert second.deadline.expires_at == 177  # policy default budget
    third = controller.pop()
    assert third.deadline.expires_at == 130  # request-carried budget
    assert controller.pop() is None
    assert controller.pressure() == 0.0
