"""The extracted token bucket (repro.resilience.ratelimit)."""

import pytest

from repro.errors import ConfigError
from repro.resilience.ratelimit import RateLimit, TokenBucket


def test_rate_limit_validation():
    with pytest.raises(ConfigError):
        RateLimit(capacity=0)
    with pytest.raises(ConfigError):
        RateLimit(window_seconds=0)


def test_bucket_grants_until_capacity_then_refuses():
    bucket = TokenBucket(RateLimit(capacity=3, window_seconds=100))
    assert all(bucket.try_acquire(now=10) for _ in range(3))
    assert not bucket.try_acquire(now=20)
    assert bucket.granted == 3
    assert bucket.rejected == 1


def test_window_reset_restores_budget():
    bucket = TokenBucket(RateLimit(capacity=2, window_seconds=100))
    assert bucket.try_acquire(now=10)
    assert bucket.try_acquire(now=10)
    assert not bucket.try_acquire(now=50)
    # The window opened at the first acquire; it resets 100s later.
    assert bucket.try_acquire(now=110)
    assert bucket.try_acquire(now=110)  # one token was left
    assert not bucket.try_acquire(now=110)


def test_retry_after_counts_down_to_window_reset():
    bucket = TokenBucket(RateLimit(capacity=1, window_seconds=100))
    assert bucket.retry_after(now=0) == 0  # window not yet open
    assert bucket.try_acquire(now=10)
    assert bucket.retry_after(now=30) == 80
    assert bucket.retry_after(now=110) == 0


def test_multi_token_acquire_and_validation():
    bucket = TokenBucket(RateLimit(capacity=5, window_seconds=100))
    assert bucket.try_acquire(now=0, tokens=4)
    assert not bucket.try_acquire(now=1, tokens=2)
    assert bucket.try_acquire(now=1, tokens=1)
    with pytest.raises(ConfigError):
        bucket.try_acquire(now=2, tokens=0)


def test_blocklist_store_reexports_the_extracted_limiter():
    # The limiter grew up and moved; the old import path must keep
    # working for existing callers.
    from repro.blocklist.store import RateLimit as ReexportedLimit
    from repro.blocklist.store import TokenBucket as ReexportedBucket

    assert ReexportedLimit is RateLimit
    assert ReexportedBucket is TokenBucket
