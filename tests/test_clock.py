"""Tests for simulated time."""

import datetime

import pytest

from repro.clock import (
    SECONDS_PER_DAY,
    STUDY_START,
    SimClock,
    date_to_epoch,
    epoch_to_date,
    month_key,
)


class TestConversions:
    def test_date_epoch_roundtrip(self):
        date = datetime.date(2019, 6, 15)
        assert epoch_to_date(date_to_epoch(date)) == date

    def test_month_key(self):
        assert month_key(date_to_epoch(datetime.date(2021, 3, 9))) == "2021-03"


class TestSimClock:
    def test_starts_at_study_start(self):
        assert SimClock().date == STUDY_START

    def test_advance(self):
        clock = SimClock()
        clock.advance(31 * SECONDS_PER_DAY)
        assert clock.date == datetime.date(2014, 2, 1)

    def test_cannot_go_backwards(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            clock.advance(-1)
        with pytest.raises(ValueError):
            clock.set_to(clock.now - 1)

    def test_set_to_forward(self):
        clock = SimClock()
        target = clock.now + 1000
        assert clock.set_to(target) == target
