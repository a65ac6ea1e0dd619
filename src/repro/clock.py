"""Simulation time.

The whole study runs on simulated wall-clock time so that an 8-year
passive DNS trace and a 6-month honeypot deployment execute in
milliseconds.  Time is represented as integer seconds since the Unix
epoch; helpers convert to calendar dates for report axes (months of
2014-2022, days relative to expiry, ...).
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field
from repro.errors import ConfigError

SECONDS_PER_DAY = 86_400

#: The measurement window of the paper's passive DNS analysis.
STUDY_START = _dt.date(2014, 1, 1)
STUDY_END = _dt.date(2022, 12, 31)


def date_to_epoch(date: _dt.date) -> int:
    """Seconds since the Unix epoch at midnight UTC of ``date``."""
    return int(
        _dt.datetime(
            date.year, date.month, date.day, tzinfo=_dt.timezone.utc
        ).timestamp()
    )


def epoch_to_date(timestamp: int) -> _dt.date:
    """Calendar date (UTC) containing epoch second ``timestamp``."""
    return _dt.datetime.fromtimestamp(timestamp, tz=_dt.timezone.utc).date()


def month_key(timestamp: int) -> str:
    """``YYYY-MM`` month bucket for a timestamp, used by report axes."""
    date = epoch_to_date(timestamp)
    return f"{date.year:04d}-{date.month:02d}"


@dataclass
class SimClock:
    """A monotonically advancing simulated clock.

    Components that need "now" hold a shared clock instance; the
    driving harness advances it.  The clock refuses to move backwards,
    which catches workload-ordering bugs early.
    """

    now: int = field(default_factory=lambda: date_to_epoch(STUDY_START))

    def advance(self, seconds: int) -> int:
        """Move forward by ``seconds`` and return the new time."""
        if seconds < 0:
            raise ConfigError("SimClock cannot move backwards")
        self.now += int(seconds)
        return self.now

    def set_to(self, timestamp: int) -> int:
        """Jump to an absolute time, which must not be in the past."""
        if timestamp < self.now:
            raise ConfigError(
                f"SimClock cannot move backwards ({timestamp} < {self.now})"
            )
        self.now = int(timestamp)
        return self.now

    @property
    def date(self) -> _dt.date:
        """Current simulated calendar date (UTC)."""
        return epoch_to_date(self.now)
