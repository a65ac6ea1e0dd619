"""The NXD-Honeypot deployment: recorder + web server + analysis glue.

One :class:`NxdHoneypot` instance models the full §6.1 deployment for a
set of hosted domains: it records all inbound traffic, serves the
study's landing page (the barebone web server role), and — once the
calibration deployments have been run — produces the filtered,
categorized view that Table 1 and Figures 10/13/14/15 are built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.errors import ReproError
from repro.resilience.dlq import DeadLetterQueue, ReplayStats
from repro.honeypot.batch import PacketBatch, RequestBatch
from repro.honeypot.categorize import (
    CategorizedBatch,
    TrafficCategorizer,
    Subcategory,
)
from repro.honeypot.filtering import FilterStats, TwoStageFilter
from repro.honeypot.http import HttpRequest
from repro.honeypot.recorder import TrafficRecorder

LANDING_PAGE = (
    "<html><head><title>Research measurement study</title></head><body>"
    "<h1>This domain is part of an academic measurement study.</h1>"
    "<p>We registered this previously expired domain to analyze the "
    "network traffic it still receives. No user data is solicited. "
    "Contact: research-team@example.edu</p></body></html>"
)


@dataclass
class HoneypotReport:
    """The per-domain categorized traffic summary (one Table 1 row)."""

    domain: str
    counts: Dict[Subcategory, int]
    total: int

    def count(self, subcategory: Subcategory) -> int:
        return self.counts.get(subcategory, 0)


class NxdHoneypot:
    """A honeypot hosting one or more registered domains."""

    def __init__(
        self,
        hosted_domains: Iterable[str],
        categorizer: Optional[TrafficCategorizer] = None,
        dead_letters: Optional[DeadLetterQueue] = None,
    ) -> None:
        self.hosted_domains = {d.lower() for d in hosted_domains}
        self.recorder = TrafficRecorder("honeypot")
        self.categorizer = (
            categorizer if categorizer is not None else TrafficCategorizer()
        )
        self.noise_filter: Optional[TwoStageFilter] = None
        self.pages_served = 0
        #: Traffic the recorder failed to persist, quarantined for
        #: :meth:`replay_dead_letters`.  Without a queue a recorder
        #: failure is still survived, merely counted.
        self.dead_letters = dead_letters
        self.recorder_errors = 0

    # -- capture path ------------------------------------------------------

    def accept_request(self, request: HttpRequest) -> str:
        """HTTP/HTTPS traffic: recorded and served the landing page.

        The honeypot never initiates interaction (the ethics appendix);
        serving a static page to whoever asks is its only response —
        and the page is served even when the recorder fails, because a
        visibly broken host would perturb the measurement itself.
        """
        try:
            self.recorder.record_request(request)
        except ReproError as exc:
            self._quarantine(request, exc, request.timestamp)
        self.pages_served += 1
        return LANDING_PAGE

    def accept_batch(self, batch: RequestBatch) -> None:
        """:meth:`accept_request` for every row of ``batch``.

        A recorder failure quarantines the whole batch as one item.
        """
        self._record_batch(self.recorder.record_batch, batch)
        self.pages_served += len(batch)

    def accept_packet_batch(self, batch: PacketBatch) -> None:
        """Transport-level traffic: recorded (best-effort), never answered.

        A recorder failure quarantines the whole batch as one item.
        """
        self._record_batch(self.recorder.record_packet_batch, batch)

    def _record_batch(self, record, batch: Union[RequestBatch, PacketBatch]) -> None:
        try:
            record(batch)
        except ReproError as exc:
            first = int(batch.timestamps[0]) if len(batch) else 0
            self._quarantine(batch, exc, first)

    def _quarantine(
        self, item: object, error: ReproError, timestamp: int
    ) -> None:
        self.recorder_errors += 1
        if self.dead_letters is not None:
            self.dead_letters.push(
                item, reason=f"recorder failed: {error}", timestamp=timestamp
            )

    def replay_dead_letters(self) -> ReplayStats:
        """Re-record quarantined traffic once the recorder recovers."""
        if self.dead_letters is None:
            return ReplayStats()

        def handler(item: object) -> None:
            if isinstance(item, HttpRequest):
                self.recorder.record_request(item)
            elif isinstance(item, RequestBatch):
                self.recorder.record_batch(item)
            else:
                assert isinstance(item, PacketBatch)
                self.recorder.record_packet_batch(item)

        return self.dead_letters.replay(handler)

    # -- analysis path --------------------------------------------------------

    def calibrate(
        self,
        no_hosting: TrafficRecorder,
        control_group: TrafficRecorder,
    ) -> TwoStageFilter:
        """Install the two-stage noise filter from calibration data."""
        self.noise_filter = TwoStageFilter.calibrated(no_hosting, control_group)
        return self.noise_filter

    def filtered_batch(self) -> Tuple[RequestBatch, FilterStats]:
        """All recorded requests after noise filtering, as columns."""
        batch = self.recorder.request_batch()
        if self.noise_filter is None:
            stats = FilterStats(input_requests=len(batch), kept=len(batch))
            return batch, stats
        return self.noise_filter.apply_batch(batch)

    def categorized_batch(self) -> CategorizedBatch:
        kept, _ = self.filtered_batch()
        return self.categorizer.categorize_batch(kept)

    def reports(self) -> List[HoneypotReport]:
        """Table 1 rows for every hosted domain, by traffic volume."""
        return self.reports_from(self.categorized_batch())

    def reports_from(self, categorized: CategorizedBatch) -> List[HoneypotReport]:
        """Table 1 rows built from already categorized traffic."""
        # Each distinct Host value maps to its hosted domain's position
        # in ``domains`` (or -1), once.
        domains = sorted(self.hosted_domains)
        position = {domain: index for index, domain in enumerate(domains)}
        rows_domain = categorized.requests.host.lookup(
            lambda host: position.get(host.lower(), -1)
        )
        reports = [
            _report(domain, categorized, rows_domain == index)
            for index, domain in enumerate(domains)
        ]
        # Busiest first; equal totals by name.
        reports.sort(key=lambda r: (-r.total, r.domain))
        return reports


def _report(
    domain: str, categorized: CategorizedBatch, rows: np.ndarray
) -> HoneypotReport:
    counts = categorized.subcategory_counts(rows)
    return HoneypotReport(domain, counts, total=sum(counts.values()))
