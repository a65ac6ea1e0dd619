"""The NXD-Honeypot deployment: recorder + web server + analysis glue.

One :class:`NxdHoneypot` instance models the full §6.1 deployment for a
set of hosted domains: it records all inbound traffic, serves the
study's landing page (the barebone web server role), and — once the
calibration deployments have been run — produces the filtered,
categorized view that Table 1 and Figures 10/13/14/15 are built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import ReproError
from repro.resilience.dlq import DeadLetterQueue, ReplayStats
from repro.honeypot.categorize import (
    CategorizedRequest,
    TrafficCategorizer,
    subcategory_counts,
    Subcategory,
)
from repro.honeypot.filtering import FilterStats, TwoStageFilter
from repro.honeypot.http import HttpRequest, PacketRecord
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

    def accept_packet(self, packet: PacketRecord) -> None:
        """Non-HTTP traffic: recorded (best-effort), never answered."""
        try:
            self.recorder.record_packet(packet)
        except ReproError as exc:
            self._quarantine(packet, exc, packet.timestamp)

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
            else:
                assert isinstance(item, PacketRecord)
                self.recorder.record_packet(item)

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

    def filtered_requests(self) -> Tuple[List[HttpRequest], FilterStats]:
        """All recorded requests after noise filtering."""
        requests = self.recorder.requests()
        if self.noise_filter is None:
            stats = FilterStats(
                input_requests=len(requests), kept=len(requests)
            )
            return requests, stats
        return self.noise_filter.apply(requests)

    def categorized_requests(self) -> List[CategorizedRequest]:
        kept, _ = self.filtered_requests()
        return self.categorizer.categorize_many(kept)

    def report_for(self, domain: str) -> HoneypotReport:
        """Table 1 row for one hosted domain."""
        lowered = domain.lower()
        categorized = [
            item
            for item in self.categorized_requests()
            if item.request.host.lower() == lowered
        ]
        counts = subcategory_counts(categorized)
        return HoneypotReport(lowered, counts, total=len(categorized))

    def reports(self) -> List[HoneypotReport]:
        """Table 1 rows for every hosted domain, by traffic volume."""
        return self.reports_from(self.categorized_requests())

    def reports_from(
        self, categorized: Iterable[CategorizedRequest]
    ) -> List[HoneypotReport]:
        """Table 1 rows built from an already categorized request list."""
        by_domain: Dict[str, List[CategorizedRequest]] = {
            d: [] for d in self.hosted_domains
        }
        for item in categorized:
            host = item.request.host.lower()
            if host in by_domain:
                by_domain[host].append(item)
        reports = [
            HoneypotReport(domain, subcategory_counts(items), total=len(items))
            for domain, items in by_domain.items()
        ]
        # Tie-break by name: ``hosted_domains`` is a set, so relying on
        # the stable sort alone would leave equal-total rows in
        # hash-seed-dependent order across processes.
        reports.sort(key=lambda r: (-r.total, r.domain))
        return reports
