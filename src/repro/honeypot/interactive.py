"""Interactive NXD-Honeypot (§7 future work).

The deployed honeypot was strictly passive — it served one landing page
and never engaged visitors (the ethics appendix).  §7 proposes
"implementing the capability to interact with domain visitors" to
learn more about their purpose.  This module is that next-generation
server, with the interaction policy kept deliberately conservative:

- page requests receive the study landing page, as before;
- machine-format requests (``.json``, ``.xml``) receive well-formed
  *empty* documents, so automated pollers reveal their retry and
  parsing behaviour without being fed anything executable;
- requests for the botnet's ``getTask.php`` receive an empty task
  list — the "no work for you" answer a C&C would give an idle bot;
- vulnerability probes receive a plain 404: the honeypot never
  pretends to be exploitable.

On top of the responses, the server keeps per-visitor *sessions* so
the analysis can ask the paper's follow-up question: who comes back,
how often, and does answering them change that?
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.honeypot.categorize import TrafficCategorizer
from repro.honeypot.http import HttpRequest, path_extension
from repro.honeypot.nvd import VulnerabilityDatabase
from repro.honeypot.server import LANDING_PAGE, NxdHoneypot

EMPTY_JSON = "{}"
EMPTY_XML = '<?xml version="1.0"?><feed/>'
EMPTY_TASK_RESPONSE = '{"tasks": []}'
PLACEHOLDER_IMAGE = "[1x1 transparent pixel]"
NOT_FOUND_BODY = "<html><body><h1>404 Not Found</h1></body></html>"

_MACHINE_EXTENSIONS = {
    "json": ("application/json", EMPTY_JSON),
    "xml": ("application/xml", EMPTY_XML),
}
_IMAGE_EXTENSIONS = ("png", "jpg", "jpeg", "gif", "ico")


@dataclass(frozen=True)
class HoneypotResponse:
    """What the interactive server answered."""

    status: int
    content_type: str
    body: str


@dataclass
class VisitorSession:
    """Accumulated behaviour of one source address."""

    src_ip: str
    requests: int = 0
    first_seen: int = 0
    last_seen: int = 0
    distinct_uris: set = field(default_factory=set)
    interarrivals: List[int] = field(default_factory=list)

    @property
    def is_returning(self) -> bool:
        return self.requests > 1

    def mean_interarrival(self) -> Optional[float]:
        if not self.interarrivals:
            return None
        return sum(self.interarrivals) / len(self.interarrivals)

    @property
    def is_periodic(self) -> bool:
        """Heuristic: ≥5 visits with low interarrival variance — the
        polling signature of automated processes (§6.3)."""
        if len(self.interarrivals) < 4:
            return False
        mean = self.mean_interarrival()
        if not mean:
            return False
        variance = sum((x - mean) ** 2 for x in self.interarrivals) / len(
            self.interarrivals
        )
        return (variance**0.5) / mean < 0.35


class InteractiveHoneypot(NxdHoneypot):
    """NXD-Honeypot that answers visitors and tracks their sessions."""

    def __init__(
        self,
        hosted_domains: Iterable[str],
        categorizer: Optional[TrafficCategorizer] = None,
        nvd: Optional[VulnerabilityDatabase] = None,
    ) -> None:
        super().__init__(hosted_domains, categorizer)
        self.nvd = nvd if nvd is not None else VulnerabilityDatabase()
        self._sessions: Dict[str, VisitorSession] = {}
        self.responses_by_status: Dict[int, int] = {}

    # -- serving -------------------------------------------------------

    def interact(self, request: HttpRequest) -> HoneypotResponse:
        """Record the request and answer it per the interaction policy."""
        super().accept_request(request)
        self._track_session(request.src_ip, request.timestamp, request.uri)
        response = self._respond(request.path)
        self.responses_by_status[response.status] = (
            self.responses_by_status.get(response.status, 0) + 1
        )
        return response

    def _respond(self, path: str) -> HoneypotResponse:
        # Never pretend to be vulnerable.
        if self.nvd.is_sensitive(path):
            return HoneypotResponse(404, "text/html", NOT_FOUND_BODY)
        if path.endswith("/getTask.php"):
            return HoneypotResponse(200, "application/json", EMPTY_TASK_RESPONSE)
        extension = path_extension(path)
        machine = _MACHINE_EXTENSIONS.get(extension)
        if machine is not None:
            content_type, body = machine
            return HoneypotResponse(200, content_type, body)
        if extension in _IMAGE_EXTENSIONS:
            return HoneypotResponse(200, "image/png", PLACEHOLDER_IMAGE)
        return HoneypotResponse(200, "text/html", LANDING_PAGE)

    def _track_session(self, src_ip: str, timestamp: int, uri: str) -> None:
        session = self._sessions.get(src_ip)
        if session is None:
            session = VisitorSession(
                src_ip=src_ip, first_seen=timestamp, last_seen=timestamp
            )
            self._sessions[src_ip] = session
        else:
            session.interarrivals.append(max(timestamp - session.last_seen, 0))
            session.last_seen = max(session.last_seen, timestamp)
        session.requests += 1
        session.distinct_uris.add(uri)

    # -- analysis -----------------------------------------------------------

    def session_of(self, src_ip: str) -> Optional[VisitorSession]:
        return self._sessions.get(src_ip)

    def sessions(self) -> List[VisitorSession]:
        return list(self._sessions.values())

    def session_summary(self) -> Dict[str, int]:
        """Visitor-behaviour headline numbers."""
        sessions = self._sessions.values()
        return {
            "visitors": len(self._sessions),
            "returning": sum(1 for s in sessions if s.is_returning),
            "periodic": sum(1 for s in sessions if s.is_periodic),
            "single-shot": sum(1 for s in sessions if not s.is_returning),
        }

    def top_visitors(self, n: int = 10) -> List[Tuple[str, int]]:
        ranked = sorted(
            self._sessions.values(), key=lambda s: s.requests, reverse=True
        )
        return [(s.src_ip, s.requests) for s in ranked[:n]]
