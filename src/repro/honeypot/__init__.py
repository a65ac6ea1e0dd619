"""NXD-Honeypot: traffic capture, filtering, and categorization (§6).

The honeypot of the paper is a traffic recorder plus barebone web
server deployed on the hosting instances of the 19 registered domains.
This package reproduces its entire data path:

- :mod:`repro.honeypot.batch` — requests and packets as columns
  (:class:`RequestBatch`, :class:`PacketBatch`), the one form the
  generators, the recorder, the filter and the categorizer pass along;
- :mod:`repro.honeypot.recorder` — all-port traffic recording
  (Figure 10's port histograms);
- :mod:`repro.honeypot.filtering` — the two-stage noise filter
  (no-hosting baseline for cloud IP scanners, control group for
  domain-establishment traffic, Figure 9);
- :mod:`repro.honeypot.categorize` — the Figure 11 categorizer
  (Referer → User-Agent → Requested URL → Source IP) producing the
  Web Crawler / Automated Process / Referral / User Visit / Others
  split of Table 1;
- :mod:`repro.honeypot.server` and :mod:`repro.honeypot.interactive`
  — the deployment, passive and answering;
- supporting oracles: :mod:`repro.honeypot.useragent` (UA parsing),
  :mod:`repro.honeypot.nvd` (sensitive-URI severity lookups),
  :mod:`repro.honeypot.reverse_ip` (PTR-based service attribution),
  and :mod:`repro.honeypot.webfilter` (referrer classification).

Per-request objects (:mod:`repro.honeypot.http`) exist only at two
edges.  In: a single :class:`HttpRequest` reaches the recorder through
``InteractiveHoneypot.interact`` → ``NxdHoneypot.accept_request`` →
``TrafficRecorder.record_request``, or a list of them becomes columns
through ``RequestBatch.from_requests``.  Out: ``RequestBatch.to_requests``
and ``PacketBatch.to_packets``.
"""

from repro.honeypot.batch import PacketBatch, RequestBatch
from repro.honeypot.categorize import (
    CategorizedBatch,
    Category,
    Subcategory,
    TrafficCategorizer,
)
from repro.honeypot.filtering import FilterStats, TwoStageFilter
from repro.honeypot.http import HttpRequest, PacketRecord, Transport
from repro.honeypot.interactive import (
    HoneypotResponse,
    InteractiveHoneypot,
    VisitorSession,
)
from repro.honeypot.nvd import VulnerabilityDatabase, Severity
from repro.honeypot.recorder import TrafficRecorder
from repro.honeypot.reverse_ip import ReverseIpTable
from repro.honeypot.server import NxdHoneypot
from repro.honeypot.useragent import AgentKind, UserAgentInfo, parse_user_agent
from repro.honeypot.webfilter import ReferralKind, WebFilter

__all__ = [  # repro: noqa[REP104] session/response record types; exported for annotations
    "AgentKind",
    "CategorizedBatch",
    "Category",
    "FilterStats",
    "HoneypotResponse",
    "HttpRequest",
    "InteractiveHoneypot",
    "NxdHoneypot",
    "VisitorSession",
    "PacketBatch",
    "PacketRecord",
    "ReferralKind",
    "RequestBatch",
    "ReverseIpTable",
    "Severity",
    "Subcategory",
    "TrafficCategorizer",
    "TrafficRecorder",
    "Transport",
    "TwoStageFilter",
    "UserAgentInfo",
    "VulnerabilityDatabase",
    "WebFilter",
    "parse_user_agent",
]
