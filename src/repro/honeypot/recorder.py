"""All-port traffic recorder.

The first of NXD-Honeypot's two roles: accept TCP and UDP packets on
all well-known ports, remember everything (IPs, ports, payload sizes),
and keep the HTTP/HTTPS requests for the categorizer.  Figure 10's
port histograms are read straight off this recorder for the honeypot
and control-group deployments.

Storage layout: the recorder keeps columns — a list of
:class:`~repro.honeypot.batch.RequestBatch` parts and a list of
:class:`~repro.honeypot.batch.PacketBatch` parts, merged into one part
each on the first read after a write.  :meth:`record_batch` and
:meth:`record_packet_batch` append whole batches.
:meth:`record_request` is the one object edge: it buffers single
:class:`~repro.honeypot.http.HttpRequest` objects, which become one
request part plus its transport-level shadow
(:meth:`~repro.honeypot.batch.RequestBatch.packet_shadow`) on the next
batch write or read, so arrival order holds across both kinds of
write.  Reads return columns; a caller that needs objects decodes them
with ``to_requests()`` / ``to_packets()``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.honeypot.batch import PacketBatch, RequestBatch
from repro.honeypot.http import HttpRequest


class TrafficRecorder:
    """Accumulates packets and HTTP requests for one deployment."""

    def __init__(self, deployment: str = "honeypot") -> None:
        self.deployment = deployment
        self._request_parts: List[RequestBatch] = []
        self._packet_parts: List[PacketBatch] = []
        #: Single requests in arrival order, columnized on the next
        #: batch write or read.
        self._pending: List[HttpRequest] = []

    # -- capture --------------------------------------------------------

    def record_request(self, request: HttpRequest) -> None:
        """Record an HTTP request (and its transport-level shadow)."""
        self._pending.append(request)

    def record_batch(self, batch: RequestBatch) -> None:
        """Record every request of ``batch`` (and their shadows), in order."""
        self._flush()
        self._request_parts.append(batch)
        self._packet_parts.append(batch.packet_shadow())

    def record_packet_batch(self, batch: PacketBatch) -> None:
        """Record every packet of ``batch``, in order."""
        self._flush()
        self._packet_parts.append(batch)

    def _flush(self) -> None:
        """Columnize the pending requests: one request part and its shadow."""
        if not self._pending:
            return
        requests = RequestBatch.from_requests(self._pending)
        self._pending = []
        self._request_parts.append(requests)
        self._packet_parts.append(requests.packet_shadow())

    # -- columns ------------------------------------------------------------

    def request_batch(self) -> RequestBatch:
        """Every recorded request, as one batch."""
        self._flush()
        if len(self._request_parts) != 1:
            self._request_parts = [RequestBatch.concat(self._request_parts)]
        return self._request_parts[0]

    def packet_batch(self) -> PacketBatch:
        """Every recorded packet (request shadows included), as one batch."""
        self._flush()
        if len(self._packet_parts) != 1:
            self._packet_parts = [PacketBatch.concat(self._packet_parts)]
        return self._packet_parts[0]

    # -- views ------------------------------------------------------------

    @property
    def request_count(self) -> int:
        return sum(map(len, self._request_parts)) + len(self._pending)

    def port_histogram(self) -> Dict[int, int]:
        """Packets per destination port (Figure 10's axes)."""
        return self.packet_batch().port_histogram()

    def top_ports(self, n: int = 8) -> List[Tuple[int, int]]:
        """The ``n`` busiest ports as (port, packets), busiest first."""
        return sorted(
            self.port_histogram().items(), key=lambda kv: kv[1], reverse=True
        )[:n]

    def window(self, start: int, end: int) -> "TrafficRecorder":
        """A recorder view restricted to [start, end), order kept."""
        view = TrafficRecorder(self.deployment)
        requests = self.request_batch()
        packets = self.packet_batch()
        view._request_parts = [
            requests.take(
                (requests.timestamps >= start) & (requests.timestamps < end)
            )
        ]
        view._packet_parts = [
            packets.take((packets.timestamps >= start) & (packets.timestamps < end))
        ]
        return view
