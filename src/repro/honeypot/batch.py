"""Struct-of-arrays request and packet batches: the one §6 data path.

§6 moves tens of thousands of requests from the traffic generator
through the recorder, the Figure 9 filter and the Figure 11
categorizer to Table 1.  A :class:`RequestBatch` carries them as
columns: ``int64`` timestamps and ports, and a :class:`StrColumn`
(per-row codes into a vocabulary of distinct strings) for each header
field.  A run sees a few thousand distinct strings per field, so every
per-string decision is made once per distinct value and spread over
the rows with numpy indexing.  :class:`PacketBatch` is the same for
the transport-level view.

Objects cross this module at two edges only.  In:
:meth:`RequestBatch.from_requests` columnizes
:class:`~repro.honeypot.http.HttpRequest` objects (the recorder's
buffered single requests).  Out: :meth:`RequestBatch.to_requests` and
:meth:`PacketBatch.to_packets` build objects for a caller that needs
them, such as an interactive replay.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.errors import ConfigError
from repro.honeypot.http import (
    HTTP_PORT,
    HTTPS_PORT,
    HttpRequest,
    PacketRecord,
    Transport,
)


def first_appearance_counts(codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct codes in order of first appearance, with their counts."""
    uniq, first, counts = np.unique(codes, return_index=True, return_counts=True)
    order = np.argsort(first, kind="stable")
    return uniq[order], counts[order]


class StrColumn:
    """One string field of a batch: per-row ``codes`` into ``values``.

    ``values`` holds distinct strings; a vocabulary may hold strings no
    row uses (after :meth:`take`).
    """

    __slots__ = ("codes", "values")

    def __init__(self, codes: np.ndarray, values: Tuple[str, ...]) -> None:
        self.codes = codes
        self.values = values

    @classmethod
    def encode(cls, strings: Sequence[str]) -> "StrColumn":
        index = {value: code for code, value in enumerate(dict.fromkeys(strings))}
        codes = np.fromiter(
            map(index.__getitem__, strings), dtype=np.int64, count=len(strings)
        )
        return cls(codes, tuple(index))

    @classmethod
    def constant(cls, value: str, n: int) -> "StrColumn":
        return cls(np.zeros(n, dtype=np.int64), (value,))

    @classmethod
    def concat(cls, columns: Sequence["StrColumn"]) -> "StrColumn":
        """One column over one merged vocabulary, rows in order."""
        index: Dict[str, int] = {}
        parts = []
        for column in columns:
            remap = np.array(
                [index.setdefault(value, len(index)) for value in column.values],
                dtype=np.int64,
            )
            parts.append(remap[column.codes] if len(remap) else column.codes)
        codes = np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
        return cls(codes, tuple(index))

    def __len__(self) -> int:
        return len(self.codes)

    def take(self, rows: np.ndarray) -> "StrColumn":
        return StrColumn(self.codes[rows], self.values)

    def decode(self) -> List[str]:
        return list(map(self.values.__getitem__, self.codes.tolist()))

    def present(self) -> np.ndarray:
        """The codes some row uses, ascending."""
        return np.flatnonzero(np.bincount(self.codes, minlength=len(self.values)))

    def distinct(self) -> List[str]:
        """The values some row uses."""
        return [self.values[code] for code in self.present().tolist()]

    def lookup(self, fn: Callable[[str], Any], dtype=np.int64) -> np.ndarray:
        """``fn`` of every row's value, calling ``fn`` once per used value."""
        table = np.zeros(len(self.values), dtype=dtype)
        present = self.present()
        table[present] = [fn(self.values[code]) for code in present.tolist()]
        return table[self.codes]

    def tally(
        self,
        rows: Optional[np.ndarray] = None,
        key: Optional[Callable[[str], Optional[Hashable]]] = None,
    ) -> Dict[Hashable, int]:
        """Rows per ``key(value)``, keys in order of first appearance.

        ``rows`` (a mask or positions) restricts the count; a key of
        ``None`` drops the value.  Equal to counting row by row into a
        dict, insertion order included.
        """
        codes = self.codes if rows is None else self.codes[rows]
        histogram: Dict[Hashable, int] = {}
        for code, count in zip(*(a.tolist() for a in first_appearance_counts(codes))):
            value = self.values[code]
            name = value if key is None else key(value)
            if name is not None:
                histogram[name] = histogram.get(name, 0) + count
        return histogram


def pair_codes(
    left: StrColumn, right: StrColumn
) -> Tuple[List[Tuple[str, str]], np.ndarray]:
    """The distinct (left, right) value pairs of the rows, and each
    row's index into them."""
    width = max(len(right.values), 1)
    uniq, inverse = np.unique(left.codes * width + right.codes, return_inverse=True)
    pairs = [
        (left.values[key // width], right.values[key % width])
        for key in uniq.tolist()
    ]
    return pairs, inverse.reshape(-1)


def _str_column(value: Union[str, Sequence[str], StrColumn], n: int) -> StrColumn:
    if isinstance(value, StrColumn):
        return value
    if isinstance(value, str):
        return StrColumn.constant(value, n)
    return StrColumn.encode(value)


def _int_column(value: Union[int, Sequence[int], np.ndarray], n: int) -> np.ndarray:
    if isinstance(value, (int, np.integer)):
        return np.full(n, int(value), dtype=np.int64)
    return np.asarray(value, dtype=np.int64).reshape(-1)


def _uri(path: str, query: str) -> str:
    return f"{path}?{query}" if query else path


#: Request fields carried as :class:`StrColumn`, in ``HttpRequest`` order.
REQUEST_STR_FIELDS = ("src_ip", "host", "path", "query", "user_agent", "referer")


class RequestBatch:
    """HTTP requests as columns (see the module docstring)."""

    __slots__ = ("timestamps", "ports", *REQUEST_STR_FIELDS, "_uris")

    def __init__(
        self,
        timestamps: np.ndarray,
        ports: np.ndarray,
        src_ip: StrColumn,
        host: StrColumn,
        path: StrColumn,
        query: StrColumn,
        user_agent: StrColumn,
        referer: StrColumn,
    ) -> None:
        self.timestamps = timestamps
        self.ports = ports
        self.src_ip = src_ip
        self.host = host
        self.path = path
        self.query = query
        self.user_agent = user_agent
        self.referer = referer
        #: :meth:`uris`, once computed; :meth:`take` carries it along.
        self._uris: Optional[StrColumn] = None

    # -- construction ------------------------------------------------------

    @classmethod
    def of(
        cls,
        timestamps: Union[Sequence[int], np.ndarray],
        *,
        src_ip: Union[str, Sequence[str], StrColumn],
        host: Union[str, Sequence[str], StrColumn],
        path: Union[str, Sequence[str], StrColumn] = "/",
        query: Union[str, Sequence[str], StrColumn] = "",
        user_agent: Union[str, Sequence[str], StrColumn] = "",
        referer: Union[str, Sequence[str], StrColumn] = "",
        port: Union[int, Sequence[int], np.ndarray] = HTTP_PORT,
    ) -> "RequestBatch":
        """A validated batch; a ``str`` or ``int`` is one value for every row."""
        times = np.asarray(timestamps, dtype=np.int64).reshape(-1)
        n = len(times)
        batch = cls(
            times,
            _int_column(port, n),
            _str_column(src_ip, n),
            _str_column(host, n),
            _str_column(path, n),
            _str_column(query, n),
            _str_column(user_agent, n),
            _str_column(referer, n),
        )
        batch._validate()
        return batch

    @classmethod
    def from_requests(cls, requests: Iterable[HttpRequest]) -> "RequestBatch":
        requests = list(requests)
        return cls(
            np.fromiter(
                (r.timestamp for r in requests), dtype=np.int64, count=len(requests)
            ),
            np.fromiter((r.port for r in requests), dtype=np.int64, count=len(requests)),
            *(
                StrColumn.encode([getattr(r, name) for r in requests])
                for name in REQUEST_STR_FIELDS
            ),
        )

    @classmethod
    def concat(cls, batches: Sequence["RequestBatch"]) -> "RequestBatch":
        return cls(
            _concat_ints([b.timestamps for b in batches]),
            _concat_ints([b.ports for b in batches]),
            *(
                StrColumn.concat([getattr(b, name) for b in batches])
                for name in REQUEST_STR_FIELDS
            ),
        )

    def _validate(self) -> None:
        if len(self.ports) != len(self.timestamps) or any(
            len(getattr(self, name)) != len(self.timestamps)
            for name in REQUEST_STR_FIELDS
        ):
            raise ConfigError("batch columns must have equal length")
        for code in self.path.present().tolist():
            path = self.path.values[code]
            if not path.startswith("/"):
                raise ConfigError(f"path must start with '/': {path!r}")
        if not ((self.ports == HTTP_PORT) | (self.ports == HTTPS_PORT)).all():
            raise ConfigError("HTTP requests arrive on port 80 or 443 only")

    # -- views ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.timestamps)

    def take(self, rows: np.ndarray) -> "RequestBatch":
        """The rows at ``rows`` (positions or a boolean mask), in order."""
        rows = np.asarray(rows)
        if rows.dtype == bool:
            rows = np.flatnonzero(rows)
        taken = RequestBatch(
            self.timestamps[rows],
            self.ports[rows],
            *(getattr(self, name).take(rows) for name in REQUEST_STR_FIELDS),
        )
        if self._uris is not None:
            taken._uris = self._uris.take(rows)
        return taken

    def uris(self) -> StrColumn:
        """Each row's URI (path plus query string, as logged)."""
        if self._uris is None:
            pairs, inverse = pair_codes(self.path, self.query)
            index: Dict[str, int] = {}
            remap = np.array(
                [index.setdefault(_uri(p, q), len(index)) for p, q in pairs],
                dtype=np.int64,
            )
            self._uris = StrColumn(
                remap[inverse] if len(remap) else inverse, tuple(index)
            )
        return self._uris

    def host_rows(self, domain: str) -> np.ndarray:
        """Mask of the rows whose Host header is ``domain``, ignoring case."""
        lowered = domain.lower()
        return self.host.lookup(lambda host: host.lower() == lowered, bool)

    def to_requests(self) -> List[HttpRequest]:
        return [
            HttpRequest(
                timestamp=timestamp,
                src_ip=src_ip,
                host=host,
                path=path,
                query=query,
                port=port,
                user_agent=user_agent,
                referer=referer,
            )
            for timestamp, port, src_ip, host, path, query, user_agent, referer in zip(
                self.timestamps.tolist(),
                self.ports.tolist(),
                *(getattr(self, name).decode() for name in REQUEST_STR_FIELDS),
            )
        ]

    def packet_shadow(self) -> "PacketBatch":
        """The transport-level shadow of every row: a TCP packet to the
        row's port whose payload is the URI length plus the User-Agent
        length plus 64 header bytes."""
        path_len = np.array([len(p) for p in self.path.values], dtype=np.int64)
        query_len = np.array(
            [len(q) + 1 if q else 0 for q in self.query.values], dtype=np.int64
        )
        agent_len = np.array([len(a) for a in self.user_agent.values], dtype=np.int64)
        payload = np.full(len(self), 64, dtype=np.int64)
        for lengths, column in (
            (path_len, self.path),
            (query_len, self.query),
            (agent_len, self.user_agent),
        ):
            if len(lengths):
                payload += lengths[column.codes]
        return PacketBatch(
            self.timestamps,
            self.src_ip,
            self.ports,
            np.zeros(len(self), dtype=bool),
            payload,
        )


class PacketBatch:
    """Transport-level packets as columns; ``udp`` marks UDP rows."""

    __slots__ = ("timestamps", "src_ip", "ports", "udp", "payload_sizes")

    def __init__(
        self,
        timestamps: np.ndarray,
        src_ip: StrColumn,
        ports: np.ndarray,
        udp: np.ndarray,
        payload_sizes: np.ndarray,
    ) -> None:
        self.timestamps = timestamps
        self.src_ip = src_ip
        self.ports = ports
        self.udp = udp
        self.payload_sizes = payload_sizes

    @classmethod
    def of(
        cls,
        timestamps: Union[Sequence[int], np.ndarray],
        *,
        src_ip: Union[str, Sequence[str], StrColumn],
        port: Union[int, Sequence[int], np.ndarray],
        udp: Union[bool, Sequence[bool], np.ndarray] = False,
        payload_size: Union[int, Sequence[int], np.ndarray] = 0,
    ) -> "PacketBatch":
        """A validated batch; a scalar is one value for every row."""
        times = np.asarray(timestamps, dtype=np.int64).reshape(-1)
        n = len(times)
        flags = (
            np.full(n, bool(udp))
            if isinstance(udp, (bool, np.bool_))
            else np.asarray(udp, dtype=bool).reshape(-1)
        )
        batch = cls(
            times,
            _str_column(src_ip, n),
            _int_column(port, n),
            flags,
            _int_column(payload_size, n),
        )
        if not (
            len(batch.src_ip) == len(batch.ports) == len(flags)
            == len(batch.payload_sizes) == n
        ):
            raise ConfigError("batch columns must have equal length")
        if n and (batch.ports.min() < 0 or batch.ports.max() > 65535):
            bad = batch.ports[(batch.ports < 0) | (batch.ports > 65535)][0]
            raise ConfigError(f"invalid port {int(bad)}")
        if n and batch.payload_sizes.min() < 0:
            raise ConfigError("payload_size must be non-negative")
        return batch

    @classmethod
    def concat(cls, batches: Sequence["PacketBatch"]) -> "PacketBatch":
        return cls(
            _concat_ints([b.timestamps for b in batches]),
            StrColumn.concat([b.src_ip for b in batches]),
            _concat_ints([b.ports for b in batches]),
            np.concatenate([b.udp for b in batches]) if batches else np.zeros(0, bool),
            _concat_ints([b.payload_sizes for b in batches]),
        )

    def __len__(self) -> int:
        return len(self.timestamps)

    def take(self, rows: np.ndarray) -> "PacketBatch":
        """The rows at ``rows`` (positions or a boolean mask), in order."""
        return PacketBatch(
            self.timestamps[rows],
            self.src_ip.take(rows),
            self.ports[rows],
            self.udp[rows],
            self.payload_sizes[rows],
        )

    def to_packets(self) -> List[PacketRecord]:  # repro: noqa[REP105] §6 object edge out, pinned by tests/honeypot/test_edges.py
        return [
            PacketRecord(
                timestamp,
                src_ip,
                port,
                Transport.UDP if udp else Transport.TCP,
                payload,
            )
            for timestamp, src_ip, port, udp, payload in zip(
                self.timestamps.tolist(),
                self.src_ip.decode(),
                self.ports.tolist(),
                self.udp.tolist(),
                self.payload_sizes.tolist(),
            )
        ]

    def port_histogram(self) -> Dict[int, int]:
        """Packets per destination port, ports in order of first appearance."""
        ports, counts = first_appearance_counts(self.ports)
        return dict(zip(ports.tolist(), counts.tolist()))


def _concat_ints(arrays: List[np.ndarray]) -> np.ndarray:
    return np.concatenate(arrays) if arrays else np.zeros(0, dtype=np.int64)
