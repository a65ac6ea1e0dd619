"""Outside-in span tracing for the benchmark's traced runs.

The program has no tracing of its own yet, so the benchmark installs
timing wrappers around the public functions and methods of each layer
(see :mod:`layers`), runs the workload, and removes them again.  Each
wrapped call records one span: name, start, end and the span that was
open when it started.  Spans stay in memory until the run ends.

A span's *self time* is its duration minus the time covered by its
child spans.  The workloads are single-threaded, so children nest
strictly inside their parent and that cover is a plain sum.  Calls
from any thread other than the one that installed the wrappers pass
through untraced.
"""

from __future__ import annotations

import functools
import json
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.passivedns.spill import atomic_write_bytes

#: A span name, or a function of (open span names, args, kwargs) giving
#: one; returning ``None`` calls through without recording a span.
Namer = Union[str, Callable[[Tuple[str, ...], tuple, dict], Optional[str]]]


@dataclass(frozen=True)
class Target:
    """One function or method to wrap: ``getattr(owner, attr)``."""

    owner: Any
    attr: str
    name: Namer
    #: Optional counter hook: (args, kwargs) -> (counter name, amount).
    count: Optional[Callable[[tuple, dict], Tuple[str, int]]] = None


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        #: ``[name, start_ns, end_ns, parent_index]`` per span.
        self.spans: List[list] = []
        self.counters: Dict[str, int] = {}
        #: Wrapped calls made while enabled, recorded or not.
        self.calls = 0
        self._stack: List[int] = []
        self._installed: List[Tuple[Any, str, Any, bool]] = []
        self._thread = threading.get_ident()
        #: While False, wrapped calls pass straight through.
        self.enabled = True

    # -- recording ------------------------------------------------------

    def open_names(self) -> Tuple[str, ...]:
        """Names of the spans currently open, outermost first."""
        return tuple(self.spans[index][0] for index in self._stack)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the enclosed block as one span."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Wrapped calls inside the block pass through unrecorded."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def add(self, counter: str, amount: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + int(amount)

    # -- wrappers -------------------------------------------------------

    def _wrap(self, fn: Callable[..., Any], target: Target) -> Callable[..., Any]:
        tracer = self
        namer = target.name
        count = target.count

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled or threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            tracer.calls += 1
            if isinstance(namer, str):
                name: Optional[str] = namer
            else:
                name = namer(tracer.open_names(), args, kwargs)
            if name is None:
                return fn(*args, **kwargs)
            if count is not None:
                tracer.add(*count(args, kwargs))
            index = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index)

        return traced

    def install(self, targets: List[Target]) -> None:
        """Wrap every target in place (classmethods stay classmethods)."""
        for target in targets:
            owner, attr = target.owner, target.attr
            own = isinstance(owner, type) and attr in vars(owner)
            raw = vars(owner)[attr] if own else getattr(owner, attr)
            if isinstance(raw, classmethod):
                replacement: Any = classmethod(self._wrap(raw.__func__, target))
            elif isinstance(raw, staticmethod):
                replacement = staticmethod(self._wrap(raw.__func__, target))
            else:
                replacement = self._wrap(raw, target)
            self._installed.append(
                (owner, attr, raw, own or not isinstance(owner, type))
            )
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, last installed first."""
        while self._installed:
            owner, attr, raw, own = self._installed.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    @contextmanager
    def installed(self, targets: List[Target]) -> Iterator["Tracer"]:
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()

    # -- summaries ------------------------------------------------------

    def _child_ns(self) -> List[int]:
        covered = [0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return covered

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        covered = self._child_ns()
        out: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, _parent) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["incl_s"] += (end - start) / 1e9
            row["self_s"] += (end - start - covered[index]) / 1e9
        return out

    def breakdown(self, parent_name: str) -> Dict[str, float]:
        """Inclusive seconds of the direct children of ``parent_name``
        spans, by child name, plus the parents' own ``"(self)"`` time."""
        covered = self._child_ns()
        out: Dict[str, float] = {}
        for index, (name, start, end, parent) in enumerate(self.spans):
            if name == parent_name:
                out["(self)"] = out.get("(self)", 0.0) + (
                    end - start - covered[index]
                ) / 1e9
            elif parent >= 0 and self.spans[parent][0] == parent_name:
                out[name] = out.get(name, 0.0) + (end - start) / 1e9
        return out

    def dump(self, path: Path, extra: Dict[str, Any]) -> None:
        """Write spans, the summary and ``extra`` as one JSON file."""
        payload = {
            "summary": self.summary(),
            "counters": dict(sorted(self.counters.items())),
            "spans": [
                {"name": name, "start_ns": start, "end_ns": end, "parent": parent}
                for name, start, end, parent in self.spans
            ],
            **extra,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_bytes(path, json.dumps(payload, indent=1).encode("utf-8"))


def wrapper_cost_s(calls: int = 20_000, repeats: int = 5) -> float:
    """Seconds one recorded wrapper call adds to the call it wraps.

    Times ``calls`` calls of a no-op with and without a wrapper whose
    span name is computed from the open spans (the dearer kind), inside
    three open spans, and returns the median difference per call over
    ``repeats`` rounds.
    """

    class Probe:
        @staticmethod
        def noop() -> None:
            return None

    bare = Probe.noop
    tracer = Tracer()
    target = Target(Probe, "noop", lambda stack, args, kwargs: "probe" if stack else None)
    costs: List[float] = []
    with tracer.installed([target]), tracer.span("a"), tracer.span("b"), tracer.span("c"):
        wrapped = Probe.noop
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                bare()
            t1 = time.perf_counter()
            for _ in range(calls):
                wrapped()
            t2 = time.perf_counter()
            costs.append(((t2 - t1) - (t1 - t0)) / calls)
            del tracer.spans[3:]  # keep only the three open spans
    return max(statistics.median(costs), 0.0)
