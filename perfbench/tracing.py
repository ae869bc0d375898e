"""In-memory span tracing for the benchmark's traced run.

The benchmark wraps the simulator's public entry points (see
:mod:`perfbench.instrument`) with two kinds of recorders:

* **Spans** -- one record per call: name, start, end, parent span, run id.
  Used at layer boundaries that run at most ~10^4-10^5 times per run.
* **Aggregates** -- per-name call count, inclusive time and self time, with
  no per-call record.  Used for the hot leaf layers (KV bookkeeping, the cost
  models, metrics and recorder calls) that run ~10^5-10^6 times per run, so
  tracing memory and overhead stay bounded.

An aggregated call's wall time is charged to the innermost enclosing span as
``agg_child`` (time that span's aggregated children cover), so self time
stays exact: a span's self time is its duration minus the union of its direct
child spans minus ``agg_child``.  A span opened *inside* an aggregated call is
already covered by that call's time, so it is flagged ``in_agg`` and left out
of its parent's union.

Spans stay in memory and are written out at the end, as JSONL and as Chrome
trace-event JSON (opens in Perfetto / ``chrome://tracing``).
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional


@dataclass
class Span:
    """One recorded call.  Times are ``perf_counter`` seconds."""

    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    run: str
    agg_child: float = 0.0
    in_agg: bool = False
    tag: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Aggregate:
    """Call count, inclusive seconds and self seconds of one aggregated name."""

    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Collects spans, aggregates and plain counters for one traced run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.aggregates: Dict[str, Aggregate] = defaultdict(Aggregate)
        self.counters: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.run_id = ""
        # Open frames, innermost last: [span or None (aggregated), covered seconds].
        # For a span frame "covered" is the time of its aggregated children; for
        # an aggregated frame it is the time of all its children.
        self._stack: List[List[Any]] = []
        self._next_id = 0

    # -- recording --------------------------------------------------------------

    def wrap_span(
        self,
        name: str,
        fn: Callable[..., Any],
        on_return: Optional[Callable[["Tracer", tuple, Any], None]] = None,
        tag: Optional[Callable[[tuple, Any], Optional[int]]] = None,
    ) -> Callable[..., Any]:
        """``fn`` wrapped so that every call records a :class:`Span`.

        ``on_return(tracer, args, result)`` updates counters from the call's
        arguments and result; ``tag(args, result)`` attaches an integer key
        that pairs related spans (e.g. an iteration's plan and completion).
        """
        stack = self._stack

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent_frame = stack[-1] if stack else None
            parent = None
            for frame in reversed(stack):
                if frame[0] is not None:
                    parent = frame[0].id
                    break
            span = Span(self._next_id, parent, name, 0.0, 0.0, self.run_id,
                        in_agg=parent_frame is not None and parent_frame[0] is None)
            self._next_id += 1
            frame = [span, 0.0]
            stack.append(frame)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                span.agg_child = frame[1]
                self.spans.append(span)
                if span.in_agg:
                    parent_frame[1] += span.end - span.start
            if tag is not None:
                span.tag = tag(args, result)
            if on_return is not None:
                on_return(self, args, result)
            return result

        return wrapper

    def wrap_aggregate(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped so that calls only bump ``aggregates[name]``."""
        stack = self._stack
        agg = self.aggregates[name]

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = [None, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                agg.calls += 1
                agg.total_s += dt
                agg.self_s += dt - frame[1]
                if stack:
                    stack[-1][1] += dt

        return wrapper

    def wrap_counter(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped so that calls are counted, not timed."""
        counters = self.counters

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- export -----------------------------------------------------------------

    def write_jsonl(self, path: Path) -> None:
        """One JSON object per span, then one per aggregate and counter."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "type": "span", "id": s.id, "parent": s.parent, "name": s.name,
                    "start": s.start, "end": s.end, "run": s.run,
                    "agg_child_s": s.agg_child, "in_agg": s.in_agg, "tag": s.tag,
                }) + "\n")
            for name in sorted(self.aggregates):
                a = self.aggregates[name]
                fh.write(json.dumps({
                    "type": "aggregate", "name": name, "calls": a.calls,
                    "total_s": a.total_s, "self_s": a.self_s,
                }) + "\n")
            for name in sorted(self.counters):
                fh.write(json.dumps({"type": "counter", "name": name,
                                     "value": self.counters[name]}) + "\n")

    def write_chrome(self, path: Path) -> None:
        """Chrome trace-event JSON: one complete ("X") event per span."""
        origin = min((s.start for s in self.spans), default=0.0)
        events = [
            {
                "name": s.name, "cat": s.name.split(".", 1)[0], "ph": "X",
                "ts": (s.start - origin) * 1e6, "dur": s.duration * 1e6,
                "pid": 1, "tid": 1,
                "args": {"id": s.id, "parent": s.parent, "run": s.run,
                         "agg_child_us": s.agg_child * 1e6},
            }
            for s in self.spans
        ]
        other = {
            name: {"calls": a.calls, "total_s": a.total_s, "self_s": a.self_s}
            for name, a in sorted(self.aggregates.items())
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": {"aggregates": other, "counters": dict(self.counters)}}, fh)


# -- analysis -----------------------------------------------------------------


def _covered(intervals: List[tuple]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Self time of every span, keyed by span id.

    Self time is the span's duration minus the part of its interval that its
    direct child spans cover (their union, clipped to the span) minus the time
    of its aggregated children.
    """
    spans = list(spans)
    by_id = {s.id: s for s in spans}
    children: Dict[int, List[tuple]] = defaultdict(list)
    for s in spans:
        if s.parent is not None and not s.in_agg and s.parent in by_id:
            p = by_id[s.parent]
            children[s.parent].append((max(s.start, p.start), min(s.end, p.end)))
    return {
        s.id: s.duration - _covered([iv for iv in children[s.id] if iv[1] > iv[0]]) - s.agg_child
        for s in spans
    }


def by_name(spans: Iterable[Span]) -> Dict[str, Dict[str, Any]]:
    """Per-name totals: ``calls``, ``total_s``, ``self_s`` and ``durations``."""
    spans = list(spans)
    selfs = self_times(spans)
    out: Dict[str, Dict[str, Any]] = {}
    for s in spans:
        entry = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
        entry["calls"] += 1
        entry["total_s"] += s.duration
        entry["self_s"] += selfs[s.id]
        entry["durations"].append(s.duration)
    return out
