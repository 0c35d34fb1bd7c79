"""In-memory spans around the benchmark's calls into gftkit.

A span records name, start, end, parent span and check id.  Spans stay in
a list until the run ends and are then written out in one piece, so
tracing does no I/O while checks are being timed.  With tracing off the
same call sites get a shared no-op span and record nothing.
"""

from __future__ import annotations

import time
from collections import defaultdict


class _NullSpan:
    __slots__ = ("attrs",)

    def __init__(self):
        self.attrs = {}

    def __enter__(self):
        return self.attrs

    def __exit__(self, *exc):
        self.attrs.clear()
        return False


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, record):
        self.tracer = tracer
        self.record = record

    def __enter__(self):
        self.tracer._stack.append(self.record["id"])
        self.record["start"] = time.perf_counter()
        return self.record["attrs"]

    def __exit__(self, *exc):
        self.record["end"] = time.perf_counter()
        self.tracer._stack.pop()
        if exc[0] is not None:
            self.record["attrs"]["error"] = exc[0].__name__
        return False


class Tracer:
    """Collects spans when enabled; ``span`` returns a no-op otherwise."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self.check_id = None
        self._stack = []
        self._deferred = []
        self._null = _NullSpan()

    def defer(self, fn):
        """Queue counter work to run after the check's timed region; traced
        runs only, so untraced timings never pay for it."""
        if self.enabled:
            self._deferred.append(fn)

    def run_deferred(self):
        fns, self._deferred = self._deferred, []
        for fn in fns:
            fn()

    def span(self, name: str, **attrs):
        """Context manager yielding the span's attribute dict, so counters
        from the returned result can be attached after the call."""
        if not self.enabled:
            return self._null
        record = {
            "id": len(self.spans),
            "name": name,
            "check": self.check_id,
            "parent": self._stack[-1] if self._stack else None,
            "start": None,
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(record)
        return _Span(self, record)


def durations(spans, name: str):
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def self_times(spans) -> dict:
    """Total self time per span name, in seconds: each span's duration minus
    the part of its interval its child spans cover (children of one parent
    never overlap here, since calls are sequential)."""
    child_cover = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_cover[s["parent"]] += s["end"] - s["start"]
    totals = defaultdict(float)
    for s in spans:
        totals[s["name"]] += (s["end"] - s["start"]) - child_cover[s["id"]]
    return dict(totals)
