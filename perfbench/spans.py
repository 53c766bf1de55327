"""In-memory span recorder for the benchmark's traced run.

A span is one timed call into a layer: a name (the layer's module path), a
start and end on the ``perf_counter`` clock, the span that caused it, and
optional counters recorded at the same boundary.  Spans stay in memory and
are written out once, when the run ends.  Self time is a span's duration
minus the part of it that its children cover, so a saving shows up on the
span that actually got cheaper.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **counts):
        """Time the body as one span, nested under the innermost open span.
        The body may add counters to the yielded dict."""
        sid = len(self.spans)
        rec = {"id": sid, "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, "counts": dict(counts)}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name.  Children of one span run one
        after another on the driver, so their durations never overlap."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s, c in zip(self.spans, child):
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"] - c)
        return out

    def write(self, path: str, **extra) -> None:
        t0 = min((s["start"] for s in self.spans), default=0.0)
        spans = [dict(s, start=s["start"] - t0, end=s["end"] - t0)
                 for s in self.spans]
        with open(path, "w") as f:
            json.dump({"run": self.run_id, **extra, "spans": spans,
                       "self_s": self.self_times()}, f, indent=1)
