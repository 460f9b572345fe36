"""Harness-side spans around the program's public calls.

Spans are ``[name, start, end, parent, rep]`` rows kept in memory and
written once when the run ends.  ``parent`` is the index of the span that
was open on the same thread when this one started (``-1`` for a root), so
a layer's *self time* is its duration minus its direct children's.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path

from repro.util.io import atomic_write_text

__all__ = ["Tracer", "self_times"]

NAME, START, END, PARENT, REP = range(5)
_PROBE_CALLS = 20_000


class _Noop:
    def call(self) -> None:
        pass


class Tracer:
    """Records nested spans per thread; cheap enough for per-event calls."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[list] = []
        self.rep = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        row = [name, 0.0, 0.0, stack[-1] if stack else -1, self.rep]
        with self._lock:
            index = len(self.spans)
            self.spans.append(row)
        stack.append(index)
        row[START] = time.perf_counter()
        try:
            yield row
        finally:
            row[END] = time.perf_counter()
            stack.pop()

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a span whose duration was accumulated, not bracketed.

        For two stages that alternate per record inside one loop: the
        duration is exact, the position inside the parent is nominal.
        """
        stack = getattr(self._local, "stack", None)
        with self._lock:
            self.spans.append([name, start, end, stack[-1] if stack else -1, self.rep])

    def wrap(self, obj, attr: str, name: str) -> None:
        """Replace the bound method ``obj.attr`` with a span-recording one.

        The wrapper is set on the *instance*, so the program's own
        ``self.attr(...)`` calls go through it while the class — and every
        other instance — is untouched.
        """
        inner = getattr(obj, attr)

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            with self.span(name):
                return inner(*args, **kwargs)

        setattr(obj, attr, traced)

    def overhead_ratio(self, wall: float) -> float:
        """Traced wall over the wall without tracing, with tracing *priced*.

        The untraced wall is estimated as ``wall`` minus (spans recorded x
        the cost of one wrapped no-op call, measured here).  Timing a
        traced run against an untraced twin does not work on a host whose
        speed swings by a third between two runs of identical work.
        """
        probe = Tracer("probe")
        noop = _Noop()
        probe.wrap(noop, "call", "noop")
        t0 = time.perf_counter()
        for _ in range(_PROBE_CALLS):
            noop.call()
        traced = time.perf_counter() - t0
        plain = _Noop()
        t0 = time.perf_counter()
        for _ in range(_PROBE_CALLS):
            plain.call()
        span_cost = (traced - (time.perf_counter() - t0)) / _PROBE_CALLS
        return wall / max(wall - len(self.spans) * span_cost, 1e-9)

    def dump(self, path: Path) -> None:
        """Write the trace file (see README "Reading the trace file")."""
        payload = {
            "workload": self.workload,
            "columns": ["name", "start", "end", "parent", "rep"],
            "spans": self.spans,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(path, json.dumps(payload, separators=(",", ":")))


def self_times(spans: list[list]) -> tuple[dict[str, float], dict[str, int]]:
    """Per-name total self time (duration minus direct children) and count."""
    own = [row[END] - row[START] for row in spans]
    for row in spans:
        if row[PARENT] >= 0:
            own[row[PARENT]] -= row[END] - row[START]
    totals: dict[str, float] = {}
    counts: dict[str, int] = {}
    for row, seconds in zip(spans, own):
        totals[row[NAME]] = totals.get(row[NAME], 0.0) + seconds
        counts[row[NAME]] = counts.get(row[NAME], 0) + 1
    return totals, counts
