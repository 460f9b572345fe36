"""Ingestion frontend: bounded queueing, micro-batching, admission control.

The online service sits between an unbounded event stream (a tailed
Pushshift ndjson dump, a platform firehose) and the detection engine,
whose per-batch update cost is real work.  Three pieces keep the system
stable under load:

- :class:`EventQueue` — a bounded buffer with an explicit overflow
  policy.  ``reject`` (the default) refuses new events when full —
  ``offer`` returning ``False`` is the **backpressure signal** a
  well-behaved producer reacts to by draining a batch before reading
  more.  ``drop-oldest`` / ``drop-newest`` instead shed load for
  producers that cannot pause (a live socket), trading exactness *of
  the admitted stream* for liveness; every shed event is counted.
- :class:`WatermarkTracker` — event-time progress tracking in the
  standard streaming idiom: the watermark trails the maximum observed
  event time by ``allowed_lateness`` seconds, and the live window is
  the ``window_horizon`` seconds behind the watermark.  An event older
  than the current eviction cutoff is *late beyond repair* (its window
  has already been evicted and answered for) and is dropped at
  admission, keeping the exactness contract well-defined: queries equal
  a batch run over exactly the admitted, unevicted comments.
- :func:`iter_ndjson_events` — lenient Pushshift-record parsing
  through the :mod:`repro.graph.io` loader loop (``errors="skip"`` +
  :class:`~repro.graph.io.IngestStats`): one corrupt line in a tailed
  dump costs one line, never the service.
"""

from __future__ import annotations

import zlib
from collections import deque
from typing import IO, Iterable, Iterator

from repro.graph.io import IngestStats, _page_triples

__all__ = [
    "Event",
    "EventQueue",
    "WatermarkTracker",
    "iter_ndjson_events",
    "page_shard_of",
]

#: One comment event: ``(author, page, created_utc)``.
Event = tuple[str, str, int]


def page_shard_of(page: str, n_shards: int) -> int:
    """The ingest shard that owns *page*'s timeline.

    The sharded tier routes every event to the shard its ``link_id``
    hashes to, so each page's full timeline — and therefore each page's
    co-comment pair ledger — lives on exactly one shard (the locality
    Algorithm 1 exploits).  Stable across processes and Python runs
    (``zlib.crc32`` of the UTF-8 name — the builtin ``hash`` is salted
    per interpreter, which would scatter pages across restarts).
    """
    if n_shards <= 1:
        return 0
    data = str(page).encode("utf-8", "surrogatepass")
    return zlib.crc32(data) % int(n_shards)


_POLICIES = ("reject", "drop-oldest", "drop-newest")


class EventQueue:
    """A bounded FIFO of events with an explicit overflow policy.

    Parameters
    ----------
    capacity:
        Maximum buffered events (> 0).
    policy:
        ``"reject"`` — a full queue refuses the offer (backpressure);
        ``"drop-oldest"`` — evict the head to admit the new event;
        ``"drop-newest"`` — discard the offered event.

    Examples
    --------
    >>> q = EventQueue(capacity=2, policy="drop-oldest")
    >>> [q.offer(("u", "p", t)) for t in (1, 2, 3)]
    [True, True, True]
    >>> [e[2] for e in q.drain(10)], q.dropped
    ([2, 3], 1)
    """

    def __init__(self, capacity: int, policy: str = "reject") -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        if policy not in _POLICIES:
            raise ValueError(f"policy must be one of {_POLICIES}, got {policy!r}")
        self.capacity = int(capacity)
        self.policy = policy
        self._buf: deque[Event] = deque()
        self.offered = 0
        self.dropped = 0

    def offer(self, event: Event) -> bool:
        """Try to enqueue; ``False`` signals backpressure or a shed event.

        Under ``reject`` a ``False`` means the event was *not* admitted
        and the producer should drain before retrying; under the drop
        policies admission of the stream continues but the return value
        still reports whether *this* event survived.
        """
        self.offered += 1
        if len(self._buf) < self.capacity:
            self._buf.append(event)
            return True
        if self.policy == "reject":
            self.dropped += 1
            return False
        if self.policy == "drop-oldest":
            self._buf.popleft()
            self._buf.append(event)
            self.dropped += 1
            return True
        self.dropped += 1  # drop-newest
        return False

    def drain(self, max_events: int) -> list[Event]:
        """Dequeue up to *max_events* in FIFO order (the micro-batch)."""
        if max_events <= 0:
            return []
        out: list[Event] = []
        while self._buf and len(out) < max_events:
            out.append(self._buf.popleft())
        return out

    @property
    def depth(self) -> int:
        """Events currently buffered."""
        return len(self._buf)

    @property
    def is_full(self) -> bool:
        """Whether the next ``reject``-policy offer would bounce."""
        return len(self._buf) >= self.capacity

    def __len__(self) -> int:
        return len(self._buf)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EventQueue(depth={self.depth}/{self.capacity}, "
            f"policy={self.policy})"
        )


class WatermarkTracker:
    """Event-time progress: watermark and sliding-window eviction cutoff.

    The watermark asserts "no event older than this will be accepted";
    it trails the maximum observed event time by ``allowed_lateness``
    seconds and never moves backwards (out-of-order arrivals inside the
    lateness bound therefore land normally).  The live window is the
    ``window_horizon`` seconds up to the watermark: the eviction cutoff
    is ``watermark - window_horizon``, and both advance monotonically.

    Examples
    --------
    >>> wm = WatermarkTracker(window_horizon=100, allowed_lateness=10)
    >>> wm.observe(500)
    >>> wm.watermark, wm.evict_cutoff
    (490, 390)
    >>> wm.observe(400)          # out-of-order: watermark holds
    >>> wm.watermark
    490
    >>> wm.is_admissible(389), wm.is_admissible(390)
    (False, True)
    """

    def __init__(self, window_horizon: int, allowed_lateness: int = 0) -> None:
        if window_horizon <= 0:
            raise ValueError(
                f"window_horizon must be > 0, got {window_horizon}"
            )
        if allowed_lateness < 0:
            raise ValueError(
                f"allowed_lateness must be >= 0, got {allowed_lateness}"
            )
        self.window_horizon = int(window_horizon)
        self.allowed_lateness = int(allowed_lateness)
        self.max_event_time: int | None = None
        self._watermark: int | None = None

    def observe(self, event_time: int) -> None:
        """Fold one event's timestamp into the progress estimate."""
        t = int(event_time)
        if self.max_event_time is None or t > self.max_event_time:
            self.max_event_time = t
            wm = t - self.allowed_lateness
            if self._watermark is None or wm > self._watermark:
                self._watermark = wm

    @property
    def watermark(self) -> int | None:
        """Current watermark (``None`` before any observation)."""
        return self._watermark

    @property
    def evict_cutoff(self) -> int | None:
        """Comments older than this have left the live window."""
        if self._watermark is None:
            return None
        return self._watermark - self.window_horizon

    def is_admissible(self, event_time: int) -> bool:
        """Whether an event still falls inside the live window."""
        cutoff = self.evict_cutoff
        return cutoff is None or int(event_time) >= cutoff


def iter_ndjson_events(
    lines: Iterable[str] | IO[str],
    stats: IngestStats | None = None,
) -> Iterator[Event]:
    """Stream events from ndjson lines, skipping malformed ones.

    Any iterable of lines (an open file, ``sys.stdin``, a list) works,
    so the service can tail a growing file or a pipe.  Accepts and counts
    exactly what ``btm_from_ndjson(errors="skip")`` does.
    """
    return _page_triples(lines, errors="skip", stats=stats)
