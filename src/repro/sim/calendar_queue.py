"""Event queue backends for the simulation engine.

The :class:`~repro.sim.engine.EventLoop` orders events by the total key
``(time, tie-break, insertion seq)`` (see :mod:`repro.sim.events`).  Any
correct priority queue therefore dispatches the *exact same sequence* —
the backend is purely a performance choice, and the property tests in
``tests/sim/test_calendar_queue.py`` hold the two implementations here to
bit-identical behaviour over randomised schedules.

* :class:`HeapEventQueue` — the seed implementation: one binary heap,
  O(log n) push/pop.  Simple and unbeatable at paper scale (hundreds of
  pending events); kept as the ``--event-loop heap`` fallback and as the
  oracle for the equivalence tests.

* :class:`CalendarEventQueue` — a calendar queue (R. Brown, CACM 1988):
  events hash by ``floor(time / width)`` into a ring of ``nbuckets``
  sorted buckets spanning one "year" of simulated time.  With the bucket
  width tracking the mean event spacing, push and pop touch O(1) items
  amortised regardless of queue depth, which is what keeps a million-job
  replay flat while the heap pays log(pending) per operation.  The ring
  doubles/halves (with a width re-estimate from the live time span) when
  the item count drifts out of band.

Cancellation stays lazy in both backends: cancelled events are purged
when they surface at a bucket/heap head, never searched for.
"""

from __future__ import annotations

import heapq
import math
from bisect import insort
from typing import List, Optional, Protocol, Tuple

from repro.sim.events import Event

#: The engine's total event ordering: (time, tie-break rank, insertion seq).
SortKey = Tuple[float, int, int]

#: One stored queue entry.  Keys are unique (the seq component), so tuple
#: comparison never falls through to comparing events.
QueueItem = Tuple[SortKey, Event]


class EventQueue(Protocol):
    """What the engine needs from a queue backend."""

    def push(self, event: Event, key: Optional[SortKey] = None) -> None:
        """Insert an event under ``key``, its ``sort_key()`` when not
        given (the engine passes the key it already built)."""

    def pop(self) -> Optional[Event]:
        """Remove and return the minimal live event; None when drained."""

    def peek(self) -> Optional[Event]:
        """The minimal live event without removing it; None when drained."""


class HeapEventQueue:
    """Single binary heap: the seed backend and equivalence oracle."""

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: List[QueueItem] = []

    def push(self, event: Event, key: Optional[SortKey] = None) -> None:
        if key is None:
            key = event.sort_key()
        heapq.heappush(self._heap, (key, event))

    def peek(self) -> Optional[Event]:
        while self._heap:
            event = self._heap[0][1]
            if event.cancelled:
                heapq.heappop(self._heap)
                continue
            return event
        return None

    def pop(self) -> Optional[Event]:
        while self._heap:
            event = heapq.heappop(self._heap)[1]
            if event.cancelled:
                continue
            return event
        return None


class CalendarEventQueue:
    """Bucketed calendar queue with O(1) amortised push/pop.

    Invariants:

    * every stored item lives in bucket ``floor(time / width) % nbuckets``
      for the *current* width (resizes redistribute everything);
    * buckets are individually sorted by full key, so the earliest item of
      a bucket is always at index 0 once cancelled heads are purged;
    * ``_cursor`` never exceeds the virtual bucket of the minimal live
      item — pops advance it, and pushes are monotone in engine time, so
      a scan restarted at the cursor can never miss an event.
    """

    __slots__ = ("_buckets", "_nbuckets", "_width", "_count", "_cursor", "_head")

    #: Ring floor; below this, resizing churn outweighs any bucket gain.
    MIN_BUCKETS = 16

    def __init__(self, width: float = 1.0) -> None:
        if width <= 0.0:
            raise ValueError(f"bucket width must be > 0, got {width}")
        self._nbuckets = self.MIN_BUCKETS
        self._buckets: List[List[QueueItem]] = [[] for _ in range(self._nbuckets)]
        self._width = float(width)
        #: Stored items, including cancelled ones not yet purged.
        self._count = 0
        #: Virtual (un-wrapped) bucket index the year scan resumes from.
        self._cursor = 0
        #: Cached minimal item from the last scan; invalidated by resizes
        #: and superseding pushes, revalidated against ``cancelled`` on use.
        self._head: Optional[QueueItem] = None

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def _virtual_bucket(self, time: float) -> int:
        return math.floor(time / self._width)

    def push(self, event: Event, key: Optional[SortKey] = None) -> None:
        if key is None:
            key = event.sort_key()
        item = (key, event)
        vb = self._virtual_bucket(key[0])
        insort(self._buckets[vb % self._nbuckets], item)
        self._count += 1
        if vb < self._cursor:
            # A peek may have parked the cursor past this event's slot (the
            # clock has not advanced, so earlier times are still schedulable);
            # pull it back or the year scan would surface later events first.
            self._cursor = vb
        head = self._head
        if head is not None and key < head[0]:
            self._head = item
        if self._count > self._nbuckets * 2:
            self._resize()

    def peek(self) -> Optional[Event]:
        head = self._head
        if head is not None and not head[1].cancelled:
            return head[1]
        self._head = self._scan()
        return self._head[1] if self._head is not None else None

    def pop(self) -> Optional[Event]:
        head = self._head
        if head is None or head[1].cancelled:
            head = self._scan()
        self._head = None
        if head is None:
            return None
        self._remove_min(head)
        if self._count < self._nbuckets // 2 and self._nbuckets > self.MIN_BUCKETS:
            self._resize()
        return head[1]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _scan(self) -> Optional[QueueItem]:
        """Locate the minimal live item and park the cursor on its year slot.

        One lap over the ring checks each physical bucket for items of the
        virtual bucket it currently fronts (a sorted bucket's head is its
        earliest item, so one head test per bucket suffices).  An empty lap
        means the next event lies beyond the current year: fall back to a
        direct minimum over all bucket heads and jump the cursor there.
        """
        buckets = self._buckets
        nbuckets = self._nbuckets
        vb = self._cursor
        for _ in range(nbuckets):
            bucket = buckets[vb % nbuckets]
            while bucket and bucket[0][1].cancelled:
                del bucket[0]
                self._count -= 1
            if bucket:
                item = bucket[0]
                if self._virtual_bucket(item[0][0]) <= vb:
                    self._cursor = vb
                    return item
            vb += 1
        best: Optional[QueueItem] = None
        for bucket in buckets:
            while bucket and bucket[0][1].cancelled:
                del bucket[0]
                self._count -= 1
            if bucket and (best is None or bucket[0][0] < best[0]):
                best = bucket[0]
        if best is None:
            return None
        self._cursor = self._virtual_bucket(best[0][0])
        return best

    def _remove_min(self, item: QueueItem) -> None:
        """Remove a known-minimal live item from its bucket.

        Everything sorted before the global live minimum in its bucket is
        necessarily cancelled, so purge-from-the-front finds it without a
        search.
        """
        bucket = self._buckets[self._virtual_bucket(item[0][0]) % self._nbuckets]
        while bucket:
            head = bucket[0]
            del bucket[0]
            self._count -= 1
            if head is item:
                return
        raise RuntimeError("calendar queue invariant broken: head not in its bucket")

    def _resize(self) -> None:
        """Re-bucket all live items; drop cancelled ones while at it.

        The new ring holds ~1 live item per bucket and the width is set to
        the mean spacing over the live time span, so the active year covers
        the whole queue.  Ordering is untouched — the width only decides
        *where* items sit, never *when* they surface.
        """
        items: List[QueueItem] = []
        for bucket in self._buckets:
            for item in bucket:
                if not item[1].cancelled:
                    items.append(item)
        count = len(items)
        nbuckets = self.MIN_BUCKETS
        while nbuckets < count:
            nbuckets *= 2
        if count >= 2:
            tmin = min(item[0][0] for item in items)
            tmax = max(item[0][0] for item in items)
            span = tmax - tmin
            if span > 0.0:
                self._width = span / count
        self._nbuckets = nbuckets
        self._buckets = [[] for _ in range(nbuckets)]
        width = self._width
        for item in items:
            self._buckets[math.floor(item[0][0] / width) % nbuckets].append(item)
        for bucket in self._buckets:
            bucket.sort()
        self._count = count
        self._head = None
        if items:
            self._cursor = self._virtual_bucket(min(item[0][0] for item in items))
        else:
            self._cursor = 0


#: Queue backends selectable via ``SystemConfig.event_loop`` / ``--event-loop``.
EVENT_QUEUE_KINDS: Tuple[str, ...] = ("heap", "calendar")


def make_event_queue(kind: str) -> EventQueue:
    """Instantiate a queue backend by name (one of :data:`EVENT_QUEUE_KINDS`)."""
    if kind == "heap":
        return HeapEventQueue()
    if kind == "calendar":
        return CalendarEventQueue()
    raise ValueError(
        f"event queue must be one of {EVENT_QUEUE_KINDS}, got {kind!r}"
    )
