"""The engine dispatches in exactly ``(time, TIE_BREAK_ORDER, seq)`` order.

A sorted-list oracle shadows every random schedule: each handler checks
that the event it was handed is the least live key the oracle holds, and
then schedules and cancels more events itself — ties at the current
instant, every kind, cancellations of events already dispatched or
already cancelled.  Between loop runs the driver does the same from
outside and stops the loop with ``run(until=...)`` or ``max_events``.
After every action ``pending_events`` must equal the oracle's live
count, and no two events may share a payload dict.  Both queue backends
run every schedule.
"""

from __future__ import annotations

import bisect
import random

import pytest

from repro.sim.calendar_queue import EVENT_QUEUE_KINDS
from repro.sim.engine import EventLoop
from repro.sim.events import TIE_BREAK_ORDER, EventKind

KINDS = list(TIE_BREAK_ORDER)
SCHEDULES = 150


class _Oracle:
    """Every scheduled event, with a sorted list of the live keys."""

    def __init__(self, loop: EventLoop, rng: random.Random) -> None:
        self.loop = loop
        self.rng = rng
        self.events = []
        self.live = []  # sorted (time, rank, seq)
        self.dispatched = []
        self.shared = {"tag": "shared"}  # splatted into many schedules
        for kind in KINDS:
            loop.register(kind, self.handle)

    def schedule(self) -> None:
        loop, rng = self.loop, self.rng
        roll = rng.random()
        if roll < 0.3:
            delay = 0.0  # a tie at the current instant
        elif roll < 0.6:
            delay = float(rng.randint(0, 4))
        else:
            delay = rng.uniform(0.0, 50.0)
        kind = rng.choice(KINDS)
        if rng.random() < 0.5:
            event = loop.schedule(loop.now + delay, kind, **self.shared)
        else:
            event = loop.schedule_in(delay, kind, n=len(self.events))
        key = (event.time, TIE_BREAK_ORDER[kind], event.seq)
        assert event.sort_key() == key
        bisect.insort(self.live, key)
        self.events.append(event)

    def cancel(self) -> None:
        if not self.events:
            return
        event = self.rng.choice(self.events)
        key = (event.time, TIE_BREAK_ORDER[event.kind], event.seq)
        # Already dispatched or already cancelled: no live count change.
        index = bisect.bisect_left(self.live, key)
        if index < len(self.live) and self.live[index] == key and not event.cancelled:
            del self.live[index]
        event.cancel()

    def act(self) -> None:
        for _ in range(self.rng.randint(0, 3)):
            if self.rng.random() < 0.7:
                self.schedule()
            else:
                self.cancel()
            assert self.loop.pending_events == len(self.live)

    def handle(self, event) -> None:
        key = (event.time, TIE_BREAK_ORDER[event.kind], event.seq)
        assert self.live and self.live[0] == key, "out-of-order dispatch"
        assert self.loop.now == event.time
        del self.live[0]
        self.dispatched.append(key)
        assert self.loop.pending_events == len(self.live)
        # Handlers stop scheduling past a budget, so every schedule drains.
        if len(self.events) < 120:
            self.act()


def _replay(seed: int, queue: str):
    rng = random.Random(seed)
    loop = EventLoop(queue=queue)
    oracle = _Oracle(loop, rng)
    for _ in range(rng.randint(1, 8)):
        oracle.schedule()
    for _ in range(rng.randint(1, 6)):
        oracle.act()
        if rng.random() < 0.5:
            until = loop.now + rng.uniform(0.0, 20.0)
            before = len(oracle.dispatched)
            loop.run(until=until)
            assert all(t <= until for t, _, _ in oracle.dispatched[before:])
            if oracle.live:
                assert oracle.live[0][0] > until
                assert loop.now == until
        else:
            cap = rng.randint(0, 5)
            count = loop.run(max_events=cap)
            assert count <= cap
            if count < cap:
                assert not oracle.live  # stopped early only by draining
        assert loop.pending_events == len(oracle.live)
    loop.run()
    assert oracle.live == [] and loop.pending_events == 0
    # Keys need not rise globally (a handler may schedule a lower-ranked
    # kind at the current instant), but the clock never runs backwards.
    times = [t for t, _, _ in oracle.dispatched]
    assert times == sorted(times)
    assert loop.processed_events == len(oracle.dispatched)
    payloads = {id(event.payload) for event in oracle.events}
    assert len(payloads) == len(oracle.events), "events share a payload dict"
    assert all(event.payload is not oracle.shared for event in oracle.events)
    return oracle.dispatched


@pytest.mark.parametrize("queue", EVENT_QUEUE_KINDS)
def test_dispatch_follows_the_total_order_against_an_oracle(queue):
    for seed in range(SCHEDULES):
        _replay(seed, queue)


def test_both_backends_dispatch_the_same_sequence():
    for seed in range(SCHEDULES):
        assert _replay(seed, "heap") == _replay(seed, "calendar")


def test_kind_rank_is_the_tie_break_order():
    for kind in EventKind:
        assert kind.rank == TIE_BREAK_ORDER[kind]
