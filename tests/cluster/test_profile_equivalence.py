"""Equivalence of the booking-index ledger against the frozen seed ledger.

The optimisation contract is *bit-identical behaviour*: under any legal
mix of ``reserve``/``release``/``truncate``/``extend`` (including the
sanctioned ``allow_overlap`` restores that make end times unsorted), the
ledger must

* report the same ``max_usage`` skyline as a from-scratch
  :class:`CapacityProfile` rebuild, and hold byte-identical boundary and
  level buffers to it (and to :func:`_skyline_bytes`, a plain recount),
* answer ``node_free``/``free_nodes``/``candidate_times`` identically,
* walk exactly the candidate starts the per-candidate ``window_fits``
  filter keeps (:func:`_filtered_starts`, the oracle), with the same skip
  counts,
* reject exactly the ``reserve`` requests the seed rejects, naming the
  same node, and
* return byte-identical ``find_slot`` results,

at every step.  The driver below replays a seeded random mutation stream
into both ledgers side by side and cross-checks after each op; with
``NUM_SEQUENCES`` independent sequences this covers >10k mutations.  A
200-node variant makes booking masks and node runs cross machine-word
boundaries and feeds ``reserve`` both ``NodeSet`` and tuple inputs.
"""

from __future__ import annotations

import bisect
import random
from array import array

import pytest

from repro.cluster.nodeset import NodeSet
from repro.cluster.reference import SeedReservationLedger
from repro.cluster.reservations import CapacityProfile, ReservationLedger

#: Independent random mutation sequences (acceptance floor: 1000).
NUM_SEQUENCES = 1000
#: Mutations per sequence.
OPS_PER_SEQUENCE = 12
NODES = 12
#: The wide variant: masks span several 64-bit words.
WIDE_NODES = 200
WIDE_SEQUENCES = 40


def _skyline_bytes(reservations):
    """The skyline's boundary and level buffers, recounted from scratch:
    net change per instant, zero changes dropped, running sum."""
    deltas = {}
    for r in reservations:
        deltas[r.start] = deltas.get(r.start, 0) + len(r.nodes)
        deltas[r.end] = deltas.get(r.end, 0) - len(r.nodes)
    times = sorted(t for t, d in deltas.items() if d)
    levels, level = [], 0
    for t in times:
        level += deltas[t]
        levels.append(level)
    return array("d", times).tobytes(), array("q", levels).tobytes()


def _check_profile_bytes(ledger):
    """``ledger.profile()`` holds exactly the buffers of a rebuild."""
    expected = _skyline_bytes(ledger.reservations())
    for profile in (ledger.profile(), CapacityProfile(ledger.reservations())):
        assert (profile._boundaries.tobytes(), profile._usage.tobytes()) == expected


def _filtered_starts(ledger, earliest, duration, size):
    """The oracle for ``fitting_starts``: every candidate start, tested
    one by one with ``window_fits`` on a from-scratch profile."""
    profile = CapacityProfile(ledger.reservations())
    kept, skipped = [], 0
    for start in ledger.candidate_times(earliest):
        if profile.window_fits(start, start + duration, size, ledger.node_count):
            kept.append((start, skipped))
            skipped = 0
        else:
            skipped += 1
    return kept


def _probe_windows(rng, ledger):
    """Windows to cross-check: random plus boundary-aligned ones."""
    horizon = 1.0
    reservations = ledger.reservations()
    windows = []
    for r in reservations[:4]:
        windows.append((r.start, r.end))
        windows.append((r.start - 0.5, r.end + 0.5))
        horizon = max(horizon, r.end)
    for _ in range(3):
        a = rng.uniform(0.0, horizon * 1.1)
        windows.append((a, a + rng.uniform(0.1, horizon)))
    return windows


def _check_walk(rng, fast, seed):
    """``fitting_starts`` on both ledgers equals the oracle, from random
    starts and from starts exactly on a booking start or end."""
    nodes = fast.node_count
    earliests = [rng.uniform(0.0, 600.0), 0.0]
    for r in fast.reservations()[:3]:
        earliests += [r.start, r.end]
    for earliest in earliests:
        # One node too many now and then: nothing fits, nothing is yielded.
        size = rng.randint(1, nodes + 1)
        duration = rng.choice([rng.uniform(1.0, 400.0), rng.uniform(0.01, 5.0)])
        expected = _filtered_starts(seed, earliest, duration, size)
        for ledger in (fast, seed):
            walk = ledger.fitting_starts(earliest, duration, size, count=True)
            assert list(walk) == expected
        # Uncounted walks yield the same starts with zero skips.
        assert list(fast.fitting_starts(earliest, duration, size)) == [
            (start, 0) for start, _ in expected
        ]


def _check_reserve_rejections(rng, fast, seed, next_id):
    """A random (often conflicting) request: both ledgers accept it or
    both reject it with the same message.  Returns the next free id."""
    nodes = fast.node_count
    requested = rng.sample(range(nodes), rng.randint(1, max(1, nodes // 3)))
    start = rng.uniform(0.0, 700.0)
    end = start + rng.uniform(1.0, 300.0)
    request = NodeSet.from_iterable(requested) if rng.random() < 0.5 else requested
    outcomes = []
    for ledger in (fast, seed):
        try:
            ledger.reserve(next_id, request, start, end)
            outcomes.append(None)
        except ValueError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    return next_id + 1 if outcomes[0] is None else next_id


def _check_equivalence(rng, fast: ReservationLedger, seed: SeedReservationLedger):
    nodes = fast.node_count
    assert fast.reservations() == seed.reservations()
    assert fast.candidate_times(0.0) == seed.candidate_times(0.0)

    _check_profile_bytes(fast)
    rebuilt = CapacityProfile(fast.reservations())
    incremental = fast.profile()
    for start, end in _probe_windows(rng, fast):
        assert incremental.max_usage(start, end) == rebuilt.max_usage(start, end)
        assert fast.free_nodes(start, end) == seed.free_nodes(start, end)
        node = rng.randrange(nodes)
        assert fast.node_free(node, start, end) == seed.node_free(node, start, end)

    _check_walk(rng, fast, seed)

    size = rng.randint(1, nodes)
    duration = rng.uniform(1.0, 400.0)
    earliest = rng.uniform(0.0, 600.0)
    assert fast.find_slot(size, duration, earliest) == seed.find_slot(
        size, duration, earliest
    )


def _apply_random_op(rng, fast, seed, next_id):
    """One random mutation, mirrored into both ledgers; returns new id."""
    nodes = fast.node_count
    live = sorted(fast._by_job)
    op = rng.random()
    if not live or op < 0.45:
        size = rng.randint(1, nodes // 2)
        duration = rng.uniform(10.0, 300.0)
        earliest = rng.uniform(0.0, 500.0)
        start, chosen = fast.find_slot(size, duration, earliest)
        end = start + duration
        # Half the time, end exactly where another booking ends (a
        # duplicate end time); the shorter window stays free.
        ends = sorted(r.end for r in fast.reservations())
        inside = ends[bisect.bisect_right(ends, start) : bisect.bisect_right(ends, end)]
        if inside and rng.random() < 0.5:
            end = rng.choice(inside)
        if rng.random() < 0.5:
            chosen = tuple(chosen)
        fast.reserve(next_id, chosen, start, end)
        seed.reserve(next_id, chosen, start, end)
        return next_id + 1
    if op < 0.52:
        return _check_reserve_rejections(rng, fast, seed, next_id)
    job_id = rng.choice(live)
    booking = fast.get(job_id)
    if op < 0.62:
        fast.release(job_id)
        seed.release(job_id)
    elif op < 0.76:
        new_end = rng.uniform(booking.start, booking.end + 50.0)
        if new_end <= booking.start:
            new_end = booking.start + 1.0
        fast.truncate(job_id, new_end)
        seed.truncate(job_id, new_end)
    elif op < 0.90:
        new_end = booking.end + rng.uniform(0.0, 120.0)
        fast.extend(job_id, new_end)
        seed.extend(job_id, new_end)
    else:
        # Release/restore with allow_overlap after extending a neighbour:
        # exercises overlapping bookings and unsorted end times.
        other = rng.choice(live)
        if other != job_id:
            fast.extend(other, fast.get(other).end + 90.0)
            seed.extend(other, seed.get(other).end + 90.0)
        fast.release(job_id)
        seed.release(job_id)
        fast.reserve(
            job_id, booking.nodes, booking.start, booking.end, allow_overlap=True
        )
        seed.reserve(
            job_id, booking.nodes, booking.start, booking.end, allow_overlap=True
        )
    return next_id


def _replay(rng, nodes):
    fast = ReservationLedger(nodes)
    seed = SeedReservationLedger(nodes)
    next_id = 1
    for _ in range(OPS_PER_SEQUENCE):
        next_id = _apply_random_op(rng, fast, seed, next_id)
        _check_equivalence(rng, fast, seed)


@pytest.mark.parametrize("chunk", range(4))
def test_incremental_profile_matches_seed_ledger(chunk):
    per_chunk = NUM_SEQUENCES // 4
    for sequence in range(per_chunk):
        _replay(random.Random(chunk * per_chunk + sequence), NODES)


def test_wide_ledger_matches_seed_ledger():
    for sequence in range(WIDE_SEQUENCES):
        _replay(random.Random(10_000 + sequence), WIDE_NODES)


def test_walk_jumps_over_capacity_runs_and_duplicate_ends():
    ledger = ReservationLedger(4)
    ledger.reserve(1, [0, 1, 2], 0.0, 10.0)
    ledger.reserve(2, [3], 0.0, 10.0)  # a duplicate end at 10
    ledger.reserve(3, [0, 1], 10.0, 20.0)
    ledger.reserve(4, [2], 10.0, 15.0)
    # Two nodes: all 4 busy until 10, then 3 until 15, then 2 until 20.
    walk = list(ledger.fitting_starts(0.0, 5.0, 2, count=True))
    assert walk == _filtered_starts(ledger, 0.0, 5.0, 2)
    assert walk == [(15.0, 2), (20.0, 0)]
    # Starting exactly on a boundary, inside the over-capacity run.
    walk = ledger.fitting_starts(10.0, 1.0, 2, count=True)
    assert list(walk) == [(15.0, 1), (20.0, 0)]
    assert list(ledger.fitting_starts(0.0, 1.0, 5)) == []  # wider than the cluster


def test_first_fit_widens_its_window_past_busy_low_nodes():
    # Nodes 0..149 are busy except 3 holes, so the 40 lowest free nodes
    # need a window wider than the first guesses.
    ledger = ReservationLedger(WIDE_NODES)
    ledger.reserve(1, NodeSet([(0, 10), (11, 70), (72, 150)]), 0.0, 10.0)
    seed = SeedReservationLedger(WIDE_NODES)
    seed.reserve(1, NodeSet([(0, 10), (11, 70), (72, 150)]), 0.0, 10.0)
    start, nodes = ledger.find_slot(40, 5.0, 0.0)
    assert (start, nodes) == seed.find_slot(40, 5.0, 0.0)
    assert nodes == NodeSet([(10, 11), (70, 72), (150, 187)])
    # Capacity passes at 0 but no node is free for the whole window: the
    # widest window comes up short and the walk moves on.
    ledger = ReservationLedger(WIDE_NODES)
    ledger.reserve(1, range(100), 0.0, 5.0)
    ledger.reserve(2, range(100, WIDE_NODES), 5.0, 10.0)
    assert ledger.find_slot(60, 10.0, 0.0) == (5.0, NodeSet.interval(0, 60))


def test_reserve_conflict_names_the_lowest_busy_node():
    ledger = ReservationLedger(WIDE_NODES)
    ledger.reserve(1, NodeSet([(70, 80), (150, 160)]), 0.0, 10.0)
    with pytest.raises(ValueError, match="node 150 not free"):
        ledger.reserve(2, (3, 150, 199), 5.0, 6.0)
    with pytest.raises(ValueError, match="node 75 not free"):
        ledger.reserve(2, NodeSet([(75, 76), (155, 156)]), 5.0, 6.0)
    assert ledger.free_nodes_set(5.0, 6.0) == NodeSet(
        [(0, 70), (80, 150), (160, WIDE_NODES)]
    )


def test_profile_buffers_through_cancelling_and_shared_boundaries():
    ledger = ReservationLedger(8)
    steps = [
        lambda: ledger.reserve(1, [0, 1], 0.0, 10.0),
        # Starts where job 1 ends: -2 and +2 cancel, no boundary at 10.
        lambda: ledger.reserve(2, [2, 3], 10.0, 20.0),
        lambda: ledger.reserve(3, [4], 5.0, 20.0),  # shares the end 20
        lambda: ledger.truncate(3, 10.0),  # onto the cancelled instant
        lambda: ledger.extend(1, 20.0),  # onto an existing boundary
        lambda: ledger.reserve(4, [5, 6], 20.0, 30.0),  # cancels at 20
        lambda: ledger.truncate(4, 25.0),
        lambda: ledger.release(2),
        lambda: ledger.extend(3, 25.0),  # onto job 4's new end
        lambda: ledger.release(1),
        lambda: ledger.release(3),
        lambda: ledger.release(4),
    ]
    for step in steps:
        step()
        _check_profile_bytes(ledger)
        if ledger.get(2) is not None and ledger.get(3) is None:
            assert list(ledger.profile()._boundaries) == [0.0, 20.0]
    assert len(ledger.profile()._boundaries) == 0
    assert ledger._sky_times == [] and ledger._sky_deltas == []


def test_skyline_size_gauge_counts_boundaries():
    from repro.obs.registry import MetricsRegistry

    registry = MetricsRegistry()
    ledger = ReservationLedger(4, registry=registry)
    ledger.reserve(1, [0], 0.0, 10.0)
    ledger.reserve(2, [1], 10.0, 20.0)  # the change at 10 cancels
    assert registry.gauge("cluster.ledger.skyline_size").value == 2
    ledger.reserve(3, [2], 5.0, 15.0)
    assert registry.gauge("cluster.ledger.skyline_size").value == 4


def test_profile_is_cached_between_mutations():
    ledger = ReservationLedger(8)
    ledger.reserve(1, [0, 1], 10.0, 20.0)
    first = ledger.profile()
    assert ledger.profile() is first  # O(1) fast path: same object
    ledger.reserve(2, [2], 5.0, 15.0)
    second = ledger.profile()
    assert second is not first  # mutation invalidated the cache
    assert second.max_usage(10.0, 15.0) == 3


def test_find_slot_with_scorer_matches_seed():
    scorer = lambda node, start, end: (node * 7919) % 13
    rng = random.Random(42)
    fast = ReservationLedger(NODES)
    seed = SeedReservationLedger(NODES)
    for job_id in range(1, 30):
        size = rng.randint(1, NODES // 2)
        duration = rng.uniform(10.0, 300.0)
        earliest = rng.uniform(0.0, 500.0)
        got = fast.find_slot(size, duration, earliest, scorer=scorer)
        assert got == seed.find_slot(size, duration, earliest, scorer=scorer)
        start, nodes = got
        fast.reserve(job_id, nodes, start, start + duration)
        seed.reserve(job_id, nodes, start, start + duration)
