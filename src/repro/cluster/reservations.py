"""Node-level reservation ledger (the scheduler's free-time profile).

Conservative backfilling — which is what a scheduler that *promises
deadlines at submission* must do — books a concrete ``(node set, start,
end)`` reservation for every job the moment it is negotiated.  The ledger
keeps those bookings in one start-ordered index and answers the two
questions the scheduler and the negotiation loop ask:

* *"What is the earliest time at or after ``t`` at which ``n`` nodes are
  simultaneously free for ``d`` seconds, and which nodes?"*
  (:meth:`ReservationLedger.find_slot`) — candidate start times only need to
  be examined at ``t`` itself and at reservation end points, because free
  capacity changes nowhere else;
* *"Is this exact window still free on these nodes?"* for requeue placement.

Reservations are immutable once made except for two paper-sanctioned
adjustments: an early *release* when a job finishes ahead of its padded
estimate (skipped checkpoints), and an *extension* when a start is delayed
by a node still in its 120 s repair window.  Extensions may overlap a later
booking; the conflict resolves at start time (the runtime layer starts jobs
only when their nodes are actually free), mirroring how the paper's
scheduler never re-optimises the future schedule.

Performance model
-----------------
The negotiation dialogue probes the ledger up to ``max_offers`` times per
submission while mutating it at most a handful of times per job, so the
ledger is read-dominated by two to three orders of magnitude.  Two
structures serve every query (see DESIGN.md "Performance" and "Scaling
the substrate"):

* the **booking index** — the live bookings in (start, job id) order as
  four parallel lists: start, end, job id, and the booking's nodes as one
  Python-int bitmask.  A free-node query bisects on start for the
  bookings that begin before the window ends, ORs the masks of those that
  end after it starts, and returns the complement as a mask-born
  :class:`NodeSet` (:meth:`ReservationLedger.free_nodes_set`): fault-aware
  placement ranks on the mask itself and runs are built only for callers
  that iterate the set.  ``node_free`` and ``reserve``'s overlap check
  test the same busy mask, and the last mask is reused until the next
  mutation (a ``reserve`` checks the window its caller just queried).  A
  query costs one C-level pass over those bookings, each OR as wide as
  the widest mask so far (one 30-bit digit per 30 nodes, however
  fragmented the partitions are).  First-fit ``find_slot`` turns only a
  low window of the free mask into runs, growing it until ``size`` free
  nodes fit, so its run steps cost the prefix, not the cluster width.
  Mutations find a booking by bisecting on its start, then job id;
* the aggregate usage **skyline** — two parallel lists kept sorted in
  place by every mutation: the times at which the booked node count
  changes and the (nonzero) change at each.  A mutation bisects into
  them and adds to, inserts or deletes one entry; once per mutation
  generation the levels (a running sum of the changes) are recomputed.
  :meth:`ReservationLedger.fitting_starts` runs the one skyline walk,
  :func:`walk_fitting_starts`, over these lists with no copy; it hands
  callers only the candidate starts that pass the capacity prefilter,
  jumping straight past every over-capacity stretch instead of testing
  each booking end in it.  An over-capacity run ends where usage drops,
  and usage drops only where some booking ends, so the jump always lands
  on a candidate.  :meth:`ReservationLedger.profile` materialises the
  same skyline as a :class:`CapacityProfile` for ``max_usage`` callers.
"""

from __future__ import annotations

import bisect
from array import array
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, compress, islice, repeat
from operator import lt, or_
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.cluster.nodeset import NodeSet, mask_of, mask_runs
from repro.cluster.ranking import NodeScorer, best_nodes
from repro.obs.prof import NULL_PROFILER, Profiler
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry

#: What ``find_slot`` returns for the chosen partition: a run-length
#: :class:`NodeSet` on the scorerless path, a sorted list when a scorer
#: ranked individual nodes.  Both iterate ascending and compare equal to
#: the legacy list representation.
ChosenNodes = Union[NodeSet, List[int]]


class CapacityProfile:
    """Aggregate usage over time: the skyline behind capacity prefiltering.

    The skyline bounds the nodes simultaneously booked in a window from
    *below* the true per-node constraint: a window can pass the capacity
    test yet still fail node-level availability (two nodes each busy for
    half the window leave zero nodes free *throughout* it), so a passing
    window must still be verified with
    :meth:`ReservationLedger.free_nodes_set` — but a failing window is
    failing for sure, and in deep-queue phases almost every candidate
    fails here, skipping the per-node query.

    Storage is two flat ``array`` buffers: ``'d'`` boundaries and ``'q'``
    levels, ``usage[i]`` holding on ``[boundaries[i], boundaries[i+1])``
    (zero before the first boundary and from the last one on).  O(k) to
    build; a million-boundary skyline is ~16 MB instead of a forest of
    boxed floats.

    Construct from a reservation list (one sort), or from an
    already-sorted skyline via :meth:`from_levels` (the ledger's
    incremental path); the buffers are byte-identical for the same
    bookings.
    """

    def __init__(self, reservations: Sequence["Reservation"]) -> None:
        deltas: Dict[float, int] = {}
        for r in reservations:
            width = len(r.nodes)
            deltas[r.start] = deltas.get(r.start, 0) + width
            deltas[r.end] = deltas.get(r.end, 0) - width
        # Zero deltas (e.g. one booking ending exactly where another
        # starts) change no level and are dropped.
        times = sorted(t for t, d in deltas.items() if d)
        self._boundaries = array("d", times)
        self._usage = array("q", accumulate(deltas[t] for t in times))

    @classmethod
    def from_levels(
        cls, times: Sequence[float], levels: Sequence[int]
    ) -> "CapacityProfile":
        """Materialise a profile from ascending change ``times`` and the
        booked node count from each on (the ledger's incremental path)."""
        profile = cls.__new__(cls)
        profile._boundaries = array("d", times)
        profile._usage = array("q", levels)
        return profile

    def max_usage(self, start: float, end: float) -> int:
        """Maximum booked node count over ``[start, end)``."""
        # Segments from the one containing `start` (usage before the first
        # boundary is 0) through the last one that begins before `end`.
        lo = max(bisect.bisect_right(self._boundaries, start) - 1, 0)
        hi = bisect.bisect_left(self._boundaries, end)
        return max(self._usage[lo:hi], default=0)

    def window_fits(self, start: float, end: float, free_needed: int, total: int) -> bool:
        """Capacity prefilter: can ``free_needed`` nodes possibly be free?"""
        return total - self.max_usage(start, end) >= free_needed

    def fitting_starts(
        self,
        end_times: Sequence[float],
        earliest: float,
        duration: float,
        size: int,
        total: int,
        count: bool = False,
    ) -> Iterator[Tuple[float, int]]:
        """The candidate starts whose window passes :meth:`window_fits`;
        see :func:`walk_fitting_starts`."""
        return walk_fitting_starts(
            self._boundaries, self._usage, end_times, earliest, duration,
            size, total, count,
        )


def walk_fitting_starts(
    bounds: Sequence[float],
    levels: Sequence[int],
    end_times: Sequence[float],
    earliest: float,
    duration: float,
    size: int,
    total: int,
    count: bool = False,
) -> Iterator[Tuple[float, int]]:
    """The one skyline walk: candidate starts whose window has room.

    The skyline is ``levels[i]`` nodes booked on ``[bounds[i],
    bounds[i+1])`` (zero before the first bound and from the last one on)
    — a :class:`CapacityProfile`'s buffers, or the ledger's own sorted
    lists.  Candidates are ``earliest`` plus every distinct value of the
    sorted ``end_times`` above it — free capacity changes nowhere else, so
    the earliest feasible start is always one of them.  Yields ``(start,
    skipped)`` in ascending order for exactly the candidates whose window
    ``[start, start + duration)`` never has more than ``total - size``
    nodes booked (:meth:`CapacityProfile.window_fits`); ``skipped`` is how
    many failing candidates came since the previous yield, counted only
    when ``count`` is set (0 otherwise).  Nothing is yielded when ``size >
    total``.

    One walk instead of a range maximum per candidate: from a candidate
    ``t`` it scans the segments meeting ``[t, t+d)``.  On the first one
    above ``total - size`` it jumps ``t`` to the end of that over-capacity
    run — every candidate on the way has a window that meets the run, so
    fails.  The run's end is a drop in usage, so some booking ends there:
    it is itself a candidate.  Segments already found under capacity are
    never rescanned, so a full walk costs O(skyline + candidates) plus one
    bisection per yield.

    The sequences are read lazily: do not mutate their owner mid-walk.
    """
    if size > total:
        return
    cap = total - size
    segments = len(levels)
    ends = len(end_times)
    t = earliest
    nxt_end = bisect.bisect_right(end_times, t)
    # Segments in [segment of t, scanned) are known to be <= cap.
    scanned = max(bisect.bisect_right(bounds, t) - 1, 0)
    skipped = 0
    while True:
        stop = t + duration
        while (
            scanned < segments
            and bounds[scanned] < stop
            and levels[scanned] <= cap
        ):
            scanned += 1
        if scanned == segments or bounds[scanned] >= stop:
            yield t, skipped
            skipped = 0
            if nxt_end == ends:
                return
            t = end_times[nxt_end]
            nxt_end = bisect.bisect_right(end_times, t, nxt_end)
            scanned = max(scanned, bisect.bisect_right(bounds, t) - 1)
            continue
        # Segment `scanned` is over capacity.  The skyline ends at 0, so
        # the run ends, dropping back to <= cap.
        run_end = scanned + 1
        while levels[run_end] > cap:
            run_end += 1
        jump = bounds[run_end]
        if count:
            skipped += 1  # t itself
            last = t
            for i in range(nxt_end, bisect.bisect_left(end_times, jump, nxt_end)):
                if end_times[i] > last:
                    last = end_times[i]
                    skipped += 1
        t = jump
        nxt_end = bisect.bisect_right(end_times, t, nxt_end)
        scanned = run_end + 1


@dataclass
class Reservation:
    """A booked slot: ``job_id`` holds ``nodes`` during ``[start, end)``.

    ``nodes`` is an ascending sequence — the legacy sorted tuple, or a
    run-length :class:`NodeSet` when the booking came through the
    NodeSet-aware fast path; the two compare equal for the same members.
    """

    job_id: int
    nodes: Sequence[int]
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class ReservationLedger:
    """Node-level booking index over a fixed-width cluster.

    Args:
        node_count: Cluster width N; node indexes are ``0..N-1``.
        registry: Optional obs registry; when live, the ledger records its
            probe volume, prefilter effectiveness, and profile-cache hit
            rate under ``cluster.ledger.*`` (see DESIGN.md
            "Observability").
        profiler: Optional hierarchical profiler (:mod:`repro.obs.prof`);
            when live, ``find_slot``/``reserve``/``release`` and free-node
            queries, and profile rebuilds, run inside ``cluster.ledger.*``
            zones.
    """

    def __init__(
        self,
        node_count: int,
        registry: Optional[MetricsRegistry] = None,
        profiler: Optional[Profiler] = None,
    ) -> None:
        if node_count < 1:
            raise ValueError(f"node_count must be >= 1, got {node_count}")
        self._n = node_count
        self._full = NodeSet.full(node_count)
        self._all = (1 << node_count) - 1
        # The booking index: every live booking in (start, job id) order as
        # four parallel lists, its nodes as one int bitmask (bit n = node
        # n).
        self._starts: List[float] = []
        self._ends: List[float] = []
        self._jobs: List[int] = []
        self._masks: List[int] = []
        self._by_job: Dict[int, Reservation] = {}
        # Sorted multiset of reservation end times (candidate start points).
        self._end_times: List[float] = []
        # Aggregate usage skyline, kept sorted in place: the times at which
        # the booked node count changes and the change there (never 0).
        self._sky_times: List[float] = []
        self._sky_deltas: List[int] = []
        # Cache generations: every mutation bumps _version; the profile and
        # the sorted reservation view rebuild at most once per generation.
        self._version = 0
        self._levels: List[int] = []
        self._levels_version = -1
        self._profile: Optional[CapacityProfile] = None
        self._profile_version = -1
        # The last busy-mask answer, keyed by (generation, start, end).
        self._busy_key: Tuple[int, float, float] = (-1, 0.0, 0.0)
        self._busy = 0
        self._sorted: Optional[List[Reservation]] = None
        # Observability: instruments bound once; hot paths gate on _obs so
        # the default null registry costs a single bool test per call.
        registry = registry if registry is not None else NULL_REGISTRY
        self._obs = registry.enabled
        self._c_find_slot = registry.counter("cluster.ledger.find_slot_calls")
        self._c_probes = registry.counter("cluster.ledger.probes")
        self._c_prefilter_rejects = registry.counter(
            "cluster.ledger.prefilter_rejects"
        )
        self._c_profile_hits = registry.counter("cluster.ledger.profile_cache_hits")
        self._c_profile_misses = registry.counter(
            "cluster.ledger.profile_cache_misses"
        )
        self._c_mutations = registry.counter("cluster.ledger.mutations")
        self._h_probe_depth = registry.histogram("cluster.ledger.probe_depth")
        self._g_reservations = registry.gauge("cluster.ledger.reservations")
        self._g_skyline = registry.gauge("cluster.ledger.skyline_size")
        # Profiling: zones bound once, gated on one bool like the registry.
        profiler = profiler if profiler is not None else NULL_PROFILER
        self._prof = profiler.enabled
        self._z_find_slot = profiler.zone("cluster.ledger.find_slot")
        self._z_reserve = profiler.zone("cluster.ledger.reserve")
        self._z_release = profiler.zone("cluster.ledger.release")
        self._z_free_nodes = profiler.zone("cluster.ledger.free_nodes")
        self._z_profile_rebuild = profiler.zone("cluster.ledger.profile_rebuild")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        return self._n

    def __len__(self) -> int:
        return len(self._by_job)

    def __contains__(self, job_id: int) -> bool:
        return job_id in self._by_job

    def get(self, job_id: int) -> Optional[Reservation]:
        """The reservation for ``job_id``, or None."""
        return self._by_job.get(job_id)

    def reservations(self) -> List[Reservation]:
        """All live reservations, sorted by start time.

        The sorted view is cached between mutations; callers receive a
        fresh copy they may mutate freely.
        """
        if self._sorted is None:
            self._sorted = sorted(
                self._by_job.values(), key=lambda r: (r.start, r.job_id)
            )
        return list(self._sorted)

    def profile(self) -> CapacityProfile:
        """The current capacity profile (cached between mutations).

        The sorted skyline lists are maintained in place by every
        mutation; this method copies them into boundary/level arrays on
        the first call after a mutation.  The dialogue's skyline walk
        (:meth:`fitting_starts`) reads the lists themselves and never
        needs this copy; it serves :meth:`CapacityProfile.max_usage`
        callers.
        """
        levels = self._skyline_levels()
        if self._profile is None or self._profile_version != self._version:
            self._profile = CapacityProfile.from_levels(self._sky_times, levels)
            self._profile_version = self._version
        return self._profile

    def _skyline_levels(self) -> List[int]:
        """Booked nodes on each skyline segment: the running sum of the
        changes, computed once per mutation generation.  Every skyline
        read goes through here, so the ``profile_cache_*`` counters count
        one hit or miss per read."""
        if self._levels_version != self._version:
            if self._prof:
                with self._z_profile_rebuild:
                    self._levels = list(accumulate(self._sky_deltas))
            else:
                self._levels = list(accumulate(self._sky_deltas))
            self._levels_version = self._version
            if self._obs:
                self._c_profile_misses.inc()
        elif self._obs:
            self._c_profile_hits.inc()
        return self._levels

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def reserve(
        self,
        job_id: int,
        nodes: Iterable[int],
        start: float,
        end: float,
        allow_overlap: bool = False,
    ) -> Reservation:
        """Book ``nodes`` for ``job_id`` over ``[start, end)``.

        A :class:`NodeSet` argument is taken as already normalised
        (ascending, duplicate-free) and skips the sort entirely — the hot
        path for placements coming straight out of :meth:`find_slot`.
        Any other iterable pays the legacy ``tuple(sorted(set(...)))``.

        Args:
            allow_overlap: Skip the free-window validation.  Only for
                *restoring* a previously held booking that may legally
                overlap another job's :meth:`extend`-ed interval; overlaps
                resolve at start time in the runtime layer.

        Raises:
            ValueError: On overlap with an existing booking (unless
                ``allow_overlap``; the message names the lowest conflicting
                node), a duplicate job id, an out-of-range node, or a
                degenerate window.
        """
        if not self._prof:
            return self._reserve(job_id, nodes, start, end, allow_overlap)
        with self._z_reserve:
            return self._reserve(job_id, nodes, start, end, allow_overlap)

    def _reserve(
        self,
        job_id: int,
        nodes: Iterable[int],
        start: float,
        end: float,
        allow_overlap: bool,
    ) -> Reservation:
        node_seq: Sequence[int]
        if isinstance(nodes, NodeSet):
            node_seq = nodes
        else:
            node_seq = tuple(sorted(set(nodes)))
        if not node_seq:
            raise ValueError(f"job {job_id}: empty node set")
        if end <= start:
            raise ValueError(f"job {job_id}: end {end} <= start {start}")
        if job_id in self._by_job:
            raise ValueError(f"job {job_id} already has a reservation")
        # Ascending input: bounds-checking the extremes covers every node.
        self._check_node(node_seq[0])
        self._check_node(node_seq[-1])
        mask = mask_of(node_seq)
        if not allow_overlap:
            clash = self._busy_mask(start, end) & mask
            if clash:
                node = (clash & -clash).bit_length() - 1
                raise ValueError(
                    f"job {job_id}: node {node} not free over [{start}, {end})"
                )
        idx = self._index(start, job_id)
        self._starts.insert(idx, start)
        self._ends.insert(idx, end)
        self._jobs.insert(idx, job_id)
        self._masks.insert(idx, mask)
        reservation = Reservation(job_id=job_id, nodes=node_seq, start=start, end=end)
        self._by_job[job_id] = reservation
        bisect.insort(self._end_times, end)
        width = len(node_seq)
        self._shift_delta(start, width)
        self._shift_delta(end, -width)
        self._invalidate()
        return reservation

    def release(self, job_id: int) -> Reservation:
        """Drop a job's booking entirely (finish, kill, or cancellation)."""
        if not self._prof:
            return self._release(job_id)
        with self._z_release:
            return self._release(job_id)

    def _release(self, job_id: int) -> Reservation:
        reservation = self._by_job.pop(job_id, None)
        if reservation is None:
            raise KeyError(f"job {job_id} has no reservation")
        idx = self._index(reservation.start, job_id)
        del self._starts[idx]
        del self._ends[idx]
        del self._jobs[idx]
        del self._masks[idx]
        self._remove_end_time(reservation.end)
        width = len(reservation.nodes)
        self._shift_delta(reservation.start, -width)
        self._shift_delta(reservation.end, width)
        self._invalidate()
        return reservation

    def truncate(self, job_id: int, new_end: float) -> Reservation:
        """Shrink a booking's end (job finished earlier than estimated).

        The freed tail becomes available to subsequent ``find_slot`` calls —
        this is where skipped checkpoints buy the system schedule slack.
        """
        reservation = self._by_job.get(job_id)
        if reservation is None:
            raise KeyError(f"job {job_id} has no reservation")
        if new_end >= reservation.end:
            return reservation
        if new_end <= reservation.start:
            raise ValueError(
                f"job {job_id}: truncation to {new_end} precedes start "
                f"{reservation.start}"
            )
        return self._resize(reservation, new_end)

    def extend(self, job_id: int, new_end: float) -> Reservation:
        """Grow a booking's end (start delayed by repair, overrun).

        Unlike :meth:`reserve`, overlap with later bookings is tolerated;
        the runtime layer serialises conflicting starts on actual node
        availability.
        """
        reservation = self._by_job.get(job_id)
        if reservation is None:
            raise KeyError(f"job {job_id} has no reservation")
        if new_end <= reservation.end:
            return reservation
        return self._resize(reservation, new_end)

    def _resize(self, reservation: Reservation, new_end: float) -> Reservation:
        """Shared tail of truncate/extend: move ``end`` to ``new_end``."""
        job_id = reservation.job_id
        self._ends[self._index(reservation.start, job_id)] = new_end
        self._remove_end_time(reservation.end)
        bisect.insort(self._end_times, new_end)
        width = len(reservation.nodes)
        self._shift_delta(reservation.end, width)
        self._shift_delta(new_end, -width)
        self._invalidate()
        updated = Reservation(job_id, reservation.nodes, reservation.start, new_end)
        self._by_job[job_id] = updated
        return updated

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def node_free(self, node: int, start: float, end: float) -> bool:
        """True if ``node`` has no booking overlapping ``[start, end)``."""
        self._check_node(node)
        return not (self._busy_mask(start, end) >> node) & 1

    def free_nodes_set(self, start: float, end: float) -> NodeSet:
        """All nodes free throughout ``[start, end)``, as a :class:`NodeSet`.

        A window past the last booking end is free on every node with no
        work at all; otherwise the set is the complement of the busy mask
        of the overlapping bookings, kept as a mask (its runs are built
        only if a caller iterates it).
        """
        if not self._prof:
            return self._free_nodes_set(start, end)
        with self._z_free_nodes:
            return self._free_nodes_set(start, end)

    def _free_nodes_set(self, start: float, end: float) -> NodeSet:
        if not self._end_times or start >= self._end_times[-1]:
            return self._full
        busy = self._busy_mask(start, end)
        if not busy:
            return self._full
        return NodeSet.from_mask(~busy & self._all)

    def free_nodes(self, start: float, end: float) -> List[int]:
        """All nodes free throughout ``[start, end)``, ascending (legacy
        list form of :meth:`free_nodes_set`)."""
        return self.free_nodes_set(start, end).to_list()

    def busy_jobs_at(self, time: float) -> List[int]:
        """Ids of jobs whose reservation covers ``time``, ascending."""
        return sorted(
            r.job_id
            for r in self._by_job.values()
            if r.start <= time < r.end
        )

    def candidate_times(self, earliest: float, limit: Optional[int] = None) -> List[float]:
        """Start times worth probing: ``earliest`` plus booking end points.

        Free capacity is piecewise-constant between these points, so the
        earliest feasible slot always begins at one of them.
        """
        idx = bisect.bisect_right(self._end_times, earliest)
        tail = self._end_times[idx:]
        times = [earliest]
        last = earliest
        for t in tail:
            if t > last:
                times.append(t)
                last = t
        if limit is not None:
            times = times[:limit]
        return times

    def iter_candidate_times(self, earliest: float) -> Iterator[float]:
        """Lazy :meth:`candidate_times`: same values, no list materialised.

        Yields from a snapshot of the end-time array, so the iterator stays
        valid even if the ledger is mutated mid-iteration (callers still
        see the candidates of the ledger as it was when iteration started,
        exactly like :meth:`candidate_times`).
        """
        yield earliest
        idx = bisect.bisect_right(self._end_times, earliest)
        tail = self._end_times[idx:]
        last = earliest
        for t in tail:
            if t > last:
                yield t
                last = t

    def fitting_starts(
        self, earliest: float, duration: float, size: int, count: bool = False
    ) -> Iterator[Tuple[float, int]]:
        """The candidate starts (see :meth:`candidate_times`) whose window
        passes the capacity prefilter, as ``(start, skipped)`` pairs; see
        :func:`walk_fitting_starts`, run over the ledger's own sorted
        skyline with no copy.  Do not mutate the ledger while consuming
        the walk.
        """
        return walk_fitting_starts(
            self._sky_times, self._skyline_levels(), self._end_times,
            earliest, duration, size, self._n, count,
        )

    def horizon(self) -> float:
        """The last booking end (0.0 when the book is empty): beyond it the
        cluster is entirely free and candidate enumeration switches from
        booking end points to failure jumps."""
        return self._end_times[-1] if self._end_times else 0.0

    def find_slot(
        self,
        size: int,
        duration: float,
        earliest: float,
        scorer: Optional[NodeScorer] = None,
    ) -> Tuple[float, ChosenNodes]:
        """Earliest start >= ``earliest`` with ``size`` nodes free for
        ``duration``; picks the ``size`` best-scoring free nodes.

        Args:
            size: Nodes required.
            duration: Window length in seconds.
            scorer: Optional ``(node, start, end) -> key``; lower keys are
                preferred (the fault-aware scheduler passes predicted
                per-node failure probability here), ranked by
                :func:`~repro.cluster.ranking.best_nodes`.  Ties and the
                no-scorer case fall back to ascending node index, keeping
                placement deterministic.

        Returns:
            ``(start, nodes)`` — ``nodes`` is a :class:`NodeSet` on the
            scorerless (first-fit) path and a sorted list when a scorer
            ranked nodes; both iterate ascending and compare equal to the
            legacy list.

        Raises:
            ValueError: If ``size`` exceeds the cluster width (can never be
                satisfied) or ``duration`` is non-positive.
        """
        if not self._prof:
            return self._find_slot(size, duration, earliest, scorer)
        with self._z_find_slot:
            return self._find_slot(size, duration, earliest, scorer)

    def _find_slot(
        self,
        size: int,
        duration: float,
        earliest: float,
        scorer: Optional[NodeScorer],
    ) -> Tuple[float, ChosenNodes]:
        if size > self._n:
            raise ValueError(f"requested {size} nodes on a {self._n}-node cluster")
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        if duration <= 0:
            raise ValueError(f"duration must be > 0, got {duration}")

        obs = self._obs
        probes = rejects = 0
        for start, skipped in self.fitting_starts(earliest, duration, size, obs):
            probes += skipped + 1
            rejects += skipped
            chosen: Optional[ChosenNodes]
            if scorer is None:
                chosen = self._free_prefix(start, start + duration, size)
            else:
                free = self.free_nodes_set(start, start + duration)
                if len(free) < size:
                    continue
                chosen, _ = best_nodes(free, size, start, start + duration, scorer)
            if chosen is None:
                continue
            if obs:
                self._record_find_slot(probes, rejects)
            return start, chosen
        # Unreachable: the window after the last booking end is always free.
        raise RuntimeError("no feasible slot found past the final booking")

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _busy_mask(self, start: float, end: float) -> int:
        """OR of the masks of every booking overlapping ``[start, end)``:
        those starting before ``end`` (a bisection) that end after
        ``start``.

        The last answer is kept until the next mutation: a ``reserve``
        validates the very window its caller just queried.
        """
        key = (self._version, start, end)
        if key != self._busy_key:
            before = bisect.bisect_left(self._starts, end)
            ends_after = map(lt, repeat(start), islice(self._ends, before))
            self._busy = reduce(or_, compress(self._masks, ends_after), 0)
            self._busy_key = key
        return self._busy

    def _free_prefix(
        self, start: float, end: float, size: int
    ) -> Optional[NodeSet]:
        """The ``size`` lowest-indexed nodes free throughout ``[start,
        end)``, or None when fewer are free: ``free_nodes_set(start,
        end)[:size]`` without complementing the whole busy mask.

        The first-fit answer usually sits far below the top node, so the
        busy mask is read through a low window of ``width`` bits that
        quadruples until ``size`` free nodes fit under it; the run
        arithmetic then costs the prefix, not the cluster width.
        """
        if not self._prof:
            return self._free_prefix_within(start, end, size)
        with self._z_free_nodes:
            return self._free_prefix_within(start, end, size)

    def _free_prefix_within(
        self, start: float, end: float, size: int
    ) -> Optional[NodeSet]:
        if not self._end_times or start >= self._end_times[-1]:
            return NodeSet.interval(0, size)
        busy = self._busy_mask(start, end)
        width = 2 * size
        while True:
            width = min(width, self._n)
            window = (1 << width) - 1
            free = (busy & window) ^ window
            if bin(free).count("1") >= size:
                return NodeSet(mask_runs(free, size))
            if width == self._n:
                return None
            width *= 4

    def _index(self, start: float, job_id: int) -> int:
        """Position of ``(start, job_id)`` in the booking index: the
        booking itself when live, else where it is inserted."""
        lo = bisect.bisect_left(self._starts, start)
        hi = bisect.bisect_right(self._starts, start, lo)
        return bisect.bisect_left(self._jobs, job_id, lo, hi)

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self._n:
            raise ValueError(f"node {node} out of range [0, {self._n})")

    def _shift_delta(self, time: float, change: int) -> None:
        """Apply a nonzero usage change at ``time``: add to the skyline
        entry there, insert one, or delete it when it cancels to 0."""
        times = self._sky_times
        idx = bisect.bisect_left(times, time)
        if idx < len(times) and times[idx] == time:
            value = self._sky_deltas[idx] + change
            if value:
                self._sky_deltas[idx] = value
            else:
                del times[idx]
                del self._sky_deltas[idx]
        else:
            times.insert(idx, time)
            self._sky_deltas.insert(idx, change)

    def _record_find_slot(self, probes: int, rejects: int) -> None:
        """Fold one find_slot call's local tallies into the registry."""
        self._c_find_slot.inc()
        self._c_probes.inc(probes)
        self._c_prefilter_rejects.inc(rejects)
        self._h_probe_depth.observe(probes)

    def _invalidate(self) -> None:
        """Bump the mutation generation; caches rebuild lazily."""
        self._version += 1
        self._sorted = None
        if self._obs:
            self._c_mutations.inc()
            self._g_reservations.set(len(self._by_job))
            self._g_skyline.set(len(self._sky_times))

    def _remove_end_time(self, end: float) -> None:
        idx = bisect.bisect_left(self._end_times, end)
        if idx < len(self._end_times) and self._end_times[idx] == end:
            del self._end_times[idx]
