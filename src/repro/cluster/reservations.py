"""Node-level reservation ledger (the scheduler's free-time profile).

Conservative backfilling — which is what a scheduler that *promises
deadlines at submission* must do — books a concrete ``(node set, start,
end)`` reservation for every job the moment it is negotiated.  The ledger
stores those bookings as per-node interval lists and answers the two
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
ledger is read-dominated by two to three orders of magnitude.  The
structures below exploit that asymmetry (see DESIGN.md "Performance" and
"Scaling the substrate"):

* the aggregate usage *skyline* is kept as an incrementally maintained
  delta map; :meth:`ReservationLedger.profile` materialises it into a
  :class:`CapacityProfile` — flat ``array``-module boundary/level arrays
  with a block-decomposed range maximum — once per mutation generation
  and serves every later call from cache in O(1);
* each node carries a prefix-maximum over its interval end times, making
  :meth:`ReservationLedger.node_free` a pure O(log k) bisection even after
  :meth:`ReservationLedger.extend` has destroyed the sortedness of ends;
* per-node interval lists live in dicts keyed by node and a sorted
  *booked-node* list is maintained incrementally, so every cost scales
  with the number of nodes actually carrying bookings — never with the
  cluster width.  A 100k-node ledger with a hundred live jobs costs the
  same as a 1k-node one;
* free-node queries answer in run-length :class:`~repro.cluster.nodeset
  .NodeSet` form (:meth:`ReservationLedger.free_nodes_set`), and the
  scorerless ``find_slot`` path stops scanning as soon as the requested
  width is covered, so a first-fit placement on a mostly-idle big cluster
  touches a handful of runs instead of materialising 100k-element lists;
* mutations locate a job's per-node interval by bisecting on the known
  reservation start instead of scanning the interval list.
"""

from __future__ import annotations

import bisect
from array import array
from dataclasses import dataclass

import numpy as np
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

from repro.cluster.nodeset import NodeSet
from repro.cluster.ranking import NodeScorer, best_nodes
from repro.obs.prof import NULL_PROFILER, Profiler
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry

#: What ``find_slot`` returns for the chosen partition: a run-length
#: :class:`NodeSet` on the scorerless path, a sorted list when a scorer
#: ranked individual nodes.  Both iterate ascending and compare equal to
#: the legacy list representation.
ChosenNodes = Union[NodeSet, List[int]]


class CapacityProfile:
    """Aggregate usage over time, for cheap infeasibility prefiltering.

    ``max_usage(start, end)`` bounds the nodes simultaneously booked in the
    window from *below* the true per-node constraint: a window can pass the
    capacity test yet still fail node-level availability (two nodes each
    busy for half the window leave zero nodes free *throughout* it), so a
    passing window must still be verified with
    :meth:`ReservationLedger.free_nodes` — but a failing window is failing
    for sure, and in deep-queue phases almost every candidate fails here,
    skipping the expensive per-node scan.

    Storage is two flat ``array`` buffers (``'d'`` boundaries, ``'q'``
    levels) plus per-block maxima: O(k) to build — a million-boundary
    skyline is ~16 MB instead of a forest of boxed floats — and range
    maxima answer from two boundary bisections plus at most two partial
    blocks and one scan over the block-maximum array.

    Construct from a reservation list, or from an already-maintained delta
    map via :meth:`from_deltas` (the ledger's incremental path).
    """

    #: Usage entries per maximum block.  64 keeps partial-block scans
    #: short while the block array stays k/64 long; queries cost ~2·64
    #: element visits regardless of skyline size.
    _BLOCK = 64

    def __init__(self, reservations: Sequence["Reservation"]) -> None:
        deltas: Dict[float, int] = {}
        for r in reservations:
            width = len(r.nodes)
            deltas[r.start] = deltas.get(r.start, 0) + width
            deltas[r.end] = deltas.get(r.end, 0) - width
        self._build(deltas)

    @classmethod
    def from_deltas(cls, deltas: Dict[float, int]) -> "CapacityProfile":
        """Materialise a profile from a ``{time: usage delta}`` map."""
        profile = cls.__new__(cls)
        profile._build(deltas)
        return profile

    def _build(self, deltas: Dict[float, int]) -> None:
        # Vector path pays off once fromiter/argsort amortise their fixed
        # cost; below that the plain loop wins.  Both produce byte-identical
        # arrays (int64 cumsum is exact), so the cutover is invisible.
        if len(deltas) >= 64:
            self._build_vector(deltas)
            return
        # Zero deltas (e.g. one booking ending exactly where another
        # starts) change no level and can be dropped.
        boundaries = sorted(t for t, d in deltas.items() if d)
        self._boundaries = array("d", boundaries)
        usage = array("q", bytes(8 * len(boundaries)))
        level = 0
        for i, t in enumerate(boundaries):
            level += deltas[t]
            usage[i] = level
        # usage[i] holds on [boundaries[i], boundaries[i+1]).
        self._usage = usage
        block = self._BLOCK
        self._block_max = array(
            "q",
            (
                max(usage[i : i + block])
                for i in range(0, len(usage), block)
            ),
        )

    def _build_vector(self, deltas: Dict[float, int]) -> None:
        """Vectorised :meth:`_build`: sort/cumsum/block-max in numpy.

        Boundary times are unique dict keys, so the argsort permutation is
        unambiguous, and the running levels are an exact int64 cumsum —
        the resulting buffers are byte-for-byte the ones the scalar loop
        produces.
        """
        count = len(deltas)
        times = np.fromiter(deltas.keys(), dtype=np.float64, count=count)
        changes = np.fromiter(deltas.values(), dtype=np.int64, count=count)
        live = changes != 0
        times = times[live]
        changes = changes[live]
        order = np.argsort(times)
        times = times[order]
        usage = np.cumsum(changes[order])
        self._boundaries = array("d")
        self._boundaries.frombytes(times.tobytes())
        self._usage = array("q")
        self._usage.frombytes(usage.tobytes())
        self._block_max = array("q")
        if len(usage):
            block_starts = np.arange(0, len(usage), self._BLOCK)
            self._block_max.frombytes(
                np.maximum.reduceat(usage, block_starts).tobytes()
            )

    def max_usage(self, start: float, end: float) -> int:
        """Maximum booked node count over ``[start, end)``."""
        if not self._usage:
            return 0
        # Segment whose interval contains `start` (usage before the first
        # boundary is 0).
        lo = bisect.bisect_right(self._boundaries, start) - 1
        hi = bisect.bisect_left(self._boundaries, end) - 1
        if hi < 0:
            return 0
        lo = max(lo, 0)
        if lo > hi:
            # Window entirely inside one pre-first-boundary gap.
            return self._usage[hi] if hi >= 0 else 0
        return self._range_max(lo, hi)

    def _range_max(self, lo: int, hi: int) -> int:
        """Maximum of ``_usage[lo..hi]`` (inclusive) via block decomposition."""
        block = self._BLOCK
        usage = self._usage
        b_lo = lo // block
        b_hi = hi // block
        if b_hi - b_lo <= 1:
            return max(usage[lo : hi + 1])
        best = max(usage[lo : (b_lo + 1) * block])
        mid = self._block_max[b_lo + 1 : b_hi]
        if mid:
            mid_max = max(mid)
            if mid_max > best:
                best = mid_max
        tail = max(usage[b_hi * block : hi + 1])
        return tail if tail > best else best

    def window_fits(self, start: float, end: float, free_needed: int, total: int) -> bool:
        """Capacity prefilter: can ``free_needed`` nodes possibly be free?"""
        return total - self.max_usage(start, end) >= free_needed


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
    """Per-node interval book-keeping over a fixed-width cluster.

    Args:
        node_count: Cluster width N; node indexes are ``0..N-1``.
        registry: Optional obs registry; when live, the ledger records its
            probe volume, prefilter effectiveness, and profile-cache hit
            rate under ``cluster.ledger.*`` (see DESIGN.md
            "Observability").
        profiler: Optional hierarchical profiler (:mod:`repro.obs.prof`);
            when live, ``find_slot``/``reserve`` calls and profile
            rebuilds run inside ``cluster.ledger.*`` zones.
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
        # Per-node parallel arrays of (start, end, job_id), sorted by start,
        # held only for nodes that actually carry bookings — construction
        # and memory are O(live bookings), not O(cluster width).
        self._starts: Dict[int, List[float]] = {}
        self._ends: Dict[int, List[float]] = {}
        self._jobs: Dict[int, List[int]] = {}
        # Prefix maxima over _ends: _pmax_ends[n][i] = max(_ends[n][:i+1]).
        # Ends are not sorted once extend() has run; the prefix maximum is
        # what makes node_free a single bisection regardless.
        self._pmax_ends: Dict[int, List[float]] = {}
        # Ascending nodes carrying at least one interval; maintained
        # incrementally so free-node scans touch booked nodes only.
        self._booked: List[int] = []
        # Every live booking's node runs, sorted by node interval:
        # (node_lo, node_hi, start, end, job_id).  Free-set queries sweep
        # this when it is shorter than the booked-node list — on a big
        # cluster running wide jobs the run count is an order of magnitude
        # below the booked-node count, and the sweep needs no per-node
        # bisections at all.
        self._busy_runs: List[Tuple[int, int, float, float, int]] = []
        self._by_job: Dict[int, Reservation] = {}
        # Sorted multiset of reservation end times (candidate start points).
        self._end_times: List[float] = []
        # Aggregate usage skyline, maintained incrementally: time -> net
        # change in booked node count at that instant (zero entries pruned).
        self._deltas: Dict[float, int] = {}
        # Cache generations: every mutation bumps _version; the profile and
        # the sorted reservation view rebuild at most once per generation.
        self._version = 0
        self._profile: Optional[CapacityProfile] = None
        self._profile_version = -1
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

        The skyline deltas are maintained incrementally by every mutation;
        this method only pays to materialise boundary/level arrays (and the
        block maxima) on the first call after a mutation.  During a
        negotiation dialogue — hundreds of probes, zero mutations — every
        call after the first is O(1).
        """
        if self._profile is None or self._profile_version != self._version:
            if self._prof:
                with self._z_profile_rebuild:
                    self._profile = CapacityProfile.from_deltas(self._deltas)
            else:
                self._profile = CapacityProfile.from_deltas(self._deltas)
            self._profile_version = self._version
            if self._obs:
                self._c_profile_misses.inc()
        elif self._obs:
            self._c_profile_hits.inc()
        return self._profile

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
                ``allow_overlap``), a duplicate job id, an out-of-range
                node, or a degenerate window.
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
        if not allow_overlap:
            # Only booked nodes can conflict; unbooked members are free by
            # definition, so validation scans the (sorted) intersection of
            # the request with the booked-node list — sublinear in the
            # partition width on a big, mostly-idle cluster.
            for node in self._booked_within(node_seq):
                if not self.node_free(node, start, end):
                    raise ValueError(
                        f"job {job_id}: node {node} not free over [{start}, {end})"
                    )
        fresh: List[int] = []
        for node in node_seq:
            starts = self._starts.get(node)
            if starts is None:
                self._starts[node] = [start]
                self._ends[node] = [end]
                self._jobs[node] = [job_id]
                self._pmax_ends[node] = [end]
                fresh.append(node)
                continue
            idx = bisect.bisect_left(starts, start)
            starts.insert(idx, start)
            self._ends[node].insert(idx, end)
            self._jobs[node].insert(idx, job_id)
            self._pmax_ends[node].insert(idx, end)
            self._refresh_pmax(node, idx)
        for node in fresh:
            bisect.insort(self._booked, node)
        reservation = Reservation(job_id=job_id, nodes=node_seq, start=start, end=end)
        self._by_job[job_id] = reservation
        for lo, hi in self._node_runs(node_seq):
            bisect.insort(self._busy_runs, (lo, hi, start, end, job_id))
        bisect.insort(self._end_times, end)
        width = len(node_seq)
        self._shift_delta(start, width)
        self._shift_delta(end, -width)
        self._invalidate()
        return reservation

    def release(self, job_id: int) -> Reservation:
        """Drop a job's booking entirely (finish, kill, or cancellation)."""
        reservation = self._by_job.pop(job_id, None)
        if reservation is None:
            raise KeyError(f"job {job_id} has no reservation")
        for node in reservation.nodes:
            idx = self._find_entry(node, job_id, reservation.start)
            starts = self._starts[node]
            del starts[idx]
            del self._ends[node][idx]
            del self._jobs[node][idx]
            del self._pmax_ends[node][idx]
            if starts:
                self._refresh_pmax(node, idx)
            else:
                self._drop_node(node)
        for lo, hi in self._node_runs(reservation.nodes):
            self._remove_busy_run(
                (lo, hi, reservation.start, reservation.end, reservation.job_id)
            )
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
        for node in reservation.nodes:
            idx = self._find_entry(node, job_id, reservation.start)
            self._ends[node][idx] = new_end
            self._refresh_pmax(node, idx)
        for lo, hi in self._node_runs(reservation.nodes):
            self._remove_busy_run(
                (lo, hi, reservation.start, reservation.end, job_id)
            )
            bisect.insort(
                self._busy_runs, (lo, hi, reservation.start, new_end, job_id)
            )
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
        """True if ``node`` has no booking overlapping ``[start, end)``.

        An interval overlaps iff it starts before ``end`` and ends after
        ``start``; the prefix maximum over ends of all intervals starting
        before ``end`` answers "does any end exceed ``start``" in O(1)
        after one bisection.
        """
        self._check_node(node)
        starts = self._starts.get(node)
        if starts is None:
            return True
        idx = bisect.bisect_left(starts, end)
        return idx == 0 or self._pmax_ends[node][idx - 1] <= start

    def free_nodes_set(self, start: float, end: float) -> NodeSet:
        """All nodes free throughout ``[start, end)``, as a run-length set.

        Skyline fast path: a window past the last booking end, or one the
        aggregate profile shows as entirely unbooked, is free on every
        node — no per-node checks at all.  Otherwise only *booked* nodes
        are tested (one bisection each); everything else is free by
        definition, so the cost scales with live bookings, not cluster
        width.
        """
        if not self._end_times or start >= self._end_times[-1]:
            return self._full
        if self.profile().max_usage(start, end) == 0:
            return self._full
        if len(self._busy_runs) < len(self._booked):
            return self._free_set_sweep(start, end)
        starts_map = self._starts
        pmax_map = self._pmax_ends
        busy: List[int] = []
        for node in self._booked:
            starts = starts_map[node]
            idx = bisect.bisect_left(starts, end)
            if idx > 0 and pmax_map[node][idx - 1] > start:
                busy.append(node)
        if not busy:
            return self._full
        return self._full.difference(NodeSet.from_sorted(busy))

    def _free_set_sweep(self, start: float, end: float) -> NodeSet:
        """:meth:`free_nodes_set` via one pass over the sorted booking
        runs: union the time-overlapping runs, complement the union.  No
        per-node work — the cost is the live *run* count, which on wide
        partitions sits far below the booked-node count.
        """
        busy: List[Tuple[int, int]] = []
        for lo, hi, r_start, r_end, _job in self._busy_runs:
            if r_start >= end or r_end <= start:
                continue
            if busy and lo <= busy[-1][1]:
                if hi > busy[-1][1]:
                    busy[-1] = (busy[-1][0], hi)
            else:
                busy.append((lo, hi))
        if not busy:
            return self._full
        return self._full.difference(NodeSet(busy))

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

        The negotiation dialogue usually accepts within the first few
        candidates, so building the full candidate list per dialogue is
        wasted work on deep queues.  Yields from a snapshot of the end-time
        array, so the iterator stays valid even if the ledger is mutated
        mid-iteration (callers still see the candidates of the ledger as it
        was when iteration started, exactly like :meth:`candidate_times`).
        """
        yield earliest
        idx = bisect.bisect_right(self._end_times, earliest)
        tail = self._end_times[idx:]
        last = earliest
        for t in tail:
            if t > last:
                yield t
                last = t

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
        profile = self.profile()
        for start in self.candidate_times(earliest):
            probes += 1
            if not profile.window_fits(start, start + duration, size, self._n):
                rejects += 1
                continue
            if scorer is None:
                # First-fit wants the lowest `size` free indexes; stop the
                # booked-node walk the moment they are covered instead of
                # materialising the whole free set.
                prefix = self._free_prefix(start, start + duration, size)
                if prefix is not None:
                    if obs:
                        self._record_find_slot(probes, rejects)
                    return start, prefix
                continue
            free = self.free_nodes_set(start, start + duration)
            if len(free) >= size:
                chosen, _ = best_nodes(free, size, start, start + duration, scorer)
                if obs:
                    self._record_find_slot(probes, rejects)
                return start, chosen
        # Unreachable: the window after the last booking end is always free.
        raise RuntimeError("no feasible slot found past the final booking")

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _free_prefix(
        self, start: float, end: float, size: int
    ) -> Optional[NodeSet]:
        """The ``size`` lowest-indexed nodes free over ``[start, end)``,
        or None when fewer than ``size`` are free in total.

        Identical to ``free_nodes_set(start, end)[:size]`` but walks the
        booked-node list front to back and returns as soon as the width is
        covered — on a lightly fragmented cluster that is O(size) run
        arithmetic no matter how wide the machine is.
        """
        if (
            not self._end_times
            or start >= self._end_times[-1]
            or self.profile().max_usage(start, end) == 0
        ):
            return NodeSet.interval(0, size)
        if len(self._busy_runs) < len(self._booked):
            return self._free_prefix_sweep(start, end, size)
        runs: List[Tuple[int, int]] = []
        needed = size
        cursor = 0  # next index not yet classified; everything below is done
        starts_map = self._starts
        pmax_map = self._pmax_ends
        for node in self._booked:
            if node > cursor:
                take = min(node - cursor, needed)
                self._append_run(runs, cursor, cursor + take)
                needed -= take
                if needed == 0:
                    return NodeSet(runs)
            starts = starts_map[node]
            idx = bisect.bisect_left(starts, end)
            if idx == 0 or pmax_map[node][idx - 1] <= start:
                self._append_run(runs, node, node + 1)
                needed -= 1
                if needed == 0:
                    return NodeSet(runs)
            cursor = node + 1
        if cursor < self._n:
            take = min(self._n - cursor, needed)
            self._append_run(runs, cursor, cursor + take)
            needed -= take
            if needed == 0:
                return NodeSet(runs)
        return None

    def _free_prefix_sweep(
        self, start: float, end: float, size: int
    ) -> Optional[NodeSet]:
        """:meth:`_free_prefix` via the sorted booking-run sweep.

        Walks runs in ascending node order keeping a busy high-water mark;
        every gap between the mark and the next time-overlapping run is
        free.  Runs whose time window misses ``[start, end)`` never extend
        the mark, so their nodes fall into gaps unless another booking
        covers them.  Same early exit as the per-node walk.
        """
        runs: List[Tuple[int, int]] = []
        needed = size
        cursor = 0  # lowest node index not yet known busy
        for lo, hi, r_start, r_end, _job in self._busy_runs:
            if r_start >= end or r_end <= start:
                continue
            if lo > cursor:
                take = min(lo - cursor, needed)
                self._append_run(runs, cursor, cursor + take)
                needed -= take
                if needed == 0:
                    return NodeSet(runs)
            if hi > cursor:
                cursor = hi
        if cursor < self._n:
            take = min(self._n - cursor, needed)
            self._append_run(runs, cursor, cursor + take)
            needed -= take
            if needed == 0:
                return NodeSet(runs)
        return None

    @staticmethod
    def _append_run(runs: List[Tuple[int, int]], lo: int, hi: int) -> None:
        """Append ``[lo, hi)`` to a run list, merging adjacency."""
        if runs and runs[-1][1] == lo:
            runs[-1] = (runs[-1][0], hi)
        else:
            runs.append((lo, hi))

    @staticmethod
    def _node_runs(nodes: Sequence[int]) -> List[Tuple[int, int]]:
        """``nodes`` (ascending, duplicate-free) as half-open runs."""
        if isinstance(nodes, NodeSet):
            return list(nodes.runs)
        runs: List[Tuple[int, int]] = []
        for node in nodes:
            if runs and runs[-1][1] == node:
                runs[-1] = (runs[-1][0], node + 1)
            else:
                runs.append((node, node + 1))
        return runs

    def _remove_busy_run(self, entry: Tuple[int, int, float, float, int]) -> None:
        idx = bisect.bisect_left(self._busy_runs, entry)
        del self._busy_runs[idx]

    def _booked_within(self, nodes: Sequence[int]) -> Iterator[int]:
        """Ascending members of ``nodes`` that carry at least one booking."""
        booked = self._booked
        if isinstance(nodes, NodeSet):
            for run_start, run_stop in nodes.runs:
                i = bisect.bisect_left(booked, run_start)
                while i < len(booked) and booked[i] < run_stop:
                    yield booked[i]
                    i += 1
            return
        for node in nodes:
            i = bisect.bisect_left(booked, node)
            if i < len(booked) and booked[i] == node:
                yield node

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self._n:
            raise ValueError(f"node {node} out of range [0, {self._n})")

    def _drop_node(self, node: int) -> None:
        """Forget a node whose last interval was just removed."""
        del self._starts[node]
        del self._ends[node]
        del self._jobs[node]
        del self._pmax_ends[node]
        idx = bisect.bisect_left(self._booked, node)
        del self._booked[idx]

    def _find_entry(self, node: int, job_id: int, start: float) -> int:
        """Index of the job's interval on ``node``, via bisection on the
        reservation's known start (several bookings may share a start only
        through ``allow_overlap`` restores, hence the short equal-run walk).
        """
        starts = self._starts.get(node)
        if starts is None:
            raise KeyError(f"job {job_id} has no interval on node {node}")
        jobs = self._jobs[node]
        idx = bisect.bisect_left(starts, start)
        while idx < len(starts) and starts[idx] == start:
            if jobs[idx] == job_id:
                return idx
            idx += 1
        raise KeyError(f"job {job_id} has no interval on node {node}")

    def _refresh_pmax(self, node: int, from_idx: int) -> None:
        """Recompute the end-time prefix maxima from ``from_idx`` on.

        O(k) in the node's booking count, paid only on mutation; queries
        between mutations read the prefix in O(1).
        """
        ends = self._ends[node]
        pmax = self._pmax_ends[node]
        running = pmax[from_idx - 1] if from_idx > 0 else float("-inf")
        for i in range(from_idx, len(ends)):
            if ends[i] > running:
                running = ends[i]
            pmax[i] = running

    def _shift_delta(self, time: float, change: int) -> None:
        """Apply a usage delta at ``time``; zero entries are pruned."""
        value = self._deltas.get(time, 0) + change
        if value:
            self._deltas[time] = value
        else:
            self._deltas.pop(time, None)

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
            self._g_skyline.set(len(self._deltas))

    def _remove_end_time(self, end: float) -> None:
        idx = bisect.bisect_left(self._end_times, end)
        if idx < len(self._end_times) and self._end_times[idx] == end:
            del self._end_times[idx]
