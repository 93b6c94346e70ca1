"""Interval index over a trace predictor's detectable failures.

The negotiation fast path (see :mod:`repro.core.fastpath`) needs four
queries answered many times per dialogue, all over the same candidate
window:

* the detectability ``p_x`` of the *first* detectable failure on a node
  set — exactly :meth:`~repro.prediction.trace.TracePredictor
  .failure_probability`, the paper's retrieval semantics (the promise);
* the same failure's time and node (the negotiation jump target);
* the per-node variant (the fault-aware placement score), of which only
  the window's *dirty* nodes — those with a detectable failure in it —
  can be nonzero;
* a sound upper bound on the promise *any* partition of a given size
  could earn in the window (the candidate-pruning bound).

The trace predictor answers them by materialising every failure in the
window and scanning it.  This index pre-filters the trace once — keeping
only failures the predictor can actually see (``p_x <= a``) — into four
compact parallel arrays (time, event id, node, ``p_x``) in the trace's
global ``(time, event_id)`` order, which is exactly the tie-break
:meth:`~repro.failures.events.FailureTrace.in_window` applies.  One scan
of a window, :meth:`FailureIntervalIndex.window_firsts`, bisects to its
start and records each dirty node's first failure; every query above is
answered from that scan, which is memoised for the most recent window so
the bound, the placement, the pricing and the jump of one candidate share
it.  Results are *bit-identical* to the trace predictor's.

Undetectable failures (``p_x > a``) are excluded at build time: the
predictor cannot see them, so they can never influence a query result.
"""

from __future__ import annotations

import bisect
from array import array
from itertools import islice
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.cluster.nodeset import NodeSet
from repro.failures.events import FailureTrace
from repro.prediction.base import PredictedFailure

if TYPE_CHECKING:
    from repro.obs.prof import Profiler, Zone


class FailureIntervalIndex:
    """Detectable failures in global time order, scanned once per window.

    Args:
        trace: The failure trace the predictor replays.
        detectability: Static ``p_x`` per ``event_id`` (the trace
            predictor's assignment; sharing it keeps results bit-identical
            across the probe and analytical paths).
        accuracy: The predictor's accuracy ``a``; failures with
            ``p_x > a`` are invisible and therefore not indexed.
    """

    def __init__(
        self,
        trace: FailureTrace,
        detectability: Mapping[int, float],
        accuracy: float,
    ) -> None:
        if not 0.0 <= accuracy <= 1.0:
            raise ValueError(f"accuracy must be in [0, 1], got {accuracy}")
        self._accuracy = float(accuracy)
        # The trace iterates in its global (time, event_id) order, so the
        # arrays inherit exactly the in_window scan order without a sort.
        times, event_ids = array("d"), array("q")
        nodes, px = array("q"), array("d")
        for event in trace:
            value = detectability[event.event_id]
            if value <= accuracy:
                times.append(event.time)
                event_ids.append(event.event_id)
                nodes.append(event.node)
                px.append(value)
        self._times, self._event_ids = times, event_ids
        self._nodes, self._px = nodes, px
        # One-window memo of window_firsts (the index is immutable, so it
        # never goes stale).
        self._window: Tuple[float, float] = (0.0, 0.0)
        self._firsts: Dict[int, int] = {}
        # Profiling (repro.obs.prof): off until bind_profiler.
        self._prof = False
        self._z_query: Optional["Zone"] = None

    def bind_profiler(self, profiler: "Profiler") -> None:
        """Attach a profiler: set queries run in ``prediction.index.query``.

        Binding a null profiler is a no-op (the zone stays unbound and the
        one-bool guard keeps the query path at its uninstrumented cost).
        """
        if profiler.enabled:
            self._prof = True
            self._z_query = profiler.zone("prediction.index.query")

    @property
    def accuracy(self) -> float:
        """The accuracy the index was filtered at."""
        return self._accuracy

    @property
    def detectable_count(self) -> int:
        """Total detectable failures indexed."""
        return len(self._times)

    # ------------------------------------------------------------------
    # The window scan
    # ------------------------------------------------------------------
    def window_firsts(self, start: float, end: float) -> Mapping[int, int]:
        """Each dirty node's first detectable failure in ``[start, end)``.

        Returns ``{node: position}`` with positions into the global arrays,
        in ``(time, event_id)`` order of those first failures (dict
        insertion order); empty for ``end <= start``.  The mapping is
        shared with later calls for the same window: do not mutate it.
        """
        if (start, end) == self._window:
            return self._firsts
        firsts: Dict[int, int] = {}
        if end > start:
            times = self._times
            lo = bisect.bisect_left(times, start)
            hi = bisect.bisect_left(times, end, lo)
            for i, node in enumerate(self._nodes[lo:hi], lo):
                if node not in firsts:
                    firsts[node] = i
        self._window = (start, end)
        self._firsts = firsts
        return firsts

    def window_terms(self, start: float, end: float) -> List[Tuple[int, float]]:
        """``(node, p_x)`` of every dirty node's first detectable failure in
        the window: the only nodes whose :meth:`node_term` can be nonzero."""
        px = self._px
        return [(node, px[i]) for node, i in self.window_firsts(start, end).items()]

    # ------------------------------------------------------------------
    # Point queries
    # ------------------------------------------------------------------
    def node_term(self, node: int, start: float, end: float) -> float:
        """``p_x`` of the node's first detectable failure in the window, or 0.

        Bit-identical to ``TracePredictor.node_failure_probability``.
        """
        i = self.window_firsts(start, end).get(node)
        return self._px[i] if i is not None else 0.0

    def first_detectable(
        self, nodes: Iterable[int], start: float, end: float
    ) -> Optional[Tuple[float, int, float, int]]:
        """``(time, event_id, p_x, node)`` of the set's earliest detectable
        failure in ``[start, end)``, minimised by ``(time, event_id)``.

        That is the first dirty node of the window scan that belongs to
        ``nodes`` — equivalently, the member with the lowest array
        position.  A :class:`NodeSet` (possibly 100k nodes wide) is probed
        once per dirty node; other collections are walked once.
        """
        firsts = self.window_firsts(start, end)
        if not firsts:
            return None
        best: Optional[int] = None
        if isinstance(nodes, NodeSet):
            for node, i in firsts.items():
                if node in nodes:
                    best = i
                    break
        else:
            for node in nodes:
                i = firsts.get(node)
                if i is not None and (best is None or i < best):
                    best = i
        if best is None:
            return None
        return (
            self._times[best], self._event_ids[best], self._px[best],
            self._nodes[best],
        )

    def failure_probability(
        self, nodes: Iterable[int], start: float, end: float
    ) -> float:
        """``p_x`` of the first detectable failure on the set, or 0.

        Bit-identical to ``TracePredictor.failure_probability`` — same
        events, same ``(time, event_id)`` tie-break, same float.
        """
        if not self._prof:
            first = self.first_detectable(nodes, start, end)
            return first[2] if first is not None else 0.0
        assert self._z_query is not None
        with self._z_query:
            first = self.first_detectable(nodes, start, end)
            return first[2] if first is not None else 0.0

    def first_predicted(
        self, nodes: Iterable[int], start: float, end: float
    ) -> Optional[PredictedFailure]:
        """The set's earliest detectable failure as a
        :class:`PredictedFailure` (the negotiation jump target)."""
        first = self.first_detectable(nodes, start, end)
        if first is None:
            return None
        return PredictedFailure(time=first[0], node=first[3], probability=first[2])

    def predicted_failures(
        self, nodes: Iterable[int], start: float, end: float
    ) -> List[PredictedFailure]:
        """All detectable failures on the set in the window, time-sorted
        (``TracePredictor.predicted_failures`` semantics)."""
        if end <= start:
            return []
        members = nodes if isinstance(nodes, NodeSet) else set(nodes)
        times, px = self._times, self._px
        lo = bisect.bisect_left(times, start)
        hi = bisect.bisect_left(times, end, lo)
        return [
            PredictedFailure(time=times[i], node=node, probability=px[i])
            for i, node in enumerate(self._nodes[lo:hi], lo)
            if node in members
        ]

    # ------------------------------------------------------------------
    # Pruning bound
    # ------------------------------------------------------------------
    def best_case_probability(
        self, size: int, start: float, end: float, node_count: int
    ) -> float:
        """Sound upper bound on the promise any ``size``-node partition can
        earn in ``[start, end)``.

        Derivation (see DESIGN.md "Analytical negotiation fast path"): the
        set-level ``p_f`` is the ``p_x`` of the partition's earliest
        detectable failure, which is always some member node's *first*
        in-window failure.  With ``k`` dirty nodes (first failure at
        ``t_1 <= ... <= t_k``, detectabilities ``x_1..x_k``) and ``c``
        clean nodes:

        * ``c >= size`` — an all-clean partition exists, best ``p = 1``;
        * otherwise every partition must contain ``m = size - c`` dirty
          nodes, and its earliest-failing member can only be one of the
          first ``k - m + 1`` dirty nodes in time order (later ones cannot
          lead a set that needs ``m`` dirty members), so the best promise
          is ``1 - min(x_1..x_{k-m+1})``.

        :meth:`window_firsts` lists the dirty nodes already in that time
        order, so the bound is one ``min`` over a prefix of it.  Any
        achievable offer probability is ``<=`` this bound, for every
        topology (supersets of ``size`` only add failures).
        """
        if end <= start:
            return 1.0
        firsts = self.window_firsts(start, end)
        dirty = len(firsts)
        deficit = size - (node_count - dirty)
        if deficit <= 0:
            return 1.0
        if deficit > dirty:
            # size exceeds the cluster: no partition exists at all.  Do not
            # prune — the probe path reports infeasibility naturally.
            return 1.0
        px = self._px
        return 1.0 - min(
            px[i] for i in islice(firsts.values(), dirty - deficit + 1)
        )
