"""Sparse fault-aware placement and window scans against their oracles.

Two oracles, kept here because the library no longer runs them:

* :func:`oracle_select` — the full sort every scored placement used to
  do: all free nodes ranked by ``(score, node)``, the best ``size`` kept;
* :func:`oracle_best_case` — the pruning bound as it was computed before
  window scans: one first-failure lookup per failing node, then a sort by
  ``(time, event_id)``.

Both are written from the raw failure events, independent of
:class:`FailureIntervalIndex`.  The randomized tests draw detectabilities
from a small set so that ``p_x == 0.0`` dirty nodes, equal ``p_x`` on
different nodes and equal failure times all occur.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.cluster.nodeset import NodeSet
from repro.cluster.ranking import WindowScorer, best_nodes
from repro.cluster.reservations import ReservationLedger
from repro.cluster.topology import FlatTopology
from repro.core.fastpath import AnalyticalEvaluator
from repro.failures.events import FailureEvent, FailureTrace
from repro.obs.registry import MetricsRegistry
from repro.prediction.index import FailureIntervalIndex
from repro.prediction.trace import TracePredictor
from repro.scheduling.placement import fault_aware_scorer

HOUR = 3600.0


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------
def oracle_select(free, size, start, end, scorer):
    """The full sort: every free node scored, best ``size`` by (score, node)."""
    ranked = sorted(free, key=lambda n: (scorer(n, start, end), n))
    return sorted(ranked[:size])


def oracle_first(trace, detectability, accuracy, node, start, end):
    """``(time, event_id, p_x)`` of the node's first detectable failure in
    ``[start, end)``, or None."""
    for event in trace.for_node(node):
        if start <= event.time < end and detectability[event.event_id] <= accuracy:
            return event.time, event.event_id, detectability[event.event_id]
    return None


def oracle_term(trace, detectability, accuracy, node, start, end):
    first = oracle_first(trace, detectability, accuracy, node, start, end)
    return first[2] if first is not None else 0.0


def oracle_best_case(trace, detectability, accuracy, size, start, end, node_count):
    """The per-failing-node + sort pruning bound."""
    if end <= start:
        return 1.0
    dirty = []
    for node in trace.nodes:
        first = oracle_first(trace, detectability, accuracy, node, start, end)
        if first is not None:
            dirty.append(first)
    clean = node_count - len(dirty)
    deficit = size - clean
    if deficit <= 0 or deficit > len(dirty):
        return 1.0
    dirty.sort(key=lambda d: (d[0], d[1]))
    reachable = dirty[: len(dirty) - deficit + 1]
    return 1.0 - min(d[2] for d in reachable)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
#: Few distinct values, so ties (including at 0.0) are common.
PX = st.sampled_from([0.0, 0.0, 0.25, 0.5, 0.5, 0.75, 1.0])


@st.composite
def scenarios(draw):
    node_count = draw(st.integers(1, 12))
    raw = draw(
        st.lists(
            st.tuples(st.integers(0, 20), st.integers(0, node_count - 1), PX),
            max_size=30,
        )
    )
    # Integer-hour times make equal failure times on different nodes (and
    # on one node) common; event ids break those ties.
    events = [
        FailureEvent(event_id=i + 1, time=t * HOUR, node=n)
        for i, (t, n, _) in enumerate(raw)
    ]
    detectability = {i + 1: px for i, (_, _, px) in enumerate(raw)}
    accuracy = draw(st.sampled_from([0.0, 0.5, 1.0]))
    # Windows from before the first to past the last failure, including
    # degenerate (end <= start) ones.
    start = draw(st.integers(-2, 24)) * HOUR
    end = draw(st.integers(-2, 26)) * HOUR
    return node_count, FailureTrace(events), detectability, accuracy, start, end


def sparse_scorer(index):
    return WindowScorer(lambda n, s, e: index.node_term(n, s, e), index.window_terms)


# ----------------------------------------------------------------------
# Equivalence
# ----------------------------------------------------------------------
class TestSparseSelection:
    @settings(max_examples=400, deadline=None)
    @given(scenarios(), st.data())
    def test_sparse_merge_equals_full_sort(self, scenario, data):
        node_count, trace, detectability, accuracy, start, end = scenario
        index = FailureIntervalIndex(trace, detectability, accuracy)
        free_list = data.draw(
            st.lists(st.integers(0, node_count - 1), unique=True).map(sorted)
        )
        size = data.draw(st.integers(0, len(free_list)))

        def scorer(n, s, e):
            return oracle_term(trace, detectability, accuracy, n, s, e)

        expected = oracle_select(free_list, size, start, end, scorer)
        for free in (free_list, NodeSet.from_sorted(free_list)):
            chosen, scored = best_nodes(free, size, start, end, sparse_scorer(index))
            assert chosen == expected
            assert scored <= len(free_list)
        # The full-sort path (a plain scorer) is the same ranking.
        assert best_nodes(free_list, size, start, end, scorer) == (
            expected, len(free_list)
        )

    @settings(max_examples=150, deadline=None)
    @given(scenarios())
    def test_whole_cluster_selection_through_topology_and_ledger(self, scenario):
        node_count, trace, detectability, accuracy, start, end = scenario
        if end <= start:
            return  # find_slot needs a positive duration
        index = FailureIntervalIndex(trace, detectability, accuracy)

        def scorer(n, s, e):
            return oracle_term(trace, detectability, accuracy, n, s, e)

        everything = list(range(node_count))
        for size in sorted({1, node_count}):
            expected = oracle_select(everything, size, start, end, scorer)
            flat = FlatTopology(node_count).select_partition(
                NodeSet.full(node_count), size, start, end, sparse_scorer(index)
            )
            assert flat == expected
            slot, chosen = ReservationLedger(node_count).find_slot(
                size, end - start, start, sparse_scorer(index)
            )
            assert (slot, chosen) == (start, expected)

    def test_zero_score_dirty_nodes_rank_with_the_clean_ones(self):
        # Node 0 fails detectably with p_x == 0.0 and so ranks with the
        # clean nodes by index; node 1 (p_x == 0.5) ranks last.
        trace = FailureTrace(
            [
                FailureEvent(event_id=1, time=HOUR, node=0),
                FailureEvent(event_id=2, time=HOUR, node=1),
            ]
        )
        index = FailureIntervalIndex(trace, {1: 0.0, 2: 0.5}, accuracy=1.0)
        chosen, scored = best_nodes(
            NodeSet.full(4), 3, 0.0, 2 * HOUR, sparse_scorer(index)
        )
        assert chosen == [0, 2, 3]
        assert scored == 4  # one risky node plus a 3-node clean prefix

    def test_exact_evaluator_yields_a_window_scorer(self):
        trace = FailureTrace([FailureEvent(event_id=1, time=HOUR, node=2)])
        predictor = TracePredictor(trace, accuracy=1.0, seed=1)
        exact = AnalyticalEvaluator(predictor, 4)
        assert isinstance(fault_aware_scorer(exact), WindowScorer)
        # A raw predictor (probe mode) keeps the per-node scorer.
        assert not isinstance(fault_aware_scorer(predictor), WindowScorer)

    def test_flat_topology_counts_nodes_scored(self):
        registry = MetricsRegistry()
        trace = FailureTrace(
            [FailureEvent(event_id=i + 1, time=HOUR, node=i) for i in range(3)]
        )
        index = FailureIntervalIndex(trace, {1: 0.5, 2: 0.5, 3: 0.25}, 1.0)
        topology = FlatTopology(64, registry=registry)
        chosen = topology.select_partition(
            NodeSet.full(64), 4, 0.0, 2 * HOUR, sparse_scorer(index)
        )
        assert chosen == [3, 4, 5, 6]
        # Three risky nodes plus the 4-node clean prefix, not all 64.
        assert registry.snapshot()["counters"]["scheduling.placement.nodes_scored"] == 7


@st.composite
def ledger_placements(draw):
    """A real ledger's free set over a window, a sparse dirty-node list
    (with ``p == 0.0`` entries and busy dirty nodes) and a size that often
    exceeds the clean free nodes, so risky ones fill the shortfall."""
    node_count = draw(st.sampled_from([128, 200]))
    ledger = ReservationLedger(node_count)
    bookings = draw(
        st.lists(
            st.tuples(
                st.lists(st.integers(0, node_count - 1), min_size=1, max_size=60),
                st.integers(0, 8),
                st.integers(1, 6),
            ),
            max_size=8,
        )
    )
    for job_id, (nodes, start, length) in enumerate(bookings):
        ledger.reserve(
            job_id, nodes, start * HOUR, (start + length) * HOUR, allow_overlap=True
        )
    start = draw(st.integers(0, 10)) * HOUR
    end = start + draw(st.integers(1, 4)) * HOUR
    free = ledger.free_nodes_set(start, end)
    terms = draw(
        st.dictionaries(st.integers(0, node_count - 1), PX, max_size=40)
    )
    size = draw(
        st.one_of(
            st.integers(0, len(free)),
            st.integers(max(0, len(free) - len(terms)), len(free)),
        )
    )
    return free, size, start, end, sorted(terms.items())


class TestMaskPlacement:
    @settings(max_examples=200, deadline=None)
    @given(ledger_placements())
    def test_mask_ranking_equals_full_sort_and_counts_its_nodes(self, placement):
        free, size, start, end, terms = placement
        dirty = dict(terms)

        def score(n, s, e):
            return dirty.get(n, 0.0)

        scorer = WindowScorer(score, lambda s, e: terms)
        # First, while the ledger's set holds only its mask.
        got = best_nodes(free, size, start, end, scorer)
        expected = oracle_select(free, size, start, end, score)
        clean_free = sum(1 for n in free if dirty.get(n, 0.0) == 0.0)
        risky_free = sum(1 for n in free if dirty.get(n, 0.0) > 0.0)
        scored_formula = min(size, clean_free) + risky_free
        assert got == (expected, scored_formula)
        assert best_nodes(list(free), size, start, end, scorer) == got
        registry = MetricsRegistry()
        topology = FlatTopology(200, registry=registry)
        assert topology.select_partition(free, size, start, end, scorer) == expected
        counters = registry.snapshot()["counters"]
        assert counters["scheduling.placement.nodes_scored"] == scored_formula


class TestWindowScan:
    @settings(max_examples=400, deadline=None)
    @given(scenarios(), st.integers(0, 14))
    def test_bound_equals_per_node_sort_oracle(self, scenario, size):
        node_count, trace, detectability, accuracy, start, end = scenario
        index = FailureIntervalIndex(trace, detectability, accuracy)
        assert index.best_case_probability(
            size, start, end, node_count
        ) == oracle_best_case(
            trace, detectability, accuracy, size, start, end, node_count
        )

    @settings(max_examples=200, deadline=None)
    @given(scenarios())
    def test_window_firsts_lists_first_failures_in_time_order(self, scenario):
        node_count, trace, detectability, accuracy, start, end = scenario
        index = FailureIntervalIndex(trace, detectability, accuracy)
        firsts = {
            node: oracle_first(trace, detectability, accuracy, node, start, end)
            for node in trace.nodes
        }
        expected = sorted(
            (first[0], first[1], node, first[2])
            for node, first in firsts.items()
            if first is not None
        )
        assert [
            (node, p) for _, _, node, p in expected
        ] == index.window_terms(start, end)
        # Memoised for the last window, and unchanged by other windows.
        assert index.window_firsts(start, end) is index.window_firsts(start, end)
        again = dict(index.window_firsts(start, end))
        index.window_firsts(end, end + HOUR)
        assert dict(index.window_firsts(start, end)) == again

    @settings(max_examples=300, deadline=None)
    @given(scenarios(), st.data())
    def test_set_queries_take_the_earliest_member_failure(self, scenario, data):
        node_count, trace, detectability, accuracy, start, end = scenario
        index = FailureIntervalIndex(trace, detectability, accuracy)
        subset = data.draw(
            st.lists(st.integers(0, node_count - 1), unique=True).map(sorted)
        )
        firsts = []
        for node in subset:
            first = oracle_first(trace, detectability, accuracy, node, start, end)
            if first is not None:
                firsts.append((*first, node))
        expected = min(firsts) if firsts else None
        for nodes in (subset, NodeSet.from_sorted(subset)):
            assert index.first_detectable(nodes, start, end) == expected
