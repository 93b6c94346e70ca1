"""The cluster's blocked-node bitmask against the per-node definition.

``Cluster.nodes_available`` is one AND against a mask of the nodes that
are down or busy.  Random sequences of starts, removals, failures and
recoveries (stale ones included) must leave it agreeing with the
definition it replaces: every listed node ``is_up and not is_busy``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.machine import Cluster
from repro.cluster.nodeset import NodeSet

NODES = 10
DOWNTIME = 120.0


def _definition(cluster, nodes):
    return all(
        cluster.node(i).is_up and not cluster.node(i).is_busy for i in nodes
    )


def _check(cluster, probes):
    for nodes in probes:
        assert cluster.nodes_available(nodes) == _definition(cluster, nodes)
    for i in range(NODES):
        assert cluster.nodes_available([i]) == _definition(cluster, [i])
    assert cluster.nodes_available(NodeSet.full(NODES)) == _definition(
        cluster, range(NODES)
    )


node_lists = st.lists(
    st.integers(0, NODES - 1), min_size=1, max_size=4, unique=True
)
ops = st.one_of(
    st.tuples(st.just("start"), node_lists),
    st.tuples(st.just("remove"), st.integers(0, 20)),
    st.tuples(st.just("fail"), st.integers(0, NODES - 1)),
    st.tuples(st.just("recover"), st.integers(0, NODES - 1)),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(ops, st.floats(0.0, 100.0)), max_size=40),
    st.lists(node_lists, min_size=1, max_size=3),
)
def test_nodes_available_matches_the_per_node_definition(steps, probes):
    cluster = Cluster(node_count=NODES, downtime=DOWNTIME)
    now = 0.0
    next_job = 1
    for (op, arg), dt in steps:
        now += dt
        if op == "start":
            if _definition(cluster, arg):
                cluster.start_job(next_job, arg)
                next_job += 1
            else:
                with pytest.raises(ValueError, match="not all up and idle"):
                    cluster.start_job(next_job, arg)
        elif op == "remove":
            running = cluster.running_jobs()
            if running:
                cluster.remove_job(running[arg % len(running)])
        elif op == "fail":
            victim, _ = cluster.fail_node(arg, now)
            if victim is not None:
                cluster.remove_job(victim)  # as the system kills it
        else:
            # Often stale: before the repair ends or after a repeat failure.
            cluster.recover_node(arg, now)
        _check(cluster, probes)


def test_running_node_that_fails_stays_blocked_until_it_recovers():
    cluster = Cluster(node_count=4, downtime=DOWNTIME)
    cluster.start_job(1, [0, 1])
    assert not cluster.nodes_available([0]) and cluster.nodes_available([2, 3])
    victim, recovery = cluster.fail_node(1, now=10.0)
    assert victim == 1
    cluster.remove_job(1)
    assert cluster.nodes_available([0])
    assert not cluster.nodes_available([1])
    cluster.recover_node(1, now=recovery)
    assert cluster.nodes_available([0, 1, 2, 3])


def test_second_failure_inside_one_downtime_and_the_stale_recovery():
    cluster = Cluster(node_count=4, downtime=DOWNTIME)
    first = cluster.fail_node(2, now=0.0)[1]
    second = cluster.fail_node(2, now=60.0)[1]
    assert (first, second) == (120.0, 180.0)
    cluster.recover_node(2, now=first)  # stale: the repair moved to 180
    assert not cluster.nodes_available([2])
    with pytest.raises(ValueError, match="not all up and idle"):
        cluster.start_job(1, [1, 2])
    cluster.recover_node(2, now=second)
    assert cluster.nodes_available([2])
    cluster.start_job(1, NodeSet.interval(1, 3))
    assert cluster.nodes_of(1) == [1, 2]
    assert not cluster.nodes_available([1]) and cluster.job_on(2) == 1


def test_bad_node_lists_are_rejected_without_side_effects():
    cluster = Cluster(node_count=4, downtime=DOWNTIME)
    with pytest.raises(IndexError):
        cluster.start_job(1, [2, 4])
    with pytest.raises(ValueError):
        cluster.start_job(1, [-1])
    with pytest.raises(ValueError, match="duplicate"):
        cluster.start_job(1, [1, 1])
    assert cluster.running_jobs() == [] and cluster.busy_node_count() == 0
    assert cluster.nodes_available([0, 1, 2, 3])
